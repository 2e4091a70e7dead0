"""Map free-text outputs onto a label set by embedding cosine, plus metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .providers import EmbeddingProvider

__all__ = [
    "LabelSet",
    "ClassificationResult",
    "classify_output",
    "classify_corpus",
    "accuracy",
    "micro_f1",
    "mean_average_precision",
]


@dataclass(frozen=True)
class LabelSet:
    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("label set must be non-empty")
        if any(not n for n in self.names):
            raise ValueError("label names must be non-empty strings")
        if len(set(self.names)) != len(self.names):
            raise ValueError("label names must be distinct")
        object.__setattr__(self, "names", tuple(self.names))


@dataclass
class ClassificationResult:
    labels: LabelSet
    scores: np.ndarray                      # samples x classes cosine matrix
    predictions: list[int]                  # argmax label index per sample


def _label_matrix(labels: LabelSet, provider: EmbeddingProvider,
                  cache: dict | None) -> np.ndarray:
    """Unit-norm label embeddings, one row per label.

    Rows are filled and normalized in place: stacking the embeddings first
    would hold every label vector twice.
    """
    key = (provider.name, labels.names)
    if cache is not None and key in cache:
        return cache[key]
    matrix = np.empty((len(labels.names), provider.dimension))
    for row, name in zip(matrix, labels.names):
        row[:] = provider.embed(name)
        norm = np.linalg.norm(row)
        if norm == 0.0:
            raise ValueError(f"label {name!r} embeds to a zero vector")
        row /= norm
    if cache is not None:
        cache[key] = matrix
    return matrix


def classify_output(text: str, labels: LabelSet, provider: EmbeddingProvider,
                    cache: dict | None = None) -> tuple[np.ndarray, int]:
    """Cosine of the output against every label; argmax index.

    All labels are scored with one product of unit vectors, so labels that
    embed identically get identical scores. Ties break to the lowest label
    index. Label embeddings may be cached across calls; caching never
    changes results.
    """
    e = provider.embed(text)
    norm = np.linalg.norm(e)
    if norm == 0.0:
        raise ValueError(f"output {text!r} embeds to a zero vector")
    scores = _label_matrix(labels, provider, cache) @ (e / norm)
    # np.argmax already returns the first (lowest) index among equal maxima
    return scores, int(np.argmax(scores))


def classify_corpus(texts: list[str], labels: LabelSet,
                    provider: EmbeddingProvider) -> ClassificationResult:
    if not texts:
        raise ValueError("no outputs to classify")
    cache: dict = {}
    rows = []
    preds = []
    for t in texts:
        scores, idx = classify_output(t, labels, provider, cache)
        rows.append(scores)
        preds.append(idx)
    return ClassificationResult(labels, np.vstack(rows), preds)


def accuracy(preds: list, truths: list) -> float:
    if len(preds) != len(truths):
        raise ValueError("predictions and truths differ in length")
    if not preds:
        raise ValueError("empty input")
    return sum(p == t for p, t in zip(preds, truths)) / len(preds)


def micro_f1(preds: list, truths: list) -> float:
    """Micro-averaged F1 over label sets, TP/FP/FN pooled across classes.

    Each element may be a single label or an iterable of labels; single
    labels are treated as singleton sets.
    """
    if len(preds) != len(truths):
        raise ValueError("predictions and truths differ in length")
    if not preds:
        raise ValueError("empty input")

    def as_set(x):
        if isinstance(x, (set, frozenset, list, tuple)):
            return set(x)
        return {x}

    tp = fp = fn = 0
    for p, t in zip(preds, truths):
        ps, ts = as_set(p), as_set(t)
        tp += len(ps & ts)
        fp += len(ps - ts)
        fn += len(ts - ps)
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def mean_average_precision(scores: np.ndarray, truths: np.ndarray) -> float:
    """Macro mean of per-class average precision.

    Samples are ranked by descending score with ties broken by ascending
    sample index; classes without a positive are excluded with a warning.
    """
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths)
    if scores.shape != truths.shape:
        raise ValueError("scores and truths shapes differ")
    if scores.ndim != 2:
        raise ValueError("expected a samples x classes matrix")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not truths.any():
        raise ValueError("no positive labels in truths")

    aps = []
    skipped = []
    for c in range(scores.shape[1]):
        col_truth = truths[:, c]
        n_pos = int(col_truth.sum())
        if n_pos == 0:
            skipped.append(c)
            continue
        # stable sort on negated scores keeps ascending index among ties
        order = np.argsort(-scores[:, c], kind="stable")
        hits = 0
        ap = 0.0
        for rank, idx in enumerate(order, start=1):
            if col_truth[idx]:
                hits += 1
                ap += hits / rank
        aps.append(ap / n_pos)
    if skipped:
        warnings.warn(f"classes without positives excluded from mAP: "
                      f"{skipped}", stacklevel=2)
    return float(np.mean(aps))
