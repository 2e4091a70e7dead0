"""Map free-text outputs onto a label set by embedding cosine, plus metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .providers import EmbeddingProvider, _norm, label_terms


@dataclass(frozen=True)
class LabelSet:
    names: tuple[str, ...]
    # (provider, columns, unit-norm label rows on those columns) for the
    # last provider the names were embedded with; see _label_matrix
    _embedded: tuple | None = field(default=None, init=False, compare=False,
                                    repr=False)

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
    scores: np.ndarray                      # samples x classes cosine matrix
    predictions: list[int]                  # argmax label index per sample


def _label_matrix(labels: LabelSet,
                  provider: EmbeddingProvider) -> tuple[dict[int, int],
                                                        np.ndarray]:
    """(columns, compact): the column of each embedding index some label
    uses, in ascending index order, and the unit-norm label rows on those
    columns, one row per label.

    Built from the label terms once per provider and kept on the LabelSet;
    a different provider object rebuilds it. Indices no label uses add
    exact zeros to every score, so the rows hold only the columns the
    labels need.
    """
    if labels._embedded is not None and labels._embedded[0] is provider:
        return labels._embedded[1:]
    rows = [label_terms(provider, name) for name in labels.names]
    used = sorted(set().union(*(terms for terms, _ in rows)))
    columns = {i: j for j, i in enumerate(used)}
    compact = np.zeros((len(rows), len(used)))
    for row, (terms, norm) in zip(compact, rows):
        row[[columns[i] for i in terms]] = [w / norm for w in terms.values()]
    object.__setattr__(labels, "_embedded", (provider, columns, compact))
    return columns, compact


def classify_output(text: str, labels: LabelSet,
                    provider: EmbeddingProvider) -> tuple[np.ndarray, int]:
    """Cosine of the output against every label; argmax index. The one-row
    case of classify_corpus."""
    res = classify_corpus([text], labels, provider)
    return res.scores[0], res.predictions[0]


def classify_corpus(texts: list[str], labels: LabelSet,
                    provider: EmbeddingProvider) -> ClassificationResult:
    """Cosine of every output against every label; argmax index per output.

    All outputs are scored against all labels with one product of unit
    vectors, so labels that embed identically get identical scores. Each
    output and label scatters its terms, divided by their norm, onto the
    label columns. Every norm is a correctly rounded sum of squares, the
    same float in any order of the terms, so the scores equal the dense
    formula with those norms bit for bit. Scores agree with the per-label
    cosine to within 1e-12. Ties break to the lowest label index.
    """
    if not texts:
        raise ValueError("no outputs to classify")
    columns, compact = _label_matrix(labels, provider)
    # unit-norm outputs on the label columns only: the rest scores zero
    out = np.zeros((len(texts), len(columns)))
    for row, t in zip(out, texts):
        terms = provider.terms(t)
        norm = _norm(terms)
        if norm == 0.0:
            raise ValueError(f"output {t!r} embeds to a zero vector")
        for i, w in terms.items():
            j = columns.get(i)
            if j is not None:
                row[j] = w / norm
    scores = out @ compact.T
    # np.argmax already returns the first (lowest) index among equal maxima
    return ClassificationResult(scores,
                                [int(i) for i in np.argmax(scores, axis=1)])


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
    Every truth must be 0 or 1 (or a bool).
    """
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths)
    if scores.shape != truths.shape:
        raise ValueError("scores and truths shapes differ")
    if scores.ndim != 2:
        raise ValueError("expected a samples x classes matrix")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.all((truths == 0) | (truths == 1)):
        raise ValueError("truths must be 0 or 1")
    if not truths.any():
        raise ValueError("no positive labels in truths")

    positives = truths.sum(axis=0)
    cols = np.flatnonzero(positives)
    # stable sort on negated scores keeps ascending index among ties; each
    # class sums the precision at its hits in rank order, as a running sum
    order = np.argsort(-scores[:, cols], axis=0, kind="stable")
    hit = np.take_along_axis(truths[:, cols] != 0, order, axis=0)
    prec = np.cumsum(hit, axis=0) / np.arange(1, len(scores) + 1)[:, None]
    aps = np.cumsum(np.where(hit, prec, 0.0), axis=0)[-1] / positives[cols]
    if len(cols) < len(positives):
        warnings.warn(f"classes without positives excluded from mAP: "
                      f"{len(positives) - len(cols)} of {len(positives)}",
                      stacklevel=2)
    return float(np.mean(aps))
