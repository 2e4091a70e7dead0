r"""Ordering and counting probes over free-text answers.

The extraction rules are reconstructions; the originals are unpublished.

Extraction is linear in the length of ordinary answers. Three of the order
patterns open with ``(?:the\s+)?`` and a lazy run of C = ``[\w\s,&-]``, so
an unanchored search would retry that run from every position inside it.
They are compiled to start only where a run of C begins
(``(?<![\w\s,&-])``), which cannot change a match: every match starts on a
C character, and a match starting inside a run has a twin starting at the
run's start whose group also takes the skipped characters, so the leftmost
match always starts at a run start. The pattern that opens with the literal
``first`` is searched as written. Two inputs stay quadratic: a long run of
whitespace, which the ``\s+`` after the lazy run rescans from each of its
positions, and many repeats of "first sound is" within one run.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .providers import EmbeddingProvider, _dot, _norm, label_terms

DEFAULT_ORDER_PATTERNS = (
    r"(?:the\s+)?([\w\s,&-]+?)\s+(?:sounds?\s+)?(?:starts?|begins?)"
    r"(?:\s+and\s+ends?)?\s+first",
    r"first\s+sound\s+is\s+(?:the\s+)?([\w\s,&-]+?)(?:[.,;!?]|$)",
    r"(?:the\s+)?([\w\s,&-]+?)\s+(?:comes?|came)\s+first",
    r"(?:the\s+)?([\w\s,&-]+?)\s+is\s+(?:the\s+)?first",
)

# the patterns opening with the clause class start only where a run of it
# begins: see the module docstring for why no match changes
_RUN_START = r"(?<![\w\s,&-])"
_ORDER_RES = tuple(
    re.compile(p if p.startswith("first") else _RUN_START + p, re.IGNORECASE)
    for p in DEFAULT_ORDER_PATTERNS)
_ARTICLE_RE = re.compile(r"^(?:the|a|an)\s+", re.IGNORECASE)

# label terms order_probe keeps, least recently used evicted first; a
# hashed label's terms are a dict of a few entries, a few hundred bytes
_LABEL_CACHE = 128


def extract_first_sound(text: str) -> str | None:
    """The clause naming the first-starting sound, or None when absent."""
    for pattern in _ORDER_RES:
        m = pattern.search(text)
        if m:
            clause = _ARTICLE_RE.sub("", m.group(1).strip())
            if clause:
                return clause
    return None


# (terms, norm) per label name, embedded once per provider object; a label
# that embeds to zero is never kept, so it raises on every call
_label_terms = functools.lru_cache(maxsize=_LABEL_CACHE)(label_terms)


def order_probe(answer_text: str, first_label: str, second_label: str,
                provider: EmbeddingProvider) -> bool | None:
    """True/False when the answer names an order; None when it doesn't.

    The extracted clause is assigned to whichever label embeds closer by
    cosine; ties resolve to first_label, matching the lowest-index tie-break
    used for classification. The cosine is providers.cosine's, taken over
    the clause's and the labels' terms with correctly rounded sums, so it
    equals the dense formula with the same sums bit for bit. Label terms
    are kept per provider object across calls.
    """
    clause = extract_first_sound(answer_text)
    if clause is None:
        return None
    terms = provider.terms(clause)
    norm = _norm(terms)
    if norm == 0.0:
        return None
    sims = [_dot(terms, lt) / (norm * nl)
            for lt, nl in (_label_terms(provider, first_label),
                           _label_terms(provider, second_label))]
    return sims[0] >= sims[1]


def order_accuracy(results: list) -> tuple[float, int, int]:
    """(accuracy over followed cases, n_followed, n_excluded)."""
    followed = [r for r in results if r is not None]
    if not followed:
        raise ValueError("no order answer followed the instruction")
    return (sum(followed) / len(followed), len(followed),
            len(results) - len(followed))


_NUMBER_WORDS = {w: i + 1 for i, w in enumerate(
    ["one", "two", "three", "four", "five",
     "six", "seven", "eight", "nine", "ten"])}

_COUNT_RE = re.compile(
    r"\b(\d+|" + "|".join(_NUMBER_WORDS) + r")\b", re.IGNORECASE)


def parse_count(text: str) -> int | None:
    """First integer or number word (one..ten) in the text."""
    m = _COUNT_RE.search(text)
    if m is None:
        return None
    token = m.group(1).lower()
    return int(token) if token.isdigit() else _NUMBER_WORDS[token]


@dataclass
class ProbeReport:
    pearson_r: float | None = None
    double_single_ratio: float | None = None
    excluded: tuple[int, ...] = ()
    n_used: int = 0


def counting_probe(answers: list[str], truths: list[int]) -> ProbeReport:
    """Pearson of parsed counts against truths, plus the 2-clip/1-clip ratio.

    Unparseable answers are excluded and their indices reported.
    """
    if len(answers) != len(truths):
        raise ValueError("answers and truths differ in length")
    if len(answers) < 3:
        raise ValueError("counting probe needs at least 3 samples")
    parsed = []
    kept_truths = []
    excluded = []
    for i, (a, t) in enumerate(zip(answers, truths)):
        c = parse_count(a)
        if c is None:
            excluded.append(i)
        else:
            parsed.append(c)
            kept_truths.append(t)
    if len(parsed) < 2:
        raise ValueError("fewer than 2 parseable answers")
    r = pearson(kept_truths, parsed)
    doubles = [c for c, t in zip(parsed, kept_truths) if t == 2]
    singles = [c for c, t in zip(parsed, kept_truths) if t == 1]
    ratio = None
    if doubles and singles and sum(singles) > 0:
        ratio = (sum(doubles) / len(doubles)) / (sum(singles) / len(singles))
    return ProbeReport(pearson_r=r, double_single_ratio=ratio,
                       excluded=tuple(excluded), n_used=len(parsed))


def pearson(x: list, y: list) -> float:
    """Sample Pearson correlation. Rejects zero variance, a value that is
    not a finite float, and sums of products that overflow float range
    (which would otherwise read as a correlation near zero)."""
    try:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
    except OverflowError:
        raise ValueError("pearson needs values within float range") from None
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-d sequences")
    if xa.size < 2:
        raise ValueError("pearson needs at least 2 points")
    # a nan or infinite value, like a sum of products beyond float range,
    # leaves a variance or the covariance that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xa - xa.mean()
        yc = ya - ya.mean()
        vx = float(np.dot(xc, xc))
        vy = float(np.dot(yc, yc))
        sxy = float(np.dot(xc, yc))
        vxy = vx * vy
    if not all(map(math.isfinite, (vx, vy, sxy, vxy))):
        raise ValueError("pearson needs finite values whose sums of "
                         "products stay within float range")
    if vx == 0.0 or vy == 0.0:
        raise ValueError("pearson undefined under zero variance")
    return float(sxy / np.sqrt(vxy))
