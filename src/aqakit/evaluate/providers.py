"""Text embedding providers for similarity-based scoring.

All scoring is cosine-based, so providers only need to map text to a
fixed-dimension vector deterministically. The scorers read that vector
through ``terms``, its nonzero entries as index -> value, and never build
the dense vector: a hashed text holds about 10 of its 4,096 entries.
``embed`` is the dense view of the same terms.

Every norm and dot product of terms is a correctly rounded sum
(``math.fsum``), the float nearest the exact sum of the rounded squares or
products. That float does not depend on the order of the terms, so neither
a dict's order nor how BLAS splits a dot product can change a score, and
scoring through terms equals the dense formula with the same sums bit for
bit: a zero entry adds an exact zero. np.linalg.norm's dot product rounds
as it goes, so it may differ in the last bits.

The hashed bag-of-words provider covers the offline path with graded
similarity. The remote provider speaks the usual embeddings-API shape and
is only built when explicitly requested.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import time
from typing import Protocol

import numpy as np

from ..remote import api_key, new_session, post_json

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


# distinct tokens whose hash is kept; answers and label names reuse a small
# vocabulary, and an entry costs about 200 bytes with its token
_TOKEN_HASH_CACHE = 8192


def _norm(terms: dict[int, float]) -> float:
    """L2 norm of terms: the square root of the correctly rounded sum of
    their squares. A norm beyond float range raises ValueError."""
    try:
        norm = math.sqrt(math.fsum([w * w for w in terms.values()]))
    except OverflowError:   # fsum's partial sums left float range
        norm = math.inf
    if norm == math.inf:
        raise ValueError("embedding norm exceeds float range")
    return norm


def _dot(a: dict[int, float], b: dict[int, float]) -> float:
    """Correctly rounded dot product of two terms dicts."""
    if len(b) < len(a):
        a, b = b, a
    return math.fsum([w * b[i] for i, w in a.items() if i in b])


def _dense(terms: dict[int, float], dimension: int) -> np.ndarray:
    """The dimension-long vector whose nonzero entries are terms."""
    v = np.zeros(dimension)
    if terms:
        v[list(terms)] = list(terms.values())
    return v


def _nonzero_terms(v: np.ndarray) -> dict[int, float]:
    """Index -> value of a 1-D vector's nonzero entries."""
    idx = np.flatnonzero(v)
    return dict(zip(idx.tolist(), v[idx].tolist()))


@functools.lru_cache(maxsize=_TOKEN_HASH_CACHE)
def _token_hash(token: str) -> int:
    """The first 8 bytes of the token's MD5 as a big-endian integer."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big")


class EmbeddingProvider(Protocol):
    """text -> fixed-dimension vector; deterministic per text."""

    name: str
    dimension: int

    def terms(self, text: str) -> dict[int, float]:
        """Index -> value of the vector's nonzero entries; empty for the
        zero vector."""

    def embed(self, text: str) -> np.ndarray:
        """The dense vector of terms(text)."""


class HashedBagOfWordsProvider:
    """Lowercased tokens hashed into buckets, counts L2-normalized.

    Dependency-free stand-in for a learned text encoder: texts sharing tokens
    get positive cosine, disjoint texts are (near-)orthogonal up to hash
    collisions.

    The terms are built from the counts of the buckets the text uses, and
    the vector equals the dense formula (bucket counts as floats, divided
    by np.linalg.norm) bit for bit. In a text of fewer than 2**26 tokens
    every square and partial sum of the counts is an integer below 2**53,
    so the dense dot adds them exactly in any order and its norm is
    math.sqrt of their integer sum. Each entry is then the same correctly
    rounded count / norm, and unused buckets stay +0.0.
    """

    name = "hashed-bow"
    dimension = 4096

    def terms(self, text: str) -> dict[int, float]:
        d = self.dimension
        counts: dict[int, int] = {}
        for tok in _tokens(text):
            b = _token_hash(tok) % d
            counts[b] = counts.get(b, 0) + 1
        norm = math.sqrt(sum(c * c for c in counts.values()))
        return {b: c / norm for b, c in counts.items()}

    def embed(self, text: str) -> np.ndarray:
        return _dense(self.terms(text), self.dimension)


class RemoteEmbeddingProvider:
    """Embeddings-API client over remote.post_json; built only on explicit
    request. The first accepted reply fixes dimension; a reply of another
    width or with an entry that is not finite is retried like a failed one."""

    name = "remote"

    def __init__(self, url: str, api_key_env: str = "LLM_API_KEY",
                 session=None, sleep=time.sleep):
        self._key = api_key(api_key_env)
        if session is None:
            session = new_session()
        self.dimension: int | None = None
        self._url = url
        self._session = session
        self._sleep = sleep

    def _parse(self, reply) -> dict[int, float]:
        vec = np.asarray(reply["data"][0]["embedding"], dtype=float)
        if vec.shape != (self.dimension or vec.size,) or not vec.size:
            raise ValueError(f"expected dimension {self.dimension or '>= 1'}, got {vec.shape}")
        # json reads NaN and Infinity; they would score as nan
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            raise ValueError(f"embedding entry {int(bad[0])} is "
                             f"{vec[bad[0]]}, not a finite number")
        self.dimension = vec.size
        return _nonzero_terms(vec)

    def terms(self, text: str) -> dict[int, float]:
        return post_json(self._session, self._url, self._key,
                         {"model": "", "input": text}, parse=self._parse,
                         sleep=self._sleep)

    def embed(self, text: str) -> np.ndarray:
        return _dense(self.terms(text), self.dimension)


def label_terms(provider: EmbeddingProvider,
                label: str) -> tuple[dict[int, float], float]:
    """(terms, norm) of a label name; a label that embeds to the zero
    vector raises ValueError."""
    terms = provider.terms(label)
    norm = _norm(terms)
    if norm == 0.0:
        raise ValueError(f"label {label!r} embeds to a zero vector")
    return terms, norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two equal-length vectors, with the scorers'
    correctly rounded sums over their nonzero terms; zero-norm vectors are
    rejected."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError("cosine needs two vectors of equal length")
    tu, tv = _nonzero_terms(u), _nonzero_terms(v)
    nu = _norm(tu)
    nv = _norm(tv)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero-norm vector")
    return _dot(tu, tv) / (nu * nv)
