"""Text embedding providers for similarity-based scoring.

All scoring is cosine-based, so providers only need to map text to a
fixed-dimension vector deterministically. The two local providers cover the
offline paths: a hashed bag-of-words for graded similarity and an exact-match
one-hot for verbatim comparisons. The remote provider speaks the usual
embeddings-API shape and is only built when explicitly requested.
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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-D float64 vector, bit for bit: numpy's own
    formula, sqrt(x.dot(x)) over x = v.ravel(order="K"), without its
    argument checks."""
    x = v.ravel(order="K")
    return math.sqrt(x.dot(x))


@functools.lru_cache(maxsize=_TOKEN_HASH_CACHE)
def _token_hash(token: str) -> int:
    """The first 8 bytes of the token's MD5 as a big-endian integer."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big")


class EmbeddingProvider(Protocol):
    """text -> fixed-dimension vector; deterministic per text."""

    name: str
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


class HashedBagOfWordsProvider:
    """Lowercased tokens hashed into buckets, counts L2-normalized.

    Dependency-free stand-in for a learned text encoder: texts sharing tokens
    get positive cosine, disjoint texts are (near-)orthogonal up to hash
    collisions.

    The vector is built from the counts of the buckets the text uses, and
    equals the dense formula (bucket counts as floats, divided by their
    _norm) bit for bit. In a text of fewer than 2**26 tokens every square
    and partial sum of the counts is an integer below 2**53, so the dense
    dot adds them exactly in any order and its norm is math.sqrt of their
    integer sum. Each entry is then the same correctly rounded
    count / norm, and unused buckets stay +0.0.
    """

    name = "hashed-bow"
    dimension = 4096

    def embed(self, text: str) -> np.ndarray:
        d = self.dimension
        counts: dict[int, int] = {}
        for tok in _tokens(text):
            b = _token_hash(tok) % d
            counts[b] = counts.get(b, 0) + 1
        v = np.zeros(d)
        if counts:
            norm = math.sqrt(sum(c * c for c in counts.values()))
            v[list(counts)] = [c / norm for c in counts.values()]
        return v


class ExactMatchProvider:
    """One-hot per distinct string: cosine 1 for equal texts, 0 otherwise.

    Indices are assigned in first-seen order, so runs are deterministic given
    input order.
    """

    def __init__(self, dimension: int = 8192):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.name = "exact-match"
        self.dimension = dimension
        self._index: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        if text not in self._index:
            if len(self._index) >= self.dimension:
                raise ValueError(
                    f"exact-match provider capacity {self.dimension} exhausted")
            self._index[text] = len(self._index)
        v = np.zeros(self.dimension)
        v[self._index[text]] = 1.0
        return v


class RemoteEmbeddingProvider:
    """Embeddings-API client over remote.post_json; built only on explicit
    request. A reply of the wrong dimension is retried like a failed one."""

    name = "remote"

    def __init__(self, url: str, api_key_env: str = "LLM_API_KEY",
                 dimension: int = 1536, session=None, sleep=time.sleep):
        self._key = api_key(api_key_env)
        if session is None:
            session = new_session()
        self.dimension = dimension
        self._url = url
        self._session = session
        self._sleep = sleep

    def _parse(self, reply) -> np.ndarray:
        vec = np.asarray(reply["data"][0]["embedding"], dtype=float)
        if vec.shape != (self.dimension,):
            raise ValueError(
                f"expected dimension {self.dimension}, got {vec.shape}")
        return vec

    def embed(self, text: str) -> np.ndarray:
        return post_json(self._session, self._url, self._key,
                         {"model": "", "input": text}, parse=self._parse,
                         sleep=self._sleep)


def label_vector(provider: EmbeddingProvider,
                 label: str) -> tuple[np.ndarray, float]:
    """(embedding, norm) of a label name; a label that embeds to the zero
    vector raises ValueError."""
    v = provider.embed(label)
    norm = _norm(v)
    if norm == 0.0:
        raise ValueError(f"label {label!r} embeds to a zero vector")
    return v, norm


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors are rejected."""
    nu = _norm(u)
    nv = _norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for a zero-norm vector")
    return float(np.dot(u, v) / (nu * nv))
