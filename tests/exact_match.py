"""A test double for the embedding providers: one-hot per distinct string,
so scores are exact and easy to reason about in the scorer tests."""

import numpy as np

from aqakit.evaluate.providers import _dense


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

    def terms(self, text: str) -> dict[int, float]:
        if text not in self._index:
            if len(self._index) >= self.dimension:
                raise ValueError(
                    f"exact-match provider capacity {self.dimension} exhausted")
            self._index[text] = len(self._index)
        return {self._index[text]: 1.0}

    def embed(self, text: str) -> np.ndarray:
        return _dense(self.terms(text), self.dimension)
