"""Low-rank adapters: a frozen weight matrix W plus trainable A and B with
an alpha/r scale. W is never updated; training starts exactly at the frozen
model because B initializes to zero."""

from __future__ import annotations

import numpy as np


def lora_apply_rows(x: np.ndarray, W: np.ndarray, A: np.ndarray, B: np.ndarray,
                    scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Batched adapter application over row vectors.

    Returns (y, u) with y = x W^T + scale * u B^T and u = x A^T; the
    intermediate u is cached for the backward pass.
    """
    u = x @ A.T
    return x @ W.T + scale * (u @ B.T), u
