"""The training objective: masked next-token cross-entropy, the paper's
autoregressive loss and the only one the curriculum trains with."""

from __future__ import annotations

import numpy as np


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def next_token_loss(logits: np.ndarray, targets: np.ndarray,
                    mask: np.ndarray) -> float:
    """Mean negative log-likelihood of targets at masked-in positions."""
    return masked_nll_and_dlogits(logits, targets, mask)[0]


def masked_nll_and_dlogits(logits: np.ndarray, targets: np.ndarray,
                           mask: np.ndarray) -> tuple[float, np.ndarray]:
    """next_token_loss plus its gradient w.r.t. the logits (zero on the
    masked-out rows)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape[0] != targets.size or targets.size != mask.size:
        raise ValueError("logits, targets and mask lengths must agree")
    if not mask.any():
        raise ValueError("empty loss mask")
    logp = _log_softmax_rows(logits[mask])
    rows, picked = np.arange(logp.shape[0]), targets[mask]
    loss = float(-logp[rows, picked].mean())
    probs = np.exp(logp)
    probs[rows, picked] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[mask] = probs / rows.size
    return loss, dlogits

