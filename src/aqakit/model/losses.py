"""Training objectives: masked next-token cross-entropy and the audio/text
embedding alignment pair (contrastive + squared-difference)."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class AlignmentBatch:
    """Paired audio/text embeddings for the alignment objective."""

    e_a: np.ndarray
    e_t: np.ndarray
    lam: float = 10.0
    tau: float = 0.05

    def __post_init__(self) -> None:
        self.e_a = np.asarray(self.e_a, dtype=np.float64)
        self.e_t = np.asarray(self.e_t, dtype=np.float64)
        if self.e_a.shape != self.e_t.shape:
            raise ValueError("audio and text embedding batches must align")
        if self.e_a.ndim != 2:
            raise ValueError("embeddings must be a batch of vectors")

    @property
    def n(self) -> int:
        return self.e_a.shape[0]


def alignment_losses(b: AlignmentBatch) -> tuple[float, float, float]:
    """Returns (L, L_c, L_mse) with L = L_c + lam * L_mse.

    L_mse is the mean squared elementwise difference of the raw embeddings.
    L_c is the contrastive term over L2-normalized embeddings: each audio
    row must pick out its own text row among the batch at temperature tau.
    """
    if b.n < 2:
        raise ValueError("contrastive term needs a batch of at least 2")
    l_mse = float(np.mean((b.e_a - b.e_t) ** 2))

    norms_a = np.linalg.norm(b.e_a, axis=1)
    norms_t = np.linalg.norm(b.e_t, axis=1)
    if np.any(norms_a == 0) or np.any(norms_t == 0):
        raise ValueError("zero-norm embedding in contrastive term")
    na = b.e_a / norms_a[:, None]
    nt = b.e_t / norms_t[:, None]
    sims = na @ nt.T / b.tau
    m = sims.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(sims - m).sum(axis=1, keepdims=True))).ravel()
    l_c = float(np.mean(lse - np.diag(sims)))
    return l_c + b.lam * l_mse, l_c, l_mse
