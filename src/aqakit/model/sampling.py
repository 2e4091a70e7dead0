"""Decoding loop: repetition penalty, then temperature, then top-p nucleus
truncation, then one renormalized draw per step. The recipe is the paper's
and fixed (``GenerationConfig``); its top-k of 500 has no step, since a
500-id cut keeps all 260 ids of the byte vocabulary (``VOCAB_SIZE``).

Many sampled tokens have a one-id nucleus: the most probable id alone
holds the top-p mass. When its probability p satisfies p - 2**-51 >= top_p
in float64, truncated_distribution returns that id with probability 1.0
without ranking the vocabulary, and sample_next_id draws its uniform and
returns the id without building a cdf. This is bit for bit the full path:
there every entry of cumsum(ranked) - ranked after the first is, before
its own rounding, at least p - 2**-53 (the running sum already holds p,
and rounding a sum below 2 loses at most 2**-53 of it). The margin keeps
p - 2**-53 above top_p despite the check's own rounding, so rounding the
entry cannot take it below top_p either: the full path's nucleus is that
one id too."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .tokenizer import EOS_ID


@dataclass
class GenerationConfig:
    temperature: float = 0.1
    max_new_tokens: int = 64
    seed: int = 0
    # the paper's nucleus mass and repetition penalty; fixed, not settable
    top_p: float = field(default=0.95, init=False)
    repetition_penalty: float = field(default=1.1, init=False)

    def __post_init__(self) -> None:
        for name, least in (("max_new_tokens", 1), ("seed", 0)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)}") from None
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            setattr(self, name, value)
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0 (0 means greedy), "
                             f"got {self.temperature}")


def apply_repetition_penalty(logits: np.ndarray, emitted_ids,
                             penalty: float) -> np.ndarray:
    """Discourage re-emission: divide positive logits of already-emitted ids
    by the penalty, multiply negative ones; an out-of-range id raises ValueError."""
    out = np.array(logits, dtype=np.float64)
    for tid in set(map(int, emitted_ids)):
        if not 0 <= tid < out.size:
            raise ValueError(f"emitted id {tid} is outside the vocabulary (vocab_size {out.size})")
        v = out[tid]
        out[tid] = v / penalty if v > 0 else v * penalty
    return out


def truncated_distribution(logits: np.ndarray,
                           cfg: GenerationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Temperature, then top-p, then renormalize.

    Returns (kept ids, their renormalized probabilities), highest
    probability first; a one-id nucleus (see the module docstring) is
    returned without ranking the ids. Assumes the repetition penalty was
    already applied. NaN logits, or logits / temperature that overflow,
    raise ValueError.
    """
    if cfg.temperature == 0.0:
        raise ValueError("no sampling distribution at temperature 0 (greedy)")
    logits = np.asarray(logits, dtype=np.float64)
    top = float(logits.max()) / cfg.temperature  # checked before the array can overflow
    if not math.isfinite(top):
        raise ValueError("logits contain NaN" if math.isnan(top) else
                         f"logits / temperature are infinite at temperature {cfg.temperature}")
    probs = np.exp(logits / cfg.temperature - top)
    probs /= probs.sum()
    best = int(probs.argmax())
    if probs[best] - 2**-51 >= cfg.top_p:
        return np.array([best]), np.array([1.0])

    order = np.argsort(-probs, kind="stable")
    ranked = probs[order]
    # nucleus: minimal prefix whose cumulative mass reaches top_p
    kept = order[np.cumsum(ranked) - ranked < cfg.top_p]
    kept_probs = probs[kept]
    return kept, kept_probs / kept_probs.sum()


def sample_next_id(logits: np.ndarray, emitted_ids, cfg: GenerationConfig,
                   rng: np.random.Generator) -> int:
    logits = apply_repetition_penalty(logits, emitted_ids, cfg.repetition_penalty)
    if cfg.temperature == 0.0:
        best = int(np.argmax(logits))
        # argmax stops at the first NaN, so a NaN anywhere is the one chosen
        if math.isnan(logits[best]):
            raise ValueError("logits contain NaN")
        return best
    kept, kept_probs = truncated_distribution(logits, cfg)
    # rng.choice(kept, p=kept_probs)'s own draw, without its checks of p;
    # a one-id nucleus still takes its uniform
    u = rng.random()
    if kept.size == 1:
        return int(kept[0])
    cdf = np.cumsum(kept_probs)
    cdf /= cdf[-1]
    return int(kept[cdf.searchsorted(u, side="right")])


def generate(model, audio, prompt_ids, cfg: GenerationConfig) -> np.ndarray:
    """Autoregressive decoding after the prompt; stops at EOS or the token
    budget. Returns only the newly generated ids.

    The clip and the prompt run once through ``model.prefill``, which
    returns the next-token logits of the prompt's last row only: its last
    layer's queries, attention and MLP, the final norm and the head run on
    that row alone. Each later token is one ``model.step`` over the cached
    keys and values. Neither builds backward intermediates. Running
    past the model's context raises ValueError("sequence length N exceeds
    max M") at the token where a full-recompute forward over the whole
    sequence would: the budget is not checked up front, since decoding may
    reach EOS first, and no partial answer is returned.
    """
    rng = np.random.default_rng(cfg.seed)
    prompt = [int(t) for t in prompt_ids]
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    logits, kv = model.prefill(audio, np.array(prompt, dtype=np.int64))
    generated: list[int] = []
    while True:
        generated.append(sample_next_id(logits, generated, cfg, rng))
        if generated[-1] == EOS_ID or len(generated) == cfg.max_new_tokens:
            return np.array(generated, dtype=np.int64)
        logits = model.step(kv, generated[-1])
