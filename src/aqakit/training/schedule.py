"""Learning-rate schedule: linear warmup to the peak, then linear decay."""

from __future__ import annotations

WARMUP_FRACTION = 0.05  # share of a stage's steps spent ramping up to the peak


def warmup_steps(total_steps: int) -> int:
    """Warmup length clamped so both schedule segments are non-degenerate."""
    return min(max(1, round(WARMUP_FRACTION * total_steps)), total_steps - 1)


def lr_at(step: int, total_steps: int, peak: float) -> float:
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    if total_steps == 1:
        return peak
    w = warmup_steps(total_steps)
    if step <= w:
        return peak * step / w
    return peak * (total_steps - step) / (total_steps - w)
