"""Class-balanced audio selection.

Every class k gets weight 1/count_k, every audio the sum of its class
weights, and the top-n audios by weight are kept. Weights are exact
rationals so ties are decided by the tie-break rule, never by float fuzz.
"""

from __future__ import annotations

from fractions import Fraction


def sample_audioset(label_counts: dict[str, int],
                    labels_of: dict[str, list[str]], n: int) -> list[str]:
    """The n audio ids with the largest weights, ties by ascending id."""
    if not 1 <= n <= len(labels_of):
        raise ValueError(f"asked for {n} audios, can pick 1 to {len(labels_of)}")
    for cls, count in label_counts.items():
        if count < 1:
            raise ValueError(f"class {cls!r} has non-positive count {count}")
    class_weights = {cls: Fraction(1, count)
                     for cls, count in label_counts.items()}
    audio_weights: dict[str, Fraction] = {}
    for audio_id, classes in labels_of.items():
        total = Fraction(0)
        for cls in classes:
            if cls not in class_weights:
                raise ValueError(
                    f"audio {audio_id!r} has unknown class {cls!r}")
            total += class_weights[cls]
        audio_weights[audio_id] = total
    ranked = sorted(audio_weights.items(),
                    key=lambda item: (-item[1], item[0]))
    return [audio_id for audio_id, _ in ranked[:n]]
