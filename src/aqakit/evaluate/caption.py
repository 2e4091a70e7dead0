"""Token-overlap caption scoring (surrogate for learned caption metrics)."""

from __future__ import annotations

from collections import Counter

from .providers import _tokens


def caption_overlap_f1(prediction: str, references: list[str]) -> float:
    """Max over references of the token-multiset F1.

    Tokens are lowercased with punctuation stripped. An empty prediction
    scores 0.0; at least one reference is required.
    """
    if not references:
        raise ValueError("at least one reference is required")
    pred = Counter(_tokens(prediction))
    n_pred = sum(pred.values())
    if n_pred == 0:
        return 0.0
    best = 0.0
    for ref_text in references:
        ref = Counter(_tokens(ref_text))
        n_ref = sum(ref.values())
        if n_ref == 0:
            continue
        overlap = sum(min(c, ref[t]) for t, c in pred.items() if t in ref)
        if overlap == 0:
            continue
        p = overlap / n_pred
        r = overlap / n_ref
        best = max(best, 2 * p * r / (p + r))
    return best
