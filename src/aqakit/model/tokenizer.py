"""Byte-level tokenizer: ids 0..255 are raw UTF-8 bytes, then four specials.

Dependency-free and deterministic; every string round-trips exactly.
"""

from __future__ import annotations

import numpy as np

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
SEP_ID = 259
VOCAB_SIZE = 260


def encode_text(text: str) -> list[int]:
    return list(text.encode("utf-8"))


def decode_ids(ids) -> str:
    payload = bytes(int(i) for i in ids if int(i) < 256)
    return payload.decode("utf-8", errors="replace")


def prompt_ids(question: str) -> list[int]:
    """Prompt layout the model answers after: [BOS] question [SEP]."""
    return [BOS_ID] + encode_text(question) + [SEP_ID]


def build_qa_ids(question: str, answer: str,
                 cutoff: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Token layout for one QA example: prompt_ids(question) answer [EOS].

    Returns (text_ids, loss_mask) where loss_mask marks the supervised
    positions: the answer bytes and the closing EOS. With a cutoff both
    arrays are truncated to that many tokens.
    """
    prompt = prompt_ids(question)
    a = encode_text(answer)
    ids = prompt + a + [EOS_ID]
    mask = [False] * len(prompt) + [True] * (len(a) + 1)
    if cutoff is not None:
        ids = ids[:cutoff]
        mask = mask[:cutoff]
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=bool)
