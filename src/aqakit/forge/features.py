"""Acoustic-feature bank: ten short descriptions per sound class, collected
through an LLM client and cached on disk so reruns make zero calls."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from ..files import atomic_write, read_json, string_list

FEATURE_PROMPT_PREFIX = "describe the acoustic characteristic of "
FEATURE_PROMPT_SUFFIX = " sound precisely with a sentence less than 10 words"

DESCRIPTIONS_PER_CLASS = 10
MAX_FEATURE_WORDS = 10


def feature_prompt(class_name: str) -> str:
    return f"{FEATURE_PROMPT_PREFIX}{class_name}{FEATURE_PROMPT_SUFFIX}"


def load_feature_bank(path: str | Path) -> dict[str, list[str]]:
    bank = read_json(path)
    if not isinstance(bank, dict):
        raise ValueError(f"{path}: feature bank must be a JSON object")
    for label, features in bank.items():
        string_list(features, f"{path}: features of {label!r}")
    return bank


def save_feature_bank(path: str | Path, bank: dict[str, list[str]]) -> None:
    atomic_write(path, json.dumps(bank, ensure_ascii=False, indent=1,
                                  sort_keys=True) + "\n")


def gen_feature_bank(classes: list[str], client,
                     cache_path: str | Path | None = None,
                     ) -> dict[str, list[str]]:
    """Collect DESCRIPTIONS_PER_CLASS feature strings per class.

    Classes already complete in the cache are not re-requested. If the
    client keeps failing, the classes gathered so far are still returned
    (and cached); the missing ones are reported in a warning.
    """
    bank = (load_feature_bank(cache_path)
            if cache_path and Path(cache_path).exists() else {})
    bank = {c: v for c, v in bank.items()
            if len(v) == DESCRIPTIONS_PER_CLASS}
    missing = []
    for cls in classes:
        if cls in bank:
            continue
        descriptions = []
        try:
            for _ in range(DESCRIPTIONS_PER_CLASS):
                text = client.complete(feature_prompt(cls)).strip()
                if not text:
                    raise ValueError(f"empty feature description for {cls!r}")
                if len(text.split()) > MAX_FEATURE_WORDS:
                    warnings.warn(
                        f"feature for {cls!r} exceeds {MAX_FEATURE_WORDS} "
                        f"words: {text!r}")
                descriptions.append(text)
        except Exception as exc:  # partial progress is dropped, not cached
            missing.append(cls)
            warnings.warn(f"feature generation failed for {cls!r}: {exc}")
            continue
        bank[cls] = descriptions
    if missing:
        warnings.warn("feature bank incomplete, missing classes: "
                      + ", ".join(missing))
    if cache_path:
        save_feature_bank(cache_path, bank)
    return bank
