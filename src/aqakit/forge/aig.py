"""Open-ended QA generation: the instruction prompt sent to a text LLM and
the parser for what comes back.

The prompt text is frozen; tests compare it byte-for-byte against a golden
fixture. Do not reflow or "fix" its wording.
"""

from __future__ import annotations

import json
import math
import warnings

from .meta import AudioMeta, serialize_meta
from .qa import QAPair

AIG_PROMPT = (
    "Based on the following audio clip, generate 10 different types of "
    "complex open-ended questions that require step-by-step thinking, and "
    "corresponding step-by-step answers.\n"
    "The following information is provided: the sound events appear in the "
    "audio clip, together with its acoustic features, and corresponding "
    "onset and offset time stamps. A description of the content of the "
    "audio clip is also provided.\n"
    "Questions should be about the audio, e.g., which sound event is "
    "recognized and why (e.g., based on its acoustic feature), what can be "
    "inferred based on the combination of sound events; the temporal "
    "relationship between the sound events and what can be inferred from "
    "that; the potential scenario that such an audio clip could happen, if "
    "the audio clip is special (e.g., urgent, funny, interesting, abnormal, "
    "unique, etc) and why, what mood or atmosphere this audio clip conveys, "
    "etc.\n"
    "The more complex and diverse the question, the better.\n"
    'Format each QA pair in a single line as a JSON dictionary (key "q" for '
    'question, and "a" for answer, wrapped with { and }). Do not include '
    "any other explanation."
)

DEFAULT_UNANSWERABLE_PATTERNS = (
    "cannot be determined from the audio",
    "not provide enough information",
    "impossible to tell from the audio",
)


def build_aig_prompt(m: AudioMeta) -> str:
    return AIG_PROMPT + "\n\n" + serialize_meta(m)


def detect_unanswerable(answer: str) -> bool:
    lowered = answer.lower()
    return any(p.lower() in lowered for p in DEFAULT_UNANSWERABLE_PATTERNS)


def _strip_code_fences(text: str) -> str:
    stripped = text.strip()
    if not stripped.startswith("```"):
        return stripped
    lines = stripped.splitlines()
    if lines and lines[-1].strip() == "```":
        lines = lines[1:-1]  # drop the fence lines, keep the body
    else:
        lines = lines[1:]
    return "\n".join(lines).strip()


def _objects_from_text(text: str) -> list:
    """The response is either one JSON array/object or one object per line."""
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, list):
        return whole
    if isinstance(whole, dict):
        return [whole]
    objects = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"unparseable response line: {line!r}") from exc
    if not objects:
        raise ValueError(f"unparseable response: {text[:200]!r}")
    return objects


def open_ended_quota(m: AudioMeta) -> int:
    """How many open-ended pairs to request for one audio.

    Richer meta earns a larger quota: 10 for label-only metas, 15 when a
    caption is present, 20 when events carry timestamps.
    """
    if any(ev.timed for ev in m.events):
        richness = 2.0
    elif m.captions():
        richness = 1.5
    else:
        richness = 1.0
    return math.ceil(10 * richness)


def gen_open_ended_qa(m: AudioMeta, client) -> list[QAPair]:
    """Prompt the client (each call yields up to ~10 pairs) until the
    meta's quota is met or a call adds nothing new; duplicates within one
    audio are dropped. Returns at most the quota, possibly fewer."""
    prompt = build_aig_prompt(m)
    quota = open_ended_quota(m)
    pairs: list[QAPair] = []
    seen: set[tuple[str, str]] = set()
    for _ in range(math.ceil(quota / 10)):
        grew = False
        for p in parse_aig_response(client.complete(prompt), m.audio_id):
            key = (p.question, p.answer)
            if key not in seen:
                seen.add(key)
                pairs.append(p)
                grew = True
        if not grew or len(pairs) >= quota:
            break
    return pairs[:quota]


def parse_aig_response(text: str, audio_id: str = "") -> list[QAPair]:
    """Turn an LLM response into open-ended QAPairs.

    Objects without usable "q" and "a" strings are skipped, one warning
    each; text that is not JSON at all raises with the offending span.
    """
    pairs = []
    for index, obj in enumerate(_objects_from_text(_strip_code_fences(text))):
        if not isinstance(obj, dict):
            warnings.warn(f"response item {index} is not an object, skipped")
            continue
        question = obj.get("q")
        answer = obj.get("a")
        if not (isinstance(question, str) and question.strip()
                and isinstance(answer, str) and answer.strip()):
            warnings.warn(f'response item {index} lacks "q"/"a", skipped')
            continue
        answer = answer.strip()
        pairs.append(QAPair(audio_id=audio_id, question=question.strip(),
                            answer=answer, task="open_ended",
                            unanswerable=detect_unanswerable(answer)))
    return pairs
