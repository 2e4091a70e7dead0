"""Text-LLM clients behind one tiny contract: complete(prompt) -> text.

RealLlmClient talks to a chat-completions style HTTP endpoint; the other two
run offline: SynthLlmClient answers every prompt family the pipeline sends,
ReplayLlmClient serves recorded replies. Both keep a .calls log so tests can
assert both what was asked and that nothing was asked twice.
"""

from __future__ import annotations

import json
import re
import time
from typing import Callable

from ..prompts import JUDGE_PROMPT
from ..remote import api_key, new_session, post_json
from .aig import AIG_PROMPT
from .features import FEATURE_PROMPT_PREFIX, FEATURE_PROMPT_SUFFIX


class RateLimiter:
    """Blocks so at most max_per_minute calls start in any 60 s window.

    Clock and sleep are injectable so tests never actually wait.
    """

    def __init__(self, max_per_minute: int,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if max_per_minute < 1:
            raise ValueError("max_per_minute must be >= 1")
        self.max_per_minute = max_per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: list[float] = []

    def wait(self) -> None:
        now = self._clock()
        self._stamps = [t for t in self._stamps if now - t < 60.0]
        if len(self._stamps) >= self.max_per_minute:
            self._sleep(60.0 - (now - self._stamps[0]))
            now = self._clock()
            self._stamps = [t for t in self._stamps if now - t < 60.0]
        self._stamps.append(now)


class RealLlmClient:
    """Chat-completions client: API key from the environment, at most
    MAX_PER_MINUTE requests a minute, and the retries of remote.post_json."""

    MAX_PER_MINUTE = 60

    def __init__(self, url: str, api_key_env: str = "LLM_API_KEY",
                 session=None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self._url = url
        self._key = api_key(api_key_env)
        if session is None:
            session = new_session()
        self._session = session
        self._sleep = sleep
        self._limiter = RateLimiter(self.MAX_PER_MINUTE, sleep=sleep)

    def complete(self, prompt: str) -> str:
        body = {"model": "",
                "messages": [{"role": "user", "content": prompt}]}
        return post_json(self._session, self._url, self._key, body,
                         parse=lambda r: r["choices"][0]["message"]["content"],
                         sleep=self._sleep, before_attempt=self._limiter.wait)


class ReplayLlmClient:
    """Serves recorded prompt -> response fixtures; no network."""

    def __init__(self, responses: dict[str, str],
                 fallback: Callable[[str], str] | None = None) -> None:
        self._responses = dict(responses)
        self._fallback = fallback
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if prompt in self._responses:
            return self._responses[prompt]
        if self._fallback is not None:
            return self._fallback(prompt)
        raise KeyError(f"no recorded response for prompt {prompt[:80]!r}...")


_EVENT_SEGMENT = re.compile(
    r"^Sound of (.+) \(([^()]*)\)(?:: \[[^\]]*\])?$")


def _parse_meta_tail(meta_text: str) -> tuple[list[tuple[str, str]], str]:
    """(label, feature) pairs and the caption from a serialized meta string."""
    events_part, _, caption = meta_text.partition(". Description: ")
    events_part = events_part.removeprefix("Sound Events: ")
    pairs = []
    for segment in events_part.split("; "):
        match = _EVENT_SEGMENT.match(segment.strip())
        if match:
            pairs.append((match.group(1), match.group(2)))
    return pairs, caption.strip()


class SynthLlmClient:
    """Offline stand-in for every prompt family the pipeline sends, with
    replies deterministic given the prompt sequence: the i-th feature prompt
    for a class gets "feature-{i} of {class}" (i from 1), a judge prompt gets
    "yes", and an open-ended QA prompt gets templated QA pairs, one JSON
    object per line, read from its meta block. Anything else: ValueError."""

    def __init__(self) -> None:
        self.calls: list[str] = []
        self._feature_counts: dict[str, int] = {}

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if (prompt.startswith(FEATURE_PROMPT_PREFIX)
                and prompt.endswith(FEATURE_PROMPT_SUFFIX)):
            cls = prompt.removeprefix(FEATURE_PROMPT_PREFIX)
            cls = cls.removesuffix(FEATURE_PROMPT_SUFFIX)
            i = self._feature_counts.get(cls, 0) + 1
            self._feature_counts[cls] = i
            return f"feature-{i} of {cls}"
        if prompt.startswith(JUDGE_PROMPT):
            return "yes"
        if not prompt.startswith(AIG_PROMPT):
            raise ValueError(f"no synthetic reply for prompt {prompt[:80]!r}")
        meta_text = prompt.split("\n\n")[-1]
        events, caption = _parse_meta_tail(meta_text)
        rows = []
        for label, feature in events:
            answer = f"The {label} sound is {feature[:1].lower()}{feature[1:]}."
            rows.append({"q": f"What does the {label} sound like in this "
                              "audio clip?",
                         "a": answer})
        if caption:
            rows.append({"q": "What scenario could this audio clip depict?",
                         "a": f"A scene where {caption[:1].lower()}{caption[1:]}"})
        if len(events) >= 2:
            label = events[0][0]
            rows.append({"q": f"What exact device produced the {label} "
                              "sound?",
                         "a": "It cannot be determined from the audio what "
                              f"exact device produced the {label} sound."})
        if not rows:
            rows.append({"q": "What can be heard in this audio clip?",
                         "a": "A sound is present, but its source is "
                              "unclear."})
        return "\n".join(json.dumps(r, ensure_ascii=False) for r in rows)
