"""Audio metadata records and their serialized text form.

The serialized string is what the open-ended generation prompt appends, so
its format is frozen: "Sound Events: " then "; "-joined
"Sound of {label} ({feature}): [{onset}s-{offset}s]" segments, then
". Description: {caption}" when a caption exists. Timestamps print with one
decimal place; the timestamp clause is omitted for weak labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..files import read_jsonl, string_list, write_jsonl


@dataclass
class SoundEvent:
    label: str
    feature: str = ""
    onset_s: float | None = None
    offset_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("label", "feature"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string: "
                                f"{getattr(self, name)!r}")
        for t in (self.onset_s, self.offset_s):
            if t is not None and (isinstance(t, bool) or not isinstance(
                    t, (int, float)) or not math.isfinite(t)):
                raise TypeError(f"timestamps must be finite numbers: {t!r}")
        if (self.onset_s is None) != (self.offset_s is None):
            raise ValueError("onset and offset must be given together")
        if self.onset_s is not None:
            if self.onset_s < 0 or self.onset_s >= self.offset_s:
                raise ValueError(
                    f"need 0 <= onset < offset, got [{self.onset_s}, {self.offset_s}]")

    @property
    def timed(self) -> bool:
        return self.onset_s is not None


@dataclass
class AudioMeta:
    audio_id: str
    events: list[SoundEvent] = field(default_factory=list)
    caption: str | list[str] | None = None
    source: str = ""

    def __post_init__(self) -> None:
        for name in ("audio_id", "source"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string: "
                                f"{getattr(self, name)!r}")
        if not (self.caption is None or isinstance(self.caption, str)):
            string_list(self.caption, "caption")
        if not self.events and not self.caption:
            raise ValueError(f"{self.audio_id}: need events or a caption")

    def captions(self) -> list[str]:
        if self.caption is None:
            return []
        if isinstance(self.caption, str):
            return [self.caption]
        return list(self.caption)


def format_span(onset_s: float, offset_s: float) -> str:
    return f"[{onset_s:.1f}s-{offset_s:.1f}s]"


def serialize_meta(m: AudioMeta) -> str:
    segments = []
    for ev in m.events:
        seg = f"Sound of {ev.label} ({ev.feature})"
        if ev.timed:
            seg += f": {format_span(ev.onset_s, ev.offset_s)}"
        segments.append(seg)
    out = "Sound Events: " + "; ".join(segments)
    caps = m.captions()
    if caps:
        out += f". Description: {caps[0]}"
    return out


# -- JSONL persistence -------------------------------------------------------

def meta_to_dict(m: AudioMeta) -> dict:
    d: dict = {"audio_id": m.audio_id}
    d["events"] = [
        {k: v for k, v in (("label", e.label), ("feature", e.feature),
                           ("onset_s", e.onset_s), ("offset_s", e.offset_s))
         if v is not None}
        for e in m.events
    ]
    if m.caption is not None:
        d["caption"] = m.caption
    if m.source:
        d["source"] = m.source
    return d


def meta_from_dict(d: dict) -> AudioMeta:
    if not isinstance(d.get("events", []), list):
        raise TypeError(f"events must be a list: {d['events']!r}")
    events = [SoundEvent(label=e["label"], feature=e.get("feature", ""),
                         onset_s=e.get("onset_s"), offset_s=e.get("offset_s"))
              for e in d.get("events", [])]
    return AudioMeta(audio_id=d["audio_id"], events=events,
                     caption=d.get("caption"), source=d.get("source", ""))


def read_meta_jsonl(path: str | Path) -> list[AudioMeta]:
    return read_jsonl(path, meta_from_dict)


def write_meta_jsonl(path: str | Path, metas: list[AudioMeta]) -> None:
    write_jsonl(path, (meta_to_dict(m) for m in metas))
