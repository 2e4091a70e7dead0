"""Rule-based closed-ended QA generators.

Four task families, each turning one AudioMeta into pairs whose answers are
fully determined by the meta (plus, for acoustic features, a feature bank):

  classification     name the distinct sound events
  acoustic_features  map a feature description to each event
  caption            repeat a reference caption
  temporal           timestamps of all events / one event / which comes first

Questions are drawn uniformly from a paraphrase set of DEFAULT_QUESTION_BANK
whose first entry is the canonical phrasing. Given the same meta, feature
bank, and rng seed the output is byte-for-byte reproducible: draws happen in
a fixed order (question first, then any per-event draws in event order).
"""

from __future__ import annotations

import numpy as np

from .meta import AudioMeta, SoundEvent, format_span
from .qa import QAPair


# paraphrase sets, canonical phrasing first; temporal_specific entries are
# str.format templates with a {label} slot
DEFAULT_QUESTION_BANK: dict[str, tuple[str, ...]] = {
    "classification": (
        "Classify the sound events in the audio clip.",
        "What sound events are present in the audio clip?",
        "Identify the sound events that occur in the audio clip.",
        "List all sound events heard in the audio clip.",
        "Which sounds can be recognized in the audio clip?",
        "Name the sound events contained in the audio clip.",
        "What sounds occur in this audio clip?",
        "Tell me the sound events that appear in the audio clip.",
    ),
    "acoustic_features": (
        "Classify the sound events in the audio clip based on acoustic features.",
        "Identify the sound events in the audio clip from their acoustic features.",
        "Based on the acoustic features, what sound events are in the audio clip?",
        "Describe the acoustic feature of each sound event in the audio clip.",
        "What acoustic characteristics identify the sounds in the audio clip?",
        "Recognize each sound event in the audio clip by its acoustic feature.",
        "Which sound events do the acoustic features in this clip point to?",
        "Classify each sound in the audio clip according to its acoustic feature.",
    ),
    "caption": (
        "Write an audio caption describing the sound.",
        "Describe the audio clip in one sentence.",
        "Summarize the content of the audio clip.",
        "Provide a caption for the audio clip.",
        "What is happening in this audio clip?",
        "Give a short description of the audio clip.",
        "Describe what you hear in the audio clip.",
        "Caption the sound in the audio clip.",
    ),
    "temporal_all": (
        "Classify the sound events in the audio clip, also output the "
        "timestamp of each audio event.",
        "List the sound events in the audio clip together with their timestamps.",
        "What sound events occur in the audio clip, and when?",
        "Identify each sound event in the audio clip and give its onset and "
        "offset times.",
        "Output every sound event in the audio clip with its time stamps.",
        "When does each sound event in the audio clip start and end?",
        "Give the timestamps of all sound events in the audio clip.",
        "Classify the sounds in the audio clip and report when each occurs.",
    ),
    "temporal_specific": (
        "What are the timestamps of the {label} sound in the audio clip?",
        "When does the {label} sound occur in the audio clip?",
        "At what time does the {label} sound appear in the audio clip?",
        "Give the onset and offset of the {label} sound.",
        "When can the {label} sound be heard in the audio clip?",
        "Output the timestamps of the {label} sound.",
        "During which time span does the {label} sound occur?",
        "Report when the {label} sound starts and ends in the audio clip.",
    ),
    "temporal_order": (
        "Which sound begins and ends first?",
        "Which sound event occurs first in the audio clip?",
        "What is the first sound event in the audio clip?",
        "Which sound starts earliest in the audio clip?",
        "Of all the sound events, which one comes first?",
        "Which sound event is heard first in the audio clip?",
        "What sound occurs at the beginning of the audio clip?",
        "Which sound event begins before all the others?",
    ),
}


def draw(family: str, rng) -> str:
    questions = DEFAULT_QUESTION_BANK[family]
    return questions[int(rng.integers(len(questions)))]


def _timed_order(events: list[SoundEvent]) -> list[SoundEvent]:
    return sorted(events, key=lambda e: (e.onset_s, e.label))


def gen_classification_qa(m: AudioMeta, bank: None, rng) -> QAPair:
    """Answer: "; "-joined distinct labels, onset order when every event is
    timed, insertion order otherwise. bank is unused: the question comes
    from DEFAULT_QUESTION_BANK."""
    if not m.events:
        raise ValueError(f"{m.audio_id}: no sound events to classify")
    question = draw("classification", rng)
    events = (_timed_order(m.events) if all(e.timed for e in m.events)
              else m.events)
    labels: list[str] = []
    for ev in events:
        if ev.label not in labels:
            labels.append(ev.label)
    return QAPair(audio_id=m.audio_id, question=question,
                  answer="; ".join(labels), task="classification")


def gen_acoustic_feature_qa(m: AudioMeta, rng, *,
                            feature_bank: dict[str, list[str]] | None = None,
                            ) -> QAPair:
    """Answer: "feature → label" segments joined by "; " in event order.

    When a feature bank covers the event's label, the description is drawn
    from it (uniformly); otherwise the event's own feature string is used.
    """
    if not m.events:
        raise ValueError(f"{m.audio_id}: no sound events")
    question = draw("acoustic_features", rng)
    segments = []
    for ev in m.events:
        if feature_bank and ev.label in feature_bank:
            choices = feature_bank[ev.label]
            feature = choices[int(rng.integers(len(choices)))]
        else:
            feature = ev.feature
        if not feature:
            raise ValueError(
                f"{m.audio_id}: event {ev.label!r} has no acoustic feature")
        segments.append(f"{feature} → {ev.label}")
    return QAPair(audio_id=m.audio_id, question=question,
                  answer="; ".join(segments), task="acoustic_features")


def gen_caption_qa(m: AudioMeta, rng) -> list[QAPair]:
    """One pair per reference caption; answers are the captions verbatim
    apart from surrounding-whitespace trimming."""
    captions = [c.strip() for c in m.captions() if c.strip()]
    if not captions:
        raise ValueError(f"{m.audio_id}: no caption")
    return [QAPair(audio_id=m.audio_id, question=draw("caption", rng),
                   answer=cap, task="caption")
            for cap in captions]


def gen_temporal_qa(m: AudioMeta, rng) -> list[QAPair]:
    """Three question families over timestamped events.

    all-timestamps  every event as "Label: [on s-off s]", onset order
    specific-sound  spans of one uniformly chosen event's label
    order           the event that is first by (onset, offset, label);
                    emitted only when there are at least two events
    """
    if not m.events:
        raise ValueError(f"{m.audio_id}: no sound events")
    for ev in m.events:
        if not ev.timed:
            raise ValueError(
                f"{m.audio_id}: event {ev.label!r} has no timestamps")
    ordered = _timed_order(m.events)

    def span_line(ev: SoundEvent) -> str:
        return f"{ev.label}: {format_span(ev.onset_s, ev.offset_s)}"

    pairs = [QAPair(audio_id=m.audio_id,
                    question=draw("temporal_all", rng),
                    answer="; ".join(span_line(e) for e in ordered),
                    task="temporal")]

    template = draw("temporal_specific", rng)
    chosen = m.events[int(rng.integers(len(m.events)))]
    matching = [e for e in ordered if e.label == chosen.label]
    pairs.append(QAPair(audio_id=m.audio_id,
                        question=template.format(label=chosen.label),
                        answer="; ".join(span_line(e) for e in matching),
                        task="temporal"))

    if len(m.events) >= 2:
        first = min(m.events, key=lambda e: (e.onset_s, e.offset_s, e.label))
        pairs.append(QAPair(audio_id=m.audio_id,
                            question=draw("temporal_order", rng),
                            answer=first.label, task="temporal"))
    return pairs


def gen_closed_qa(m: AudioMeta, rng, *,
                  feature_bank: dict[str, list[str]] | None = None,
                  ) -> list[QAPair]:
    """All four families for one clip, drawing from rng in a fixed order:
    classification, acoustic features, captions, temporal. A clip without
    acoustic features for some event yields no acoustic_features pair."""
    pairs = [gen_classification_qa(m, None, rng)]
    try:
        pairs.append(
            gen_acoustic_feature_qa(m, rng, feature_bank=feature_bank))
    except ValueError:
        pass
    pairs.extend(gen_caption_qa(m, rng))
    pairs.extend(gen_temporal_qa(m, rng))
    return pairs


def gen_closed_manifest(metas: list[AudioMeta], seed: int, *,
                        feature_bank: dict[str, list[str]] | None = None,
                        ) -> list[QAPair]:
    """gen_closed_qa over every clip in order; clip i draws from its own
    default_rng([seed, i]), so its pairs do not depend on the other clips."""
    pairs = []
    for i, meta in enumerate(metas):
        pairs.extend(gen_closed_qa(meta, np.random.default_rng([seed, i]),
                                   feature_bank=feature_bank))
    return pairs
