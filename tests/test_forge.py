"""Dataset generation: meta serialization, closed-ended generators, and the
open-ended prompt/parse pipeline.

The long literals below are frozen oracles; the generators must reproduce
them byte for byte.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from aqakit.forge import (
    AIG_PROMPT,
    AudioMeta,
    DEFAULT_QUESTION_BANK,
    QAPair,
    SoundEvent,
    TASK_KINDS,
    build_aig_prompt,
    detect_unanswerable,
    format_span,
    gen_acoustic_feature_qa,
    gen_caption_qa,
    gen_classification_qa,
    gen_open_ended_qa,
    gen_temporal_qa,
    meta_to_dict,
    open_ended_quota,
    parse_aig_response,
    qa_from_dict,
    qa_to_dict,
    read_manifest,
    read_meta_jsonl,
    serialize_meta,
    validate_manifest,
    write_manifest,
    write_meta_jsonl,
)
from aqakit.forge.llm import ReplayLlmClient

FIXTURES = Path(__file__).parent / "fixtures"

AMBULANCE_CAPTION = ("An ambulance siren echoes while traffic noise fades, "
                     "and an engine revs.")

AMBULANCE_META_STRING = (
    "Sound Events: "
    "Sound of Ambulance (siren) (High-pitched and wailing): [0.0s-1.0s]; "
    "Sound of Traffic noise, roadway noise (Droning, loud and intrusive): "
    "[0.0s-10.0s]; "
    "Sound of Accelerating, revving, vroom (High-pitched, short and intense): "
    "[2.0s-10.0s]; "
    "Sound of Generic impact sounds (Loud and sharp): [6.7s-6.8s]. "
    "Description: " + AMBULANCE_CAPTION
)

CLASSIFICATION_ANSWER = ("Ambulance (siren); Traffic noise, roadway noise; "
                         "Accelerating, revving, vroom; Generic impact sounds")

ACOUSTIC_ANSWER = (
    "High-pitched, rapidly changing frequency → Ambulance (siren); "
    "Droning, loud and intrusive → Traffic noise, roadway noise; "
    "High pitched and loud → Accelerating, revving, vroom; "
    "Sharp and punchy → Generic impact sounds"
)

# feature wordings in the acoustic answer differ from the meta's: they are
# independent draws from the per-class description bank
ACOUSTIC_ANSWER_FEATURES = {
    "Ambulance (siren)": "High-pitched, rapidly changing frequency",
    "Traffic noise, roadway noise": "Droning, loud and intrusive",
    "Accelerating, revving, vroom": "High pitched and loud",
    "Generic impact sounds": "Sharp and punchy",
}

TEMPORAL_ANSWER = (
    "Ambulance (siren): [0.0s-1.0s]; "
    "Traffic noise, roadway noise: [0.0s-10.0s]; "
    "Accelerating, revving, vroom: [2.0s-10.0s]; "
    "Generic impact sounds: [6.7s-6.8s]"
)


def ambulance_meta() -> AudioMeta:
    return AudioMeta(
        audio_id="amb01",
        events=[
            SoundEvent("Ambulance (siren)", "High-pitched and wailing",
                       0.0, 1.0),
            SoundEvent("Traffic noise, roadway noise",
                       "Droning, loud and intrusive", 0.0, 10.0),
            SoundEvent("Accelerating, revving, vroom",
                       "High-pitched, short and intense", 2.0, 10.0),
            SoundEvent("Generic impact sounds", "Loud and sharp", 6.7, 6.8),
        ],
        caption=AMBULANCE_CAPTION,
    )


# -- meta types and serialization ---------------------------------------------

def test_sound_event_validation():
    with pytest.raises(ValueError):
        SoundEvent("Dog", onset_s=1.0)
    with pytest.raises(ValueError):
        SoundEvent("Dog", onset_s=2.0, offset_s=1.0)
    with pytest.raises(ValueError):
        SoundEvent("Dog", onset_s=-0.5, offset_s=1.0)
    assert not SoundEvent("Dog").timed
    assert SoundEvent("Dog", onset_s=0.0, offset_s=1.0).timed


def test_audio_meta_needs_events_or_caption():
    with pytest.raises(ValueError):
        AudioMeta(audio_id="x", events=[], caption=None)
    assert AudioMeta(audio_id="x", caption="rain").captions() == ["rain"]
    multi = AudioMeta(audio_id="x", caption=["a", "b"])
    assert multi.captions() == ["a", "b"]


def test_format_span():
    assert format_span(6.7, 6.8) == "[6.7s-6.8s]"
    assert format_span(0.0, 10.0) == "[0.0s-10.0s]"


def test_serialize_meta_golden():
    assert serialize_meta(ambulance_meta()) == AMBULANCE_META_STRING


def test_serialize_meta_no_caption_ends_after_events():
    m = AudioMeta(audio_id="x",
                  events=[SoundEvent("Dog", "Barking", 0.0, 1.0)])
    assert serialize_meta(m) == "Sound Events: Sound of Dog (Barking): [0.0s-1.0s]"


def test_serialize_meta_weak_labels_omit_spans():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Dog", "Barking"),
                                        SoundEvent("Rain", "Steady")])
    assert serialize_meta(m) == ("Sound Events: Sound of Dog (Barking); "
                                 "Sound of Rain (Steady)")


def test_meta_jsonl_roundtrip(tmp_path):
    metas = [ambulance_meta(),
             AudioMeta(audio_id="w1", events=[SoundEvent("Rain", "Steady")]),
             AudioMeta(audio_id="c1", caption=["one", "two"])]
    path = tmp_path / "meta.jsonl"
    write_meta_jsonl(path, metas)
    loaded = read_meta_jsonl(path)
    assert [meta_to_dict(m) for m in loaded] == [meta_to_dict(m) for m in metas]


def test_meta_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "meta.jsonl"
    path.write_text('{"audio_id": "a", "caption": "x"}\nnot json\n')
    with pytest.raises(ValueError, match=":2:"):
        read_meta_jsonl(path)


# -- QAPair and manifests -----------------------------------------------------

def test_qa_pair_validation():
    with pytest.raises(ValueError):
        QAPair("a", "q", "ans", task="riddle")
    with pytest.raises(ValueError):
        QAPair("a", "q", "", task="caption")


def test_qa_pair_closedness_follows_its_task():
    assert [QAPair("a", "q", "ans", task=t).closed for t in TASK_KINDS] == \
        [t != "open_ended" for t in TASK_KINDS]
    with pytest.raises(TypeError, match="closed"):
        QAPair("a", "q", "ans", task="caption", closed=True)


@pytest.mark.parametrize("task, closed", [("caption", False), ("open_ended", True)])
def test_manifest_row_whose_closed_flag_disagrees_with_its_task_fails(
        tmp_path, task, closed):
    row = {"audio_id": "a", "question": "q", "answer": "ans", "task": task,
           "closed": closed}
    message = "closed flag must mirror task != open_ended"
    with pytest.raises(ValueError, match=message):
        qa_from_dict(row)
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(row) + "\n")
    assert validate_manifest(path) == [(1, message)]


def test_manifest_roundtrip(tmp_path):
    pairs = [QAPair("a1", "q1", "ans1", task="classification"),
             QAPair("a2", "q2", "ans2", task="open_ended", unanswerable=True)]
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, pairs)
    assert [qa_to_dict(p) for p in read_manifest(path)] == \
        [qa_to_dict(p) for p in pairs]
    assert validate_manifest(path) == []


def test_validate_manifest_reports_planted_errors(tmp_path):
    rows = [
        json.dumps(qa_to_dict(QAPair("a", "q", "ans", task="caption"))),
        "{broken",
        '{"audio_id": "a", "question": "q"}',
        json.dumps({"audio_id": "a", "question": "q", "answer": "ans",
                    "task": "caption", "closed": False}),
        '"just a string"',
    ]
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(rows) + "\n")
    problems = validate_manifest(path)
    assert [line for line, _ in problems] == [2, 3, 4, 5]


# -- closed-ended generators --------------------------------------------------

def test_classification_golden_answer():
    qa = gen_classification_qa(ambulance_meta(), None, np.random.default_rng(0))
    assert qa.answer == CLASSIFICATION_ANSWER
    assert qa.task == "classification" and qa.closed
    assert qa.question in DEFAULT_QUESTION_BANK["classification"]
    assert qa.audio_id == "amb01"


def test_classification_orders_by_onset_and_dedups():
    m = AudioMeta(audio_id="x", events=[
        SoundEvent("Wind", "Howling", 3.0, 4.0),
        SoundEvent("Hail", "Clattering", 1.0, 2.0),
        SoundEvent("Wind", "Howling", 5.0, 6.0),
    ])
    qa = gen_classification_qa(m, None, np.random.default_rng(0))
    assert qa.answer == "Hail; Wind"


def test_classification_untimed_keeps_insertion_order():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Wind", "Howling"),
                                        SoundEvent("Hail", "Clattering")])
    qa = gen_classification_qa(m, None, np.random.default_rng(0))
    assert qa.answer == "Wind; Hail"


def test_classification_single_event():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Speech", "Clear")])
    qa = gen_classification_qa(m, None, np.random.default_rng(0))
    assert qa.answer == "Speech"


def test_classification_rejects_eventless_meta():
    m = AudioMeta(audio_id="x", caption="just a caption")
    with pytest.raises(ValueError):
        gen_classification_qa(m, None, np.random.default_rng(0))


def test_question_draw_covers_bank_including_base():
    seen = set()
    for seed in range(200):
        qa = gen_classification_qa(ambulance_meta(), None,
                                   np.random.default_rng(seed))
        seen.add(qa.question)
    assert DEFAULT_QUESTION_BANK["classification"][0] in seen
    assert len(seen) > 1


def test_acoustic_golden_answer_via_feature_bank():
    bank = {label: [feat] * 10
            for label, feat in ACOUSTIC_ANSWER_FEATURES.items()}
    qa = gen_acoustic_feature_qa(ambulance_meta(), np.random.default_rng(1),
                                 feature_bank=bank)
    assert qa.answer == ACOUSTIC_ANSWER
    assert qa.task == "acoustic_features" and qa.closed
    assert qa.question in DEFAULT_QUESTION_BANK["acoustic_features"]


def test_acoustic_uses_event_features_without_bank():
    qa = gen_acoustic_feature_qa(ambulance_meta(), np.random.default_rng(0))
    assert qa.answer.startswith(
        "High-pitched and wailing → Ambulance (siren); ")
    assert qa.answer.count("→") == 4


def test_acoustic_single_event_has_no_separator():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady")])
    qa = gen_acoustic_feature_qa(m, np.random.default_rng(0))
    assert qa.answer == "Steady → Rain"
    assert "; " not in qa.answer


def test_acoustic_identical_features_emitted_twice():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady"),
                                        SoundEvent("Stream", "Steady")])
    qa = gen_acoustic_feature_qa(m, np.random.default_rng(0))
    assert qa.answer == "Steady → Rain; Steady → Stream"


def test_acoustic_missing_feature_rejected():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain")])
    with pytest.raises(ValueError):
        gen_acoustic_feature_qa(m, np.random.default_rng(0))


def test_caption_golden_answer():
    pairs = gen_caption_qa(ambulance_meta(), np.random.default_rng(0))
    assert len(pairs) == 1
    assert pairs[0].answer == AMBULANCE_CAPTION
    assert pairs[0].task == "caption" and pairs[0].closed
    assert pairs[0].question in DEFAULT_QUESTION_BANK["caption"]


def test_caption_trims_whitespace():
    m = AudioMeta(audio_id="x", caption="  a dog barks \n")
    pairs = gen_caption_qa(m, np.random.default_rng(0))
    assert pairs[0].answer == "a dog barks"


def test_caption_one_pair_per_reference():
    m = AudioMeta(audio_id="x", caption=["one", "two", "three"])
    pairs = gen_caption_qa(m, np.random.default_rng(0))
    assert [p.answer for p in pairs] == ["one", "two", "three"]


def test_caption_missing_rejected():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady")])
    with pytest.raises(ValueError):
        gen_caption_qa(m, np.random.default_rng(0))


def test_temporal_golden_all_timestamps_answer():
    pairs = gen_temporal_qa(ambulance_meta(), np.random.default_rng(0))
    assert pairs[0].answer == TEMPORAL_ANSWER
    assert pairs[0].question in DEFAULT_QUESTION_BANK["temporal_all"]
    assert all(p.task == "temporal" and p.closed for p in pairs)


def test_temporal_emits_three_families():
    pairs = gen_temporal_qa(ambulance_meta(), np.random.default_rng(0))
    assert len(pairs) == 3


def test_temporal_single_event_omits_order_question():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady", 0.0, 9.5)])
    pairs = gen_temporal_qa(m, np.random.default_rng(0))
    assert len(pairs) == 2
    assert pairs[0].answer == "Rain: [0.0s-9.5s]"
    assert pairs[1].answer == "Rain: [0.0s-9.5s]"


def test_temporal_specific_answer_matches_questioned_label():
    m = ambulance_meta()
    for seed in range(20):
        specific = gen_temporal_qa(m, np.random.default_rng(seed))[1]
        named = [e.label for e in m.events if e.label in specific.question]
        assert len(named) == 1
        label = named[0]
        expected = "; ".join(
            f"{e.label}: {format_span(e.onset_s, e.offset_s)}"
            for e in sorted(m.events, key=lambda e: (e.onset_s, e.label))
            if e.label == label)
        assert specific.answer == expected


def test_temporal_specific_lists_every_span_of_duplicated_label():
    m = AudioMeta(audio_id="x", events=[
        SoundEvent("Cat", "Meowing", 0.0, 1.0),
        SoundEvent("Dog", "Barking", 1.0, 2.0),
        SoundEvent("Dog", "Barking", 5.0, 6.0),
    ])
    for seed in range(50):
        specific = gen_temporal_qa(m, np.random.default_rng(seed))[1]
        if "Dog" in specific.question:
            assert specific.answer == "Dog: [1.0s-2.0s]; Dog: [5.0s-6.0s]"
            break
    else:
        pytest.fail("no seed picked the duplicated label")


def test_temporal_order_names_min_onset_event():
    m = AudioMeta(audio_id="x", events=[
        SoundEvent("Wind", "Howling", 3.0, 4.0),
        SoundEvent("Hail", "Clattering", 1.0, 2.0),
    ])
    order = gen_temporal_qa(m, np.random.default_rng(0))[2]
    assert order.answer == "Hail"
    assert order.question in DEFAULT_QUESTION_BANK["temporal_order"]


def test_temporal_order_breaks_onset_tie_by_offset():
    m = AudioMeta(audio_id="x", events=[
        SoundEvent("Thunder", "Rumbling", 0.0, 10.0),
        SoundEvent("Rain", "Pattering", 0.0, 1.0),
    ])
    order = gen_temporal_qa(m, np.random.default_rng(0))[2]
    assert order.answer == "Rain"


def test_temporal_rejects_untimed_event():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady", 0.0, 1.0),
                                        SoundEvent("Wind", "Howling")])
    with pytest.raises(ValueError):
        gen_temporal_qa(m, np.random.default_rng(0))


def test_closed_generators_deterministic_per_seed():
    m = ambulance_meta()
    bank = {label: [feat] * 10
            for label, feat in ACOUSTIC_ANSWER_FEATURES.items()}

    def run():
        rng = np.random.default_rng(7)
        out = [gen_classification_qa(m, None, rng),
               gen_acoustic_feature_qa(m, rng, feature_bank=bank)]
        out += gen_caption_qa(m, rng)
        out += gen_temporal_qa(m, rng)
        return [qa_to_dict(p) for p in out]

    assert run() == run()


def test_demo_corpus_matches_golden_hashes(demo_corpus):
    # pins the question table's order and every draw of the forged corpus,
    # which two runs in one process cannot tell apart
    root = demo_corpus().root
    want = {
        "meta.jsonl":
            "24764b97b9683217a08fb65584224127f8bd9228ff90bd4c74273e0356227422",
        "manifest.jsonl":
            "a74f567245d1b0cba1426d9df0083dc46a450b93d2ac91e14dec97144ba852b3",
    }
    for name, digest in want.items():
        assert hashlib.sha256((root / name).read_bytes()).hexdigest() \
            == digest, name


def test_demo_clip_matches_golden_hash(demo_corpus):
    # pins the bytes write_wav stores: header, sample scaling and rounding
    root = demo_corpus().root
    assert hashlib.sha256((root / "audio" / "ant00.wav").read_bytes()).hexdigest() \
        == "3e9341377cd6b353edaf70bdcdd1262894b9ee497299a9a20376ddc30bf6c475"


# -- open-ended prompt and parsing --------------------------------------------

def test_build_aig_prompt_matches_golden_fixture():
    fixture = (FIXTURES / "aig_prompt_golden.txt").read_text(encoding="utf-8")
    assert fixture == build_aig_prompt(ambulance_meta()) + "\n"


def test_prompt_starts_with_frozen_instruction():
    assert AIG_PROMPT.startswith(
        "Based on the following audio clip, generate 10 different types")


def test_prompt_contains_every_event_label():
    m = AudioMeta(audio_id="x", events=[SoundEvent("Zipper (clothing)", "Short"),
                                        SoundEvent("Glass shatter", "Sharp")],
                  caption="someone packs in a hurry")
    prompt = build_aig_prompt(m)
    for ev in m.events:
        assert ev.label in prompt
    assert prompt.endswith(serialize_meta(m))


def test_parse_sample_response_fixture():
    text = (FIXTURES / "aig_sample_response.json").read_text(encoding="utf-8")
    pairs = parse_aig_response(text, audio_id="amb01")
    assert len(pairs) == 2
    assert pairs[0].question == ("How would you describe the tone of the "
                                 "sound of the accelerating engine?")
    assert pairs[0].answer == ("The tone of the sound of the accelerating "
                               "engine is high-pitched, short and intense.")
    assert pairs[1].question == (
        "What is the acoustic feature that distinguishes the sound of the "
        "ambulance siren from the generic impact sounds?")
    assert pairs[1].answer == (
        "The acoustic feature that distinguishes the sound of the ambulance "
        "siren from the sound of generic impact sounds is that the former "
        "is high-pitched and wailing, while the latter is loud and sharp.")
    assert all(p.task == "open_ended" and not p.closed and not p.unanswerable
               for p in pairs)


def test_parse_roundtrip_on_arrays():
    rows = [{"q": f"question {i}?", "a": f"answer {i}."} for i in range(5)]
    rows[2] = {"q": "café noise?", "a": "It cannot be determined from "
                                             "the audio that a café is "
                                             "nearby."}
    pairs = parse_aig_response(json.dumps(rows), audio_id="a")
    assert [(p.question, p.answer) for p in pairs] == \
        [(r["q"], r["a"]) for r in rows]
    assert [p.unanswerable for p in pairs] == [False, False, True, False, False]


def test_parse_object_per_line_with_code_fence():
    text = ('```json\n'
            '{"q": "first?", "a": "one."}\n'
            '{"q": "second?", "a": "two."}\n'
            '```')
    pairs = parse_aig_response(text)
    assert [(p.question, p.answer) for p in pairs] == [("first?", "one."),
                                                       ("second?", "two.")]


def test_parse_empty_array():
    assert parse_aig_response("[]") == []


def test_parse_skips_malformed_objects_with_warning():
    rows = [{"q": "first?", "a": "one."}, {"q": "no answer here"},
            {"q": "third?", "a": "three."}]
    with pytest.warns(UserWarning) as record:
        pairs = parse_aig_response(json.dumps(rows))
    assert len(pairs) == 2
    assert len(record) == 1


def test_parse_unparseable_raises_with_span():
    with pytest.raises(ValueError, match="no JSON here"):
        parse_aig_response("no JSON here at all")


def test_detect_unanswerable_paper_phrasings():
    assert detect_unanswerable(
        "It cannot be determined from the audio that the bell type is church.")
    assert detect_unanswerable(
        "The audio clip does not provide enough information to determine "
        "the type of the bell.")
    assert detect_unanswerable("IMPOSSIBLE TO TELL FROM THE AUDIO.")
    assert not detect_unanswerable("The bell is rung three times.")


def test_open_ended_quota_scales_with_meta_richness():
    label_only = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady")])
    captioned = AudioMeta(audio_id="x", events=[SoundEvent("Rain", "Steady")],
                          caption="rain falls")
    timed = AudioMeta(audio_id="x",
                      events=[SoundEvent("Rain", "Steady", 0.0, 1.0)])
    assert open_ended_quota(label_only) == 10
    assert open_ended_quota(captioned) == 15
    assert open_ended_quota(timed) == 20


def test_gen_open_ended_stops_when_client_repeats():
    m = ambulance_meta()
    text = (FIXTURES / "aig_sample_response.json").read_text(encoding="utf-8")
    client = ReplayLlmClient({build_aig_prompt(m): text})
    pairs = gen_open_ended_qa(m, client)
    # quota is 20 but the replayed response only ever yields the same 2
    assert len(pairs) == 2
    assert len(client.calls) == 2
    assert all(p.audio_id == "amb01" for p in pairs)
