"""Hypothesis fuzzing of the CLI's JSON and JSON-lines inputs.

Each case takes a valid input file and mutates it once: a field dropped, a
value swapped for one of another JSON type, the bytes truncated or one byte
flipped, or the file emptied. The command must exit 0 or 1 (the files all
exist, so never 2), print no traceback, name the mutated file on exit 1,
and leave --out either absent or complete. `train` and `answer` read WAVs
and checkpoints rather than JSON documents and are not covered here.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqakit.cli import main
from aqakit.evaluate import JUDGE_PROMPT

META = [
    {"audio_id": "m1", "source": "demo", "caption": "a dog barks at a cat",
     "events": [{"label": "dog", "feature": "sharp bark", "onset_s": 0,
                 "offset_s": 1.5},
                {"label": "cat", "feature": "soft meow", "onset_s": 2.0,
                 "offset_s": 3.0}]},
    {"audio_id": "m2", "caption": ["rain falls", "steady rain"],
     "events": [{"label": "rain", "feature": "steady hiss", "onset_s": 0.5,
                 "offset_s": 9.0}]},
]
BANK = {label: [f"{label} sound {i}" for i in range(10)]
        for label in ("dog", "cat")}
MANIFEST = [
    {"audio_id": "m1", "question": "What is heard?", "answer": "dog; cat",
     "task": "classification", "closed": True, "unanswerable": False},
    {"audio_id": "m2", "question": "What happens?", "answer": "rain falls",
     "task": "open_ended", "closed": False, "unanswerable": False},
]
LABELS = {"c0": ["dog"], "c1": ["dog", "cat"], "c2": ["cat"]}
PRED = [
    {"audio_id": "a", "question": "What is first?",
     "output": "The dog comes first, 2 barks."},
    {"audio_id": "b", "question": "What is first?",
     "output": "The cat is first, 3 meows."},
    {"audio_id": "c", "question": "What is first?",
     "output": "The dog comes first, one bark."},
]
TRUTH = [
    {"audio_id": "a", "labels": "dog", "caption": ["the dog barks twice"],
     "order": ["dog", "cat"], "count": 2},
    {"audio_id": "b", "labels": ["cat"], "caption": "a cat meows",
     "order": ["cat", "dog"], "count": 3},
    {"audio_id": "c", "labels": ["dog", "cat"], "caption": "a dog barks",
     "order": ["dog", "cat"], "count": 1},
]
RESPONSES = {f"{JUDGE_PROMPT}\n\nQuestion: {p['question']}\n"
             f"Response: {p['output']}": reply
             for p, reply in zip(PRED, ("Yes.", "No.", "yes"))}

# name -> (document, written as JSON lines)
INPUTS = {"meta": (META, True), "bank": (BANK, False),
          "manifest": (MANIFEST, True), "labels": (LABELS, False),
          "pred": (PRED, True), "truth": (TRUTH, True),
          "responses": (RESPONSES, False)}

EVAL = ["--pred", "pred", "--truth", "truth", "--out", "OUT"]
# (argv with input names standing for their paths, inputs to mutate, --out
# format)
CASES = [
    (["forge-closed", "--meta", "meta", "--feature-bank", "bank",
      "--out", "OUT"], ("meta", "bank"), "jsonl"),
    (["forge-open", "--mock-llm", "--meta", "meta", "--out", "OUT"],
     ("meta",), "jsonl"),
    (["stats", "--manifest", "manifest", "--out", "OUT"], ("manifest",),
     "json"),
    (["validate", "--manifest", "manifest"], ("manifest",), None),
    (["sample-audioset", "--labels", "labels", "--n", "2", "--out", "OUT"],
     ("labels",), "lines"),
    (["eval-classify", "--labels", "NAMES"] + EVAL, ("pred", "truth"), "json"),
    (["eval-caption"] + EVAL, ("pred", "truth"), "json"),
    (["probe", "--kind", "order"] + EVAL, ("pred", "truth"), "json"),
    (["probe", "--kind", "counting"] + EVAL, ("pred", "truth"), "json"),
    (["eval-judge", "--mock-llm", "--pred", "pred", "--responses",
      "responses", "--out", "OUT"], ("pred", "responses"), "json"),
]
TARGETS = [(argv, name, out) for argv, names, out in CASES for name in names]
TARGET_IDS = [f"{argv[0]}{'-' + argv[2] if argv[0] == 'probe' else ''}-{name}"
              for argv, name, _ in TARGETS]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=2)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=2)),
    max_leaves=4)


def _kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(doc, prefix=()):
    """The key path to every value nested in doc."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _serialize(doc, jsonl: bool) -> bytes:
    text = ("".join(json.dumps(row) + "\n" for row in doc) if jsonl
            else json.dumps(doc))
    return text.encode("utf-8")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(data, name: str) -> bytes:
    doc, jsonl = INPUTS[name]
    kind = data.draw(st.sampled_from(["drop", "swap", "truncate", "flip",
                                      "empty"]), label="mutation")
    if kind in ("drop", "swap"):
        doc = copy.deepcopy(doc)
        paths = [p for p in _paths(doc) if kind == "swap"
                 or isinstance(_at(doc, p[:-1]), dict)]
        path = data.draw(st.sampled_from(paths), label="path")
        parent = _at(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            old = _kind(parent[path[-1]])
            parent[path[-1]] = data.draw(
                JSON_VALUES.filter(lambda v: _kind(v) != old), label="value")
        return _serialize(doc, jsonl)
    raw = _serialize(doc, jsonl)
    if kind == "empty":
        return b""
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    if kind == "truncate":
        return raw[:at]
    flip = data.draw(st.integers(1, 255), label="xor")
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]


def _run(root: Path, argv, mutated: dict):
    """main(argv) over fresh input files in root; (exit code, stderr)."""
    for name, (doc, jsonl) in INPUTS.items():
        (root / name).write_bytes(mutated[name] if name in mutated
                                  else _serialize(doc, jsonl))
    (root / "NAMES").write_text("dog\ncat\n", encoding="utf-8")
    out = root / "OUT"
    out.unlink(missing_ok=True)
    argv = [str(root / a) if a in INPUTS or a in ("OUT", "NAMES") else a
            for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _check_out(out: Path, fmt: str) -> None:
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n") or (fmt == "jsonl" and not text)
    if fmt == "json":
        json.loads(text)
    elif fmt == "jsonl":
        for line in text.splitlines():
            assert isinstance(json.loads(line), dict)


@pytest.mark.parametrize("argv, name, fmt", TARGETS, ids=TARGET_IDS)
def test_mutated_input_exits_cleanly_and_names_the_file(argv, name, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, err = _run(root, argv, {})
        assert code == 0, err

        @settings(max_examples=40, deadline=None, database=None,
                  derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(data=st.data())
        def fuzz(data):
            code, err = _run(root, argv, {name: _mutated(data, name)})
            assert code in (0, 1), err
            assert "Traceback" not in err
            out = root / "OUT"
            if code == 1:
                assert str(root / name) in err, err
                assert not out.exists()
            elif fmt is not None:
                _check_out(out, fmt)

        fuzz()
