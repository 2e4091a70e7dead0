"""Hypothesis fuzzing of the CLI's text inputs: JSON and JSON-lines files,
the INI stage file of `train --curriculum` and the manifest of the
checkpoint `answer --ckpt` loads.

Each case takes a valid input file and mutates it once: a field dropped, a
value swapped for one of another JSON type, the bytes truncated or one byte
flipped, or the file emptied. The INI file and the checkpoint manifest are
held as documents too (sections of keys; one entry per line, the fields of
a tensor line as an object) and written out in their own syntax, so the
same mutations apply. The command must exit 0 or 1 (the files all exist,
so never 2), print no traceback, name the mutated file on exit 1, and leave
--out either absent or complete. The WAV files and the checkpoint's tensor
blob are not mutated.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aqakit.cli import main
from aqakit.evaluate import JUDGE_PROMPT
from aqakit.frontend import Waveform, write_wav
from aqakit.model import AudioTextLm, DecoderConfig, save_checkpoint

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

# one stage of one step on the one classification row of MANIFEST
CURRICULUM = {"stage1": {"tasks": "clf_and_desc", "n_samples": 1,
                         "lr": 0.001, "epochs": 1}}
# the smallest model whose audio path takes a clip's 64 x 8 patch grid
CKPT_MODEL = AudioTextLm(DecoderConfig(n_layers=1, n_heads=1, d_model=8,
                                       max_seq_len=48, d_audio=4,
                                       mlp_ratio=1))


def _scalar(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _checkpoint_doc() -> dict:
    """CKPT_MODEL's manifest: key -> value per key=value line, "tensor NAME"
    -> its fields per tensor line."""
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(tmp, CKPT_MODEL)
        lines = (Path(tmp) / "manifest.txt").read_text(
            encoding="utf-8").splitlines()
    doc = {}
    for line in lines:
        if line.startswith("tensor "):
            _, name, dtype, shape, offset, nbytes = line.split(" ")
            doc[f"tensor {name}"] = {"dtype": dtype, "shape": shape,
                                     "offset": int(offset),
                                     "nbytes": int(nbytes)}
        else:
            key, value = line.split("=", 1)
            doc[key] = _scalar(value)
    return doc


# name -> (document, file format)
INPUTS = {"meta": (META, "jsonl"), "bank": (BANK, "json"),
          "manifest": (MANIFEST, "jsonl"), "labels": (LABELS, "json"),
          "pred": (PRED, "jsonl"), "truth": (TRUTH, "jsonl"),
          "responses": (RESPONSES, "json"),
          "curriculum": (CURRICULUM, "ini"),
          "checkpoint": (_checkpoint_doc(), "checkpoint")}
# inputs that live under another name than their own
PATHS = {"checkpoint": "ckpt/manifest.txt"}
# names in argv that stand for fixed files or directories under the root
FIXED = ("OUT", "NAMES", "AUDIO", "CLIP", "ckpt")

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
    (["train", "--manifest", "manifest", "--audio-dir", "AUDIO",
      "--curriculum", "curriculum", "--out", "OUT"], ("curriculum",), None),
    (["answer", "--audio", "CLIP", "--question", "q?", "--ckpt", "ckpt",
      "--max-new-tokens", "1", "--out", "OUT"], ("checkpoint",), "json"),
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


def _text(value) -> str:
    """A value as INI and manifest files write it: strings as they are."""
    return value if isinstance(value, str) else json.dumps(value)


def _serialize(doc, fmt: str) -> bytes:
    if fmt == "json":
        text = json.dumps(doc)
    elif fmt == "jsonl":
        text = "".join(json.dumps(row) + "\n" for row in doc)
    elif fmt == "ini":
        lines = []
        for section, body in doc.items():
            lines.append(f"[{section}]")
            lines += ([f"{k} = {_text(v)}" for k, v in body.items()]
                      if isinstance(body, dict) else [_text(body)])
        text = "".join(ln + "\n" for ln in lines)
    else:
        text = "".join(
            (" ".join([key] + [_text(v) for v in value.values()])
             if isinstance(value, dict) else f"{key}={_text(value)}") + "\n"
            for key, value in doc.items())
    return text.encode("utf-8")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(data, name: str) -> bytes:
    doc, fmt = INPUTS[name]
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
        return _serialize(doc, fmt)
    raw = _serialize(doc, fmt)
    if kind == "empty":
        return b""
    at = data.draw(st.integers(0, len(raw) - 1), label="byte")
    if kind == "truncate":
        return raw[:at]
    flip = data.draw(st.integers(1, 255), label="xor")
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]


def _path(root: Path, name: str) -> Path:
    return root / PATHS.get(name, name)


def _fixtures(root: Path) -> None:
    """The files the inputs refer to and nothing mutates: a class list, a
    clip per MANIFEST audio_id, the clip to answer about and the tensors
    of CKPT_MODEL."""
    (root / "NAMES").write_text("dog\ncat\n", encoding="utf-8")
    clip = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 8000))
    (root / "AUDIO").mkdir()
    for row in MANIFEST:
        write_wav(root / "AUDIO" / f"{row['audio_id']}.wav", clip)
    write_wav(root / "CLIP", clip)
    save_checkpoint(root / "ckpt", CKPT_MODEL)


def _run(root: Path, argv, mutated: dict):
    """main(argv) over fresh input files in root; (exit code, stderr)."""
    for name, (doc, fmt) in INPUTS.items():
        _path(root, name).write_bytes(mutated[name] if name in mutated
                                      else _serialize(doc, fmt))
    out = root / "OUT"
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    argv = [str(_path(root, a)) if a in INPUTS or a in FIXED else a
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
        _fixtures(root)
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
                assert str(_path(root, name)) in err, err
                assert not out.exists()
            elif fmt is not None:
                _check_out(out, fmt)

        fuzz()
