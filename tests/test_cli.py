"""End-to-end checks of the command surface: exit codes, determinism,
output schemas, and the no-network guarantee of --mock-llm runs."""

import hashlib
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aqakit
from aqakit import frontend, synthetic
from aqakit.cli import _build_parser, main
from aqakit.evaluate import JUDGE_PROMPT
from aqakit.files import atomic_write
from aqakit.forge import build_aig_prompt, feature_prompt, read_meta_jsonl
from aqakit.frontend import Waveform, write_wav
from aqakit.model import AudioTextLm, DecoderConfig, save_checkpoint


@pytest.fixture(scope="module")
def demo_dir(demo_corpus):
    return demo_corpus().root


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return path


# -- dispatch and exit codes ------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_1_with_usage(demo_dir, capsys):
    code = main(["stats", "--manifest", str(demo_dir / "manifest.jsonl"),
                 "--bogus", "1"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_exits_1(capsys):
    assert main(["stats"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


LLM = {"--mock-llm", "--llm-url", "--api-key-env", "--responses"}
PROVIDER = {"--provider", "--llm-url", "--api-key-env"}
FLAGS = {
    "forge-closed": {"--out", "--seed", "--meta", "--feature-bank"},
    "forge-open": {"--out", "--meta"} | LLM,
    "forge-features": {"--out", "--classes", "--meta"} | LLM,
    "sample-audioset": {"--out", "--labels", "--n"},
    "stats": {"--out", "--manifest"},
    "validate": {"--manifest"},
    "train": {"--out", "--seed", "--manifest", "--audio-dir", "--curriculum",
              "--factor", "--batch", "--report"},
    "answer": {"--out", "--seed", "--audio", "--question", "--ckpt",
               "--max-new-tokens"},
    "eval-classify": {"--out", "--pred", "--truth", "--labels"} | PROVIDER,
    "eval-caption": {"--out", "--pred", "--truth"},
    "eval-judge": {"--out", "--pred"} | LLM,
    "probe": {"--out", "--pred", "--truth", "--kind"} | PROVIDER,
}


def test_each_subcommand_takes_exactly_its_flags():
    subs = _build_parser()._subparsers._group_actions[0].choices
    got = {name: {opt for action in sp._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")}
           for name, sp in subs.items()}
    assert got == FLAGS
    required_out = {name for name, sp in subs.items()
                    for action in sp._actions
                    if "--out" in action.option_strings and action.required}
    assert required_out == {"forge-closed", "forge-open", "forge-features",
                            "train"}


@pytest.mark.parametrize("argv", [
    ["stats", "--manifest", "m.jsonl", "--seed", "1"],
    ["validate", "--manifest", "m.jsonl", "--out", "x"],
], ids=["stats_seed", "validate_out"])
def test_flags_a_subcommand_does_not_use_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "usage" in err


def test_dataset_subcommands_require_out(demo_dir, capsys):
    code = main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl")])
    assert code == 1
    assert "--out" in capsys.readouterr().err


def test_missing_input_file_is_runtime_error(tmp_path):
    code = main(["forge-closed", "--meta", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_real_llm_without_url_exits_1(demo_dir, tmp_path, capsys):
    code = main(["forge-open", "--meta", str(demo_dir / "meta.jsonl"),
                 "--out", str(tmp_path / "open.jsonl")])
    assert code == 1
    assert "--llm-url" in capsys.readouterr().err


def _run_fresh(code, *args, **env):
    """Run `code` in a new interpreter that imports aqakit from this tree."""
    src = str(Path(aqakit.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


# what pip's console-script wrapper does, driven from a fresh interpreter
_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="aqakit", value=sys.argv[1],
                  group="console_scripts").load()
sys.argv = ["aqakit"] + sys.argv[2:]
sys.exit(main())
"""


def test_console_script_installed(demo_dir):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts.get("aqakit") == "aqakit.cli:main"

    args = ["stats", "--manifest", str(demo_dir / "manifest.jsonl")]
    proc = _run_fresh(_LAUNCHER, scripts["aqakit"], *args)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["total_pairs"] == 200, proc.stderr

    installed = shutil.which("aqakit")
    if installed:
        exe = subprocess.run([installed, *args], capture_output=True,
                             text=True)
        assert exe.returncode == 0, exe.stderr
        assert exe.stdout == proc.stdout


# certifi is left out: site hooks may import it when the interpreter starts
HTTP_STACK = ("requests", "urllib3", "ssl", "http.client")


def test_importing_aqakit_loads_no_http_stack():
    proc = _run_fresh(
        "import sys\n"
        "import aqakit.cli, aqakit.forge, aqakit.evaluate, aqakit.model\n"
        "import aqakit.training, aqakit.synthetic, aqakit.frontend\n"
        "import aqakit.files, aqakit.remote\n"
        f"print([m for m in {HTTP_STACK!r} if m in sys.modules])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_forge_loads_no_evaluate_module():
    proc = _run_fresh(
        "import sys\n"
        "import aqakit.forge\n"
        "print([m for m in sys.modules if m.startswith('aqakit.evaluate')])\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# main() in an interpreter where `import requests` fails and sockets raise
_WITHOUT_REQUESTS = """\
import socket, sys
def no_network(*args, **kwargs):
    raise AssertionError("network touched")
socket.socket.connect = socket.create_connection = no_network
sys.modules["requests"] = None
from aqakit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_offline_commands_run_without_requests(demo_dir, capsys):
    args = ["stats", "--manifest", str(demo_dir / "manifest.jsonl")]
    assert main(args) == 0
    normal = capsys.readouterr().out
    proc = _run_fresh(_WITHOUT_REQUESTS, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == normal


def test_remote_client_without_requests_exits_2_naming_it(demo_dir, tmp_path):
    out = tmp_path / "open.jsonl"
    proc = _run_fresh(_WITHOUT_REQUESTS, "forge-open",
                      "--meta", str(demo_dir / "meta.jsonl"),
                      "--llm-url", "http://127.0.0.1:9", "--out", str(out),
                      LLM_API_KEY="k")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("aqakit: "), proc.stderr
    assert "'requests'" in lines[0]
    assert proc.stdout == "" and not out.exists()


# -- forging ----------------------------------------------------------------------

def test_forge_closed_reruns_byte_identical(demo_dir, tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
                     "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 200


def test_forge_closed_seed_changes_draws(demo_dir, tmp_path, capsys):
    a = tmp_path / "s7.jsonl"
    b = tmp_path / "s8.jsonl"
    main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
          "--seed", "7", "--out", str(a)])
    main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
          "--seed", "8", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()


def test_forge_closed_does_not_mutate_inputs(demo_dir, tmp_path, capsys):
    meta = demo_dir / "meta.jsonl"
    before = _sha(meta)
    main(["forge-closed", "--meta", str(meta),
          "--out", str(tmp_path / "o.jsonl")])
    capsys.readouterr()
    assert _sha(meta) == before


def test_forge_closed_leaves_no_temp_files(demo_dir, tmp_path, capsys):
    main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
          "--out", str(tmp_path / "deep" / "o.jsonl")])
    capsys.readouterr()
    names = {p.name for p in (tmp_path / "deep").iterdir()}
    assert names == {"o.jsonl"}


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_written_files_get_the_umask_default_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write(tmp_path / "report.json", "{}\n")
        save_checkpoint(tmp_path / "ckpt", AudioTextLm(DecoderConfig(n_layers=0)))
        write_wav(tmp_path / "clip.wav", Waveform(np.zeros(100)))
    finally:
        os.umask(old)
    for path in (tmp_path / "report.json", tmp_path / "ckpt" / "manifest.txt",
                 tmp_path / "ckpt" / "tensors.bin", tmp_path / "clip.wav"):
        assert path.stat().st_mode & 0o777 == mode, path.name


def test_atomic_write_stores_text_as_utf8_bytes(tmp_path):
    text = "café — 犬の声\nline two\r\n\U0001f50a\n"
    atomic_write(tmp_path / "atomic.txt", text)
    (tmp_path / "plain.txt").write_text(text, encoding="utf-8")
    assert ((tmp_path / "atomic.txt").read_bytes()
            == (tmp_path / "plain.txt").read_bytes())


def test_forge_open_mock_writes_valid_rows(demo_dir, tmp_path, capsys):
    out = tmp_path / "open.jsonl"
    assert main(["forge-open", "--meta", str(demo_dir / "meta.jsonl"),
                 "--mock-llm", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows
    for r in rows:
        assert r["task"] == "open_ended"
        assert not r["closed"]
        assert r["question"] and r["answer"]


def test_forge_features_then_closed_consumes_bank(demo_dir, tmp_path, capsys):
    bank = tmp_path / "bank.json"
    assert main(["forge-features", "--meta", str(demo_dir / "meta.jsonl"),
                 "--mock-llm", "--out", str(bank)]) == 0
    cached = json.loads(bank.read_text())
    assert cached and all(len(v) == 10 for v in cached.values())
    out = tmp_path / "closed.jsonl"
    assert main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
                 "--feature-bank", str(bank), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in out.read_text().splitlines()
            if json.loads(l)["task"] == "acoustic_features"]
    assert any("feature-" in r["answer"] for r in rows)


@pytest.mark.parametrize("features", ["woof woof", [], [""], [3]],
                         ids=["string", "empty", "empty_string", "number"])
def test_forge_closed_rejects_malformed_feature_bank(demo_dir, tmp_path, capsys,
                                                     features):
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"Dog": features}), encoding="utf-8")
    out = tmp_path / "closed.jsonl"
    assert main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
                 "--feature-bank", str(bank), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bank}: features of 'Dog'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_forge_features_mock_replays_listed_classes(tmp_path, capsys):
    classes = tmp_path / "classes.txt"
    classes.write_text("Dog\nCat\n", encoding="utf-8")
    responses = tmp_path / "r.json"
    responses.write_text(json.dumps({feature_prompt("Dog"): "a sharp bark"}),
                         encoding="utf-8")
    bank = tmp_path / "bank.json"
    assert main(["forge-features", "--classes", str(classes), "--mock-llm",
                 "--responses", str(responses), "--out", str(bank)]) == 0
    capsys.readouterr()
    cached = json.loads(bank.read_text())
    assert cached["Dog"] == ["a sharp bark"] * 10
    assert cached["Cat"] == [f"feature-{i} of Cat" for i in range(1, 11)]


def test_forge_open_mock_responses_fall_back_to_synthetic(demo_dir, tmp_path,
                                                          capsys):
    responses = tmp_path / "r.json"
    responses.write_text("{}", encoding="utf-8")
    plain, replayed = tmp_path / "plain.jsonl", tmp_path / "replayed.jsonl"
    argv = ["forge-open", "--meta", str(demo_dir / "meta.jsonl"), "--mock-llm"]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--responses", str(responses),
                        "--out", str(replayed)]) == 0
    capsys.readouterr()
    assert replayed.read_bytes() == plain.read_bytes()


def test_forge_open_keeps_pairs_of_metas_sharing_an_audio_id(demo_dir, tmp_path,
                                                             capsys):
    first, second = (demo_dir / "meta.jsonl").read_text().splitlines()[:2]
    row = json.loads(second)
    row["audio_id"] = json.loads(first)["audio_id"]
    second = json.dumps(row)
    rows = {}
    for name, lines in (("both", [first, second]), ("first", [first]),
                        ("second", [second])):
        meta, out = tmp_path / f"{name}.meta.jsonl", tmp_path / f"{name}.jsonl"
        meta.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
        assert main(["forge-open", "--meta", str(meta), "--mock-llm",
                     "--out", str(out)]) == 0
        rows[name] = out.read_text().splitlines()
    capsys.readouterr()
    assert len(rows["both"]) == 4
    assert rows["both"] == rows["first"] + rows["second"]


def test_forge_open_names_the_source_of_an_unparseable_reply(tmp_path,
                                                             capsys):
    meta = _jsonl(tmp_path / "meta.jsonl", [
        {"audio_id": "m1", "caption": "a dog barks",
         "events": [{"label": "dog", "feature": "sharp bark"}]}])
    prompt = build_aig_prompt(read_meta_jsonl(meta)[0])
    responses = tmp_path / "r.json"
    responses.write_text(json.dumps({prompt: "not json at all"}),
                         encoding="utf-8")
    out = tmp_path / "qa.jsonl"
    assert main(["forge-open", "--mock-llm", "--meta", str(meta),
                 "--responses", str(responses), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{responses}: reply for audio_id 'm1': " in err
    assert "not json at all" in err and "Traceback" not in err
    assert not out.exists()


def test_mock_llm_never_opens_network(demo_dir, tmp_path, monkeypatch,
                                      capsys):
    def boom(*args, **kwargs):
        raise AssertionError("network touched during --mock-llm run")

    monkeypatch.setattr(socket, "socket", boom)
    monkeypatch.setattr(socket, "create_connection", boom)
    assert main(["forge-open", "--meta", str(demo_dir / "meta.jsonl"),
                 "--mock-llm", "--out", str(tmp_path / "o.jsonl")]) == 0
    assert main(["forge-features", "--meta", str(demo_dir / "meta.jsonl"),
                 "--mock-llm", "--out", str(tmp_path / "b.json")]) == 0
    preds = _jsonl(tmp_path / "p.jsonl",
                   [{"audio_id": "a", "question": "q?", "output": "yes"}])
    assert main(["eval-judge", "--pred", str(preds), "--mock-llm"]) == 0
    capsys.readouterr()


def test_sample_audioset_prefers_rare_classes(tmp_path, capsys):
    labels_of = {f"clip{i:02d}": ["common"] for i in range(36)}
    labels_of.update({f"clip{i:02d}": ["rare"] for i in range(36, 40)})
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(labels_of), encoding="utf-8")
    out = tmp_path / "picked.txt"
    assert main(["sample-audioset", "--labels", str(labels),
                 "--n", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    picked = out.read_text().split()
    assert len(picked) == 8
    assert {"clip36", "clip37", "clip38", "clip39"} <= set(picked)


@pytest.mark.parametrize("labels_of, audio_id", [
    (["clip00", "clip01"], None),
    ({"a": "dog", "b": "cat"}, "a"),
    ({"a": ["dog"], "b": []}, "b"),
    ({"a": ["dog"], "b": ["cat", ""]}, "b"),
    ({"a": [3]}, "a"),
    ("not json", None),
], ids=["list", "string_values", "empty_list", "empty_class", "number_class",
        "not_json"])
def test_sample_audioset_rejects_malformed_labels(tmp_path, capsys, labels_of,
                                                  audio_id):
    labels = tmp_path / "labels.json"
    labels.write_text(labels_of if isinstance(labels_of, str)
                      else json.dumps(labels_of), encoding="utf-8")
    assert main(["sample-audioset", "--labels", str(labels), "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert str(labels) in captured.err and "Traceback" not in captured.err
    if audio_id is not None:
        assert repr(audio_id) in captured.err
    assert captured.out == ""


def _rejects_n_as_usage(capsys, labels, n):
    assert main(["sample-audioset", "--labels", str(labels), "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"aqakit: argument --n: expected an integer >= 1, got {n!r}\n"
        "usage: aqakit sample-audioset ")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sample_audioset_rejects_n_below_one(tmp_path, capsys, n):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"a": ["dog"], "b": ["cat"]}), encoding="utf-8")
    _rejects_n_as_usage(capsys, labels, n)


@pytest.mark.parametrize("n", ["0", "two"])
def test_sample_audioset_checks_n_before_reading_the_labels(tmp_path, capsys, n):
    _rejects_n_as_usage(capsys, tmp_path / "missing.json", n)


def test_sample_audioset_rejects_n_above_the_pool(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"a": ["dog"], "b": ["cat"]}), encoding="utf-8")
    assert main(["sample-audioset", "--labels", str(labels), "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert "asked for 3 audios" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# -- stats and validate -----------------------------------------------------------

def test_stats_unique_question_fraction_worked_example(tmp_path, capsys):
    # four questions, one duplicated: 3 distinct of 4
    rows = [{"audio_id": c, "question": q, "answer": a,
             "task": "classification", "closed": True, "unanswerable": False}
            for c, q, a in [("a", "What is this?", "dog"),
                            ("b", "What is this?", "cat"),
                            ("c", "Describe it.", "a dog barks"),
                            ("d", "Any bees here?", "no")]]
    manifest = _jsonl(tmp_path / "m.jsonl", rows)
    assert main(["stats", "--manifest", str(manifest)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unique_question_fraction"] == 0.75
    assert report["total_pairs"] == 4


def test_stats_does_not_mutate_manifest(demo_dir, capsys):
    manifest = demo_dir / "manifest.jsonl"
    before = _sha(manifest)
    main(["stats", "--manifest", str(manifest)])
    capsys.readouterr()
    assert _sha(manifest) == before


@pytest.mark.parametrize("command, flag", [
    ("stats", "--manifest"), ("forge-closed", "--meta"),
    ("eval-caption", "--pred"),
])
def test_non_object_row_exits_1_with_line(tmp_path, capsys, command, flag):
    bad = tmp_path / "rows.jsonl"
    bad.write_text("[1, 2]\n5\n", encoding="utf-8")
    argv = [command, flag, str(bad), "--out", str(tmp_path / "out.jsonl")]
    if command == "eval-caption":
        argv += ["--truth", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}:1:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("audio_id", ["x"]), ("question", 5), ("answer", None), ("task", 3),
    ("closed", 1), ("unanswerable", "no"),
])
def test_manifest_row_of_the_wrong_type_exits_1(tmp_path, capsys, field, value):
    good = {"audio_id": "a", "question": "q?", "answer": "x",
            "task": "caption", "closed": True, "unanswerable": False}
    manifest = _jsonl(tmp_path / "m.jsonl", [good, dict(good, **{field: value})])
    assert main(["validate", "--manifest", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"line 2: {field} must be")
    for argv in (["stats"], ["train", "--audio-dir", str(tmp_path),
                             "--out", str(tmp_path / "run")]):
        assert main(argv + ["--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert f"{manifest}:2:" in err and field in err
        assert "Traceback" not in err


def test_validate_clean_manifest_exits_0(demo_dir, capsys):
    assert main(["validate", "--manifest",
                 str(demo_dir / "manifest.jsonl")]) == 0
    assert "0 violations" in capsys.readouterr().err


def test_validate_reports_planted_errors(tmp_path, capsys):
    good = {"audio_id": "a", "question": "q?", "answer": "x",
            "task": "caption", "closed": True, "unanswerable": False}
    rows = [dict(good) for _ in range(10)]
    del rows[2]["answer"]                 # missing field
    rows[5]["task"] = "interpretive_dance"  # outside the task vocabulary
    rows[8]["closed"] = "yes"             # wrong type
    manifest = _jsonl(tmp_path / "m.jsonl", rows)
    assert main(["validate", "--manifest", str(manifest)]) == 1
    out = capsys.readouterr().out
    flagged = [l for l in out.splitlines() if l.startswith("line ")]
    assert len(flagged) == 3
    assert [l.split(":")[0] for l in flagged] == ["line 3", "line 6",
                                                  "line 9"]


def test_validate_unreadable_file_exits_2(tmp_path):
    assert main(["validate", "--manifest", str(tmp_path / "gone.jsonl")]) == 2


# -- train and answer -------------------------------------------------------------

def test_train_then_answer_roundtrip(demo_dir, tmp_path, capsys):
    run = tmp_path / "run"
    code = main(["train", "--manifest", str(demo_dir / "manifest.jsonl"),
                 "--audio-dir", str(demo_dir / "audio"),
                 "--factor", "1e-5", "--batch", "8", "--seed", "0",
                 "--out", str(run)])
    assert code == 0
    reports = [json.loads(l) for l in
               (run / "stage_reports.jsonl").read_text().splitlines()]
    assert [r["stage"] for r in reports] == [1, 2, 3, 4]
    for n in range(1, 5):
        assert ({p.name for p in (run / f"stage{n}").iterdir()}
                == {"manifest.txt", "tensors.bin"})
    wav = next((demo_dir / "audio").glob("*.wav"))
    assert main(["answer", "--audio", str(wav),
                 "--question", "classify the sound events in the audio clip",
                 "--ckpt", str(run / "stage4"),
                 "--max-new-tokens", "8"]) == 0
    line = capsys.readouterr().out.strip()
    record = json.loads(line)
    assert set(record) == {"audio_id", "question", "output"}
    assert record["audio_id"] == wav.stem
    assert record["question"] == \
        "classify the sound events in the audio clip"
    assert isinstance(record["output"], str)


def test_train_refuses_a_checkpoint_past_float32_range(demo_corpus, tmp_path,
                                                       capsys):
    # lr = 1e300 keeps the batch loss finite (layer norms absorb the scale),
    # but the projection bias no longer fits float32
    demo = demo_corpus(1).root
    curriculum = tmp_path / "curriculum.ini"
    curriculum.write_text("[stage1]\ntasks = clf_and_desc\nn_samples = 8\n"
                          "lr = 1e300\nepochs = 1\n", encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(demo / "manifest.jsonl"),
                 "--audio-dir", str(demo / "audio"),
                 "--curriculum", str(curriculum), "--batch", "8",
                 "--out", str(run)]) == 2
    captured = capsys.readouterr()
    assert f"{run / 'stage1'}: tensor audio.proj.bias " in captured.err
    assert "does not fit float32" in captured.err
    assert "Traceback" not in captured.err
    assert not (run / "stage1" / "manifest.txt").exists()
    assert (run / "stage_reports.jsonl").read_text(encoding="utf-8") == ""


def test_train_reports_a_stage_only_after_its_checkpoint(demo_corpus, tmp_path,
                                                        capsys):
    # stage 2 takes one step at the full lr = 1e300, and its checkpoint
    # save raises: stage 1 keeps its checkpoint and its report line
    demo = demo_corpus(1).root
    curriculum = tmp_path / "curriculum.ini"
    curriculum.write_text("[stage1]\ntasks = clf_and_desc\nn_samples = 8\n"
                          "lr = 1e-3\nepochs = 1\n"
                          "[stage2]\ntasks = clf_and_desc\nn_samples = 8\n"
                          "lr = 1e300\nepochs = 1\n", encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(demo / "manifest.jsonl"),
                 "--audio-dir", str(demo / "audio"),
                 "--curriculum", str(curriculum), "--batch", "8",
                 "--out", str(run)]) == 2
    captured = capsys.readouterr()
    assert f"{run / 'stage2'}: tensor " in captured.err
    assert "Traceback" not in captured.err
    assert (run / "stage1" / "manifest.txt").exists()
    assert not (run / "stage2").exists()
    lines = (run / "stage_reports.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert [json.loads(line)["stage"] for line in lines] == [1]


CURRICULUM_FAULTS = {
    "no_section_header": b"tasks = all\n",
    "repeated_section": b"[stage1]\ntasks = all\n[stage1]\nepochs = 1\n",
    "repeated_key": b"[stage1]\ntasks = all\ntasks = all\n",
    "bad_continuation": b"[stage1]\n  continued\ntasks = all\n",
    "not_utf8": b"[stage1]\ntasks = a\xffll\n",
    "empty": b"",
    "leading_zero": b"[stage01]\ntasks = all\nn_samples = 8\nlr = 1e-3\n"
                    b"epochs = 1\n",
}


@pytest.mark.parametrize("raw", CURRICULUM_FAULTS.values(),
                         ids=CURRICULUM_FAULTS)
def test_train_names_a_malformed_curriculum_file(demo_dir, tmp_path, capsys,
                                                 raw):
    curriculum = tmp_path / "curriculum.ini"
    curriculum.write_bytes(raw)
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(demo_dir / "manifest.jsonl"),
                 "--audio-dir", str(demo_dir / "audio"),
                 "--curriculum", str(curriculum), "--out", str(run)]) == 1
    captured = capsys.readouterr()
    assert f"{curriculum}: " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not run.exists()
    if b"[stage01]" in raw:
        assert f"{curriculum}: unexpected section [stage01]" in captured.err


def test_answer_writes_single_json_line_to_out(demo_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(DecoderConfig(), seed=0))
    wav = next((demo_dir / "audio").glob("*.wav"))
    out = tmp_path / "ans.jsonl"
    assert main(["answer", "--audio", str(wav), "--question", "what is it?",
                 "--ckpt", str(ckpt), "--max-new-tokens", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"audio_id", "question", "output"}


def test_answer_is_reproducible_under_seed(demo_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(DecoderConfig(), seed=0))
    wav = next((demo_dir / "audio").glob("*.wav"))
    outs = []
    for _ in range(2):
        assert main(["answer", "--audio", str(wav), "--question", "q?",
                     "--ckpt", str(ckpt), "--max-new-tokens", "8",
                     "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_answer_rejects_a_token_budget_below_one(demo_dir, tmp_path, capsys,
                                                 budget):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(DecoderConfig(), seed=0))
    wav = next((demo_dir / "audio").glob("*.wav"))
    out = tmp_path / "ans.jsonl"
    assert main(["answer", "--audio", str(wav), "--question", "q?",
                 "--ckpt", str(ckpt), "--max-new-tokens", budget,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (f"argument --max-new-tokens: expected an integer >= 1, got {budget!r}"
            in captured.err)
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("forge-closed", "--seed", "-1"), ("train", "--seed", "-1"),
    ("train", "--batch", "0"), ("train", "--batch", "two"),
    ("answer", "--seed", "-1"), ("answer", "--seed", "1.5"),
])
def test_integer_flags_fail_as_usage_before_any_file(demo_dir, tmp_path, capsys,
                                                     monkeypatch, command,
                                                     flag, value):
    # the answer checkpoint does not exist: reading it would exit 2
    inputs = {"forge-closed": ["--meta", str(demo_dir / "meta.jsonl")],
              "train": ["--manifest", str(demo_dir / "manifest.jsonl"),
                        "--audio-dir", str(demo_dir / "audio")],
              "answer": ["--audio", str(next((demo_dir / "audio").glob("*.wav"))),
                         "--question", "q?", "--ckpt", str(tmp_path / "none")]}

    def no_clip(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(frontend, "read_grid", no_clip)
    monkeypatch.setattr(synthetic, "read_grid", no_clip)
    out = tmp_path / "out"
    assert main([command, *inputs[command], flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    low = 0 if flag == "--seed" else 1
    assert captured.err.startswith(
        f"aqakit: argument {flag}: expected an integer >= {low}, got {value!r}\n"
        f"usage: aqakit {command} ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def _bad_wav(path, kind):
    """A WAV shorter than one fbank window, one with an empty data chunk, or
    a file that is not a WAV at all."""
    if kind == "short":
        write_wav(path, Waveform(np.full(100, 0.25)))
    elif kind == "not_riff":
        path.write_bytes(b"not audio")
    else:
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", 0)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


@pytest.mark.parametrize("kind, problem", [
    ("short", "waveform shorter than one window (400 samples)"),
    ("empty", "empty waveform"),
    ("not_riff", "not a RIFF/WAVE file"),
])
def test_answer_names_the_clip_on_audio_errors(tmp_path, capsys, kind, problem):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(DecoderConfig(), seed=0))
    wav = _bad_wav(tmp_path / f"{kind}.wav", kind)
    assert main(["answer", "--audio", str(wav), "--question", "q?",
                 "--ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert f"{wav}: {problem}" in captured.err
    assert captured.err.count(str(wav)) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["short", "empty"])
def test_train_names_the_clip_on_audio_errors(demo_dir, tmp_path, capsys, kind):
    audio = tmp_path / "audio"
    shutil.copytree(demo_dir / "audio", audio)
    wav = _bad_wav(sorted(audio.glob("*.wav"))[3], kind)
    run = tmp_path / "run"
    assert main(["train", "--manifest", str(demo_dir / "manifest.jsonl"),
                 "--audio-dir", str(audio), "--factor", "1e-5",
                 "--out", str(run)]) == 1
    captured = capsys.readouterr()
    assert f"{wav}: " in captured.err
    assert "Traceback" not in captured.err
    assert not run.exists()


# -- evaluation -------------------------------------------------------------------

@pytest.fixture()
def eval_files(tmp_path):
    preds = _jsonl(tmp_path / "preds.jsonl", [
        {"audio_id": "a", "question": "What animal is this?",
         "output": "a dog barking loudly"},
        {"audio_id": "b", "question": "What animal is this?",
         "output": "cat meowing"},
        {"audio_id": "c", "question": "What animal is this?",
         "output": "a dog growls"},
    ])
    truth = _jsonl(tmp_path / "truth.jsonl", [
        {"audio_id": "a", "labels": "dog", "caption": ["a dog barks loudly"],
         "order": ["dog", "cat"], "count": 2},
        {"audio_id": "b", "labels": "cat", "caption": "cat meowing",
         "order": ["cat", "dog"], "count": 1},
        {"audio_id": "c", "labels": "dog", "caption": ["a dog growls"],
         "order": ["dog", "cat"], "count": 4},
    ])
    labels = tmp_path / "labels.txt"
    labels.write_text("dog\ncat\n", encoding="utf-8")
    return preds, truth, labels


def test_eval_classify_clean_fixture(eval_files, capsys):
    preds, truth, labels = eval_files
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3
    assert report["accuracy"] == 1.0
    assert report["micro_f1"] == 1.0
    assert report["map"] == 1.0


def test_eval_classify_rejects_unknown_truth_label(eval_files, tmp_path,
                                                   capsys):
    preds, _, labels = eval_files
    truth = _jsonl(tmp_path / "bad_truth.jsonl",
                   [{"audio_id": "a", "labels": "walrus"},
                    {"audio_id": "b", "labels": "cat"},
                    {"audio_id": "c", "labels": "dog"}])
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels)]) == 1
    assert "walrus" in capsys.readouterr().err


def test_eval_classify_rejects_a_truth_row_without_labels(eval_files,
                                                         tmp_path, capsys):
    preds, _, labels = eval_files
    truth = _jsonl(tmp_path / "t.jsonl", [
        {"audio_id": "a", "labels": "dog"},
        {"audio_id": "b", "labels": []},
        {"audio_id": "c", "labels": ["dog"]},
    ])
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels)]) == 1
    captured = capsys.readouterr()
    assert f"{truth}:2:" in captured.err and "non-empty" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_eval_classify_names_the_row_whose_output_holds_no_word(eval_files,
                                                              tmp_path, capsys):
    _, truth, labels = eval_files
    preds = _jsonl(tmp_path / "p.jsonl", [
        {"audio_id": "b", "output": "a cat meows"},
        {"audio_id": "a", "output": "\u00ff\u00fe "},
    ])
    out = tmp_path / "report.json"
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{preds}: audio_id 'a': " in err and "zero vector" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_classify_names_the_line_of_a_label_that_holds_no_word(eval_files,
                                                                    tmp_path, capsys):
    preds, truth, labels = eval_files
    # the blank line counts: the name '??' sits on line 3
    labels.write_text("dog\n\n??\ncat\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{labels}:3: label '??' embeds to a zero vector" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_eval_caption_exact_overlap_mean(tmp_path, capsys):
    # 3/4 token overlap on both sides -> F1 0.75 for the single row
    preds = _jsonl(tmp_path / "p.jsonl",
                   [{"audio_id": "a", "question": "q",
                     "output": "a dog barking loudly"}])
    truth = _jsonl(tmp_path / "t.jsonl",
                   [{"audio_id": "a", "caption": "a dog barks loudly"}])
    assert main(["eval-caption", "--pred", str(preds),
                 "--truth", str(truth)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["caption_f1_mean"] - 0.75) < 1e-12
    assert report["n"] == 1


def test_eval_judge_mock_replay_rate(eval_files, tmp_path, capsys):
    preds, _, _ = eval_files
    replay = {}
    for i, row in enumerate(json.loads(l)
                            for l in preds.read_text().splitlines()):
        prompt = (f"{JUDGE_PROMPT}\n\nQuestion: {row['question']}\n"
                  f"Response: {row['output']}")
        replay[prompt] = "No." if i == 0 else "Yes, clearly."
    responses = tmp_path / "replay.json"
    responses.write_text(json.dumps(replay), encoding="utf-8")
    assert main(["eval-judge", "--pred", str(preds), "--mock-llm",
                 "--responses", str(responses)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_yes"] == 2
    assert report["n_no"] == 1
    assert abs(report["rate"] - 2 / 3) < 1e-12


@pytest.mark.parametrize("content", ["[1, 2]", '{"p": 5}', "not json"],
                         ids=["list", "non_string_reply", "not_json"])
def test_eval_judge_rejects_malformed_responses(eval_files, tmp_path, capsys,
                                                content):
    preds, _, _ = eval_files
    responses = tmp_path / "replay.json"
    responses.write_text(content, encoding="utf-8")
    assert main(["eval-judge", "--pred", str(preds), "--mock-llm",
                 "--responses", str(responses)]) == 1
    err = capsys.readouterr().err
    assert str(responses) in err
    assert "Traceback" not in err


def test_probe_order_counts_exclusions(eval_files, tmp_path, capsys):
    _, truth, _ = eval_files
    preds = _jsonl(tmp_path / "op.jsonl", [
        {"audio_id": "a", "question": "q",
         "output": "The dog comes first, then the cat."},
        {"audio_id": "b", "question": "q", "output": "hard to say"},
        {"audio_id": "c", "question": "q",
         "output": "The first sound is a cat."},
    ])
    assert main(["probe", "--kind", "order", "--pred", str(preds),
                 "--truth", str(truth)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_followed"] == 2
    assert report["n_excluded"] == 1
    assert abs(report["order_accuracy"] - 0.5) < 1e-12


def test_probe_counting_linearity(tmp_path, capsys):
    preds = _jsonl(tmp_path / "cp.jsonl", [
        {"audio_id": "a", "question": "q", "output": "I hear 2 barks."},
        {"audio_id": "b", "question": "q", "output": "It rings twice... 2."},
        {"audio_id": "c", "question": "q", "output": "4 distinct thuds"},
        {"audio_id": "d", "question": "q", "output": "four knocks, I mean 4"},
    ])
    truth = _jsonl(tmp_path / "ct.jsonl", [
        {"audio_id": "a", "count": 1}, {"audio_id": "b", "count": 1},
        {"audio_id": "c", "count": 2}, {"audio_id": "d", "count": 2},
    ])
    assert main(["probe", "--kind", "counting", "--pred", str(preds),
                 "--truth", str(truth)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_used"] == 4
    assert abs(report["pearson_r"] - 1.0) < 1e-12
    assert abs(report["double_single_ratio"] - 2.0) < 1e-12


def test_judge_and_counting_reports_print_their_fields(tmp_path, capsys):
    # the literal stdout: every field of the report, keys sorted, and the
    # counting probe's excluded indices as a JSON list
    preds = _jsonl(tmp_path / "cp.jsonl", [
        {"audio_id": k, "question": "q", "output": o} for k, o in zip("abcde", (
            "I hear 2 barks.", "no idea", "4 distinct thuds", "three knocks",
            "one bark"))])
    truth = _jsonl(tmp_path / "ct.jsonl", [
        {"audio_id": k, "count": c} for k, c in zip("abcde", (1, 1, 2, 2, 1))])
    assert main(["probe", "--kind", "counting", "--pred", str(preds),
                 "--truth", str(truth)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "double_single_ratio": 2.3333333333333335,\n  "excluded": [\n'
        '    1\n  ],\n  "n_used": 4,\n  "pearson_r": 0.8944271909999159\n}\n')

    verdicts = {"a dog": "Yes.", "a cat": "No.", "???": "maybe"}
    preds = _jsonl(tmp_path / "jp.jsonl", [
        {"audio_id": k, "question": "What is it?", "output": o}
        for k, o in zip("abc", verdicts)])
    responses = tmp_path / "replay.json"
    responses.write_text(json.dumps(
        {f"{JUDGE_PROMPT}\n\nQuestion: What is it?\nResponse: {o}": v
         for o, v in verdicts.items()}), encoding="utf-8")
    assert main(["eval-judge", "--pred", str(preds), "--mock-llm",
                 "--responses", str(responses)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "n_abstained": 1,\n  "n_no": 1,\n  "n_yes": 1,\n  "rate": 0.5\n}\n')


@pytest.mark.parametrize("count", [None, [1, 2], "many", 2.9, True])
def test_probe_counting_rejects_a_non_integer_count(tmp_path, capsys, count):
    preds = _jsonl(tmp_path / "cp.jsonl", [
        {"audio_id": "a", "question": "q", "output": "2 barks"},
        {"audio_id": "b", "question": "q", "output": "3 barks"},
    ])
    truth = _jsonl(tmp_path / "ct.jsonl", [
        {"audio_id": "a", "count": 2}, {"audio_id": "b", "count": count},
    ])
    assert main(["probe", "--kind", "counting", "--pred", str(preds),
                 "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert "'b'" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("digits", [300, 400])
def test_probe_counting_rejects_a_count_beyond_float_range(tmp_path, capsys,
                                                           digits):
    # 400 digits hold no float; 300 do, but their square overflows
    preds = _jsonl(tmp_path / "cp.jsonl", [
        {"audio_id": k, "question": "q", "output": o} for k, o in zip("abcd", (
            "1 bark", "2 barks", "1" + "0" * (digits - 1) + " barks",
            "2 barks"))])
    truth = _jsonl(tmp_path / "ct.jsonl", [
        {"audio_id": k, "count": c} for k, c in zip("abcd", (1, 2, 1, 2))])
    assert main(["probe", "--kind", "counting", "--pred", str(preds),
                 "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert str(preds) in captured.err and str(truth) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, row", [
    (["eval-classify", "--labels", "LABELS"], {"output": 5}),
    (["eval-caption"], {"output": 5}),
    (["eval-judge", "--mock-llm"], {"output": 7}),
    (["eval-judge", "--mock-llm"], {"question": ["q"]}),
    (["probe", "--kind", "order"], {"output": None}),
    (["probe", "--kind", "counting"], {"output": 2}),
], ids=["classify", "caption", "judge_output", "judge_question", "order",
        "counting"])
def test_prediction_row_of_the_wrong_type_exits_1(eval_files, tmp_path, capsys,
                                                  argv, row):
    _, truth, labels = eval_files
    good = {"audio_id": "a", "question": "q?", "output": "a dog"}
    preds = _jsonl(tmp_path / "p.jsonl", [good, dict(good, **row)])
    argv = [str(labels) if a == "LABELS" else a for a in argv]
    if argv[0] != "eval-judge":
        argv += ["--truth", str(truth)]
    assert main(argv + ["--pred", str(preds)]) == 1
    captured = capsys.readouterr()
    assert f"{preds}:2:" in captured.err and "must be a string" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("caption", [5, ["a dog", 3], None, []])
def test_eval_caption_rejects_a_truth_caption_of_the_wrong_type(eval_files,
                                                                 tmp_path,
                                                                 capsys,
                                                                 caption):
    preds, _, _ = eval_files
    truth = _jsonl(tmp_path / "t.jsonl", [
        {"audio_id": "a", "caption": "a dog"},
        {"audio_id": "b", "caption": caption},
        {"audio_id": "c", "caption": "a dog"},
    ])
    assert main(["eval-caption", "--pred", str(preds),
                 "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert f"{truth}:2:" in captured.err and "caption" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_eval_pred_truth_id_mismatch_exits_1(eval_files, tmp_path, capsys):
    preds, _, _ = eval_files
    truth = _jsonl(tmp_path / "t.jsonl", [{"audio_id": "zz", "caption": "x"}])
    assert main(["eval-caption", "--pred", str(preds),
                 "--truth", str(truth)]) == 1


# -- every JSON input is checked and named ------------------------------------------

_GOOD_META = {"audio_id": "m1", "caption": "a dog barks", "source": "demo",
              "events": [{"label": "dog", "feature": "sharp bark",
                          "onset_s": 0, "offset_s": 1.5}]}


def _event(**fields):
    return dict(_GOOD_META, events=[dict(_GOOD_META["events"][0], **fields)])


@pytest.mark.parametrize("row", [
    _event(label=5), _event(feature=["bark"]), dict(_GOOD_META, audio_id=7),
    dict(_GOOD_META, source=3), _event(onset_s=True),
    _event(offset_s=float("inf")), _event(onset_s=float("nan")),
    dict(_GOOD_META, caption=5), dict(_GOOD_META, caption=["a dog", 3]),
    dict(_GOOD_META, caption=[""]), dict(_GOOD_META, events={}),
], ids=["label", "feature", "audio_id", "source", "bool_onset",
        "infinite_offset", "nan_onset", "caption_number", "caption_list_number",
        "caption_empty_string", "events_object"])
@pytest.mark.parametrize("command", [["forge-closed"],
                                     ["forge-open", "--mock-llm"]],
                         ids=["closed", "open"])
def test_meta_row_of_the_wrong_type_exits_1(tmp_path, capsys, command, row):
    meta = _jsonl(tmp_path / "meta.jsonl", [row, _GOOD_META])
    out = tmp_path / "out.jsonl"
    assert main(command + ["--meta", str(meta), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{meta}:1:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("order", [["dog", 5], ["dog", "dog"], ["dog"],
                                   ["dog", "cat", "bird"], ["dog", ""]],
                         ids=["number", "same", "one", "three", "empty"])
def test_probe_order_rejects_a_malformed_truth(eval_files, tmp_path, capsys,
                                               order):
    preds, _, _ = eval_files
    truth = _jsonl(tmp_path / "t.jsonl", [
        {"audio_id": "a", "order": ["dog", "cat"]},
        {"audio_id": "b", "order": order},
        {"audio_id": "c", "order": ["dog", "cat"]},
    ])
    assert main(["probe", "--kind", "order", "--pred", str(preds),
                 "--truth", str(truth)]) == 1
    captured = capsys.readouterr()
    assert str(truth) in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_forge_closed_missing_feature_bank_exits_2(demo_dir, tmp_path, capsys):
    bank, out = tmp_path / "gone" / "bank.json", tmp_path / "closed.jsonl"
    assert main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
                 "--feature-bank", str(bank), "--out", str(out)]) == 2
    assert str(bank) in capsys.readouterr().err
    assert not out.exists()


def test_forge_closed_feature_bank_that_is_not_json_exits_1(demo_dir, tmp_path,
                                                            capsys):
    bank, out = tmp_path / "bank.json", tmp_path / "closed.jsonl"
    bank.write_text("{not json", encoding="utf-8")
    assert main(["forge-closed", "--meta", str(demo_dir / "meta.jsonl"),
                 "--feature-bank", str(bank), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bank}: " in err and "Traceback" not in err
    assert not out.exists()


def test_eval_classify_rejects_a_repeated_truth_audio_id(eval_files, tmp_path,
                                                         capsys):
    preds, _, labels = eval_files
    truth = _jsonl(tmp_path / "t.jsonl", [
        {"audio_id": "a", "labels": "dog"}, {"audio_id": "b", "labels": "cat"},
        {"audio_id": "c", "labels": "dog"}, {"audio_id": "a", "labels": "cat"},
    ])
    assert main(["eval-classify", "--pred", str(preds), "--truth", str(truth),
                 "--labels", str(labels)]) == 1
    captured = capsys.readouterr()
    assert f"{truth}:4:" in captured.err and "'a'" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command, flag", [
    (["stats"], "--manifest"), (["validate"], "--manifest"),
    (["forge-closed", "--out", "OUT"], "--meta"),
    (["forge-closed", "--meta", "META", "--out", "OUT"], "--feature-bank"),
    (["forge-features", "--mock-llm", "--out", "OUT"], "--classes"),
    (["sample-audioset", "--n", "1"], "--labels"),
    (["eval-classify", "--pred", "PRED", "--truth", "TRUTH"], "--labels"),
    (["eval-caption", "--truth", "TRUTH"], "--pred"),
    (["eval-judge", "--pred", "PRED", "--mock-llm"], "--responses"),
], ids=["stats", "validate", "meta", "feature_bank", "classes", "labels_json",
        "labels_txt", "pred", "responses"])
def test_input_that_is_not_utf8_names_its_file(demo_dir, eval_files, tmp_path,
                                               capsys, command, flag):
    preds, truth, _ = eval_files
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"audio_id": "a\xff"}\n')
    fill = {"OUT": str(tmp_path / "out"), "META": str(demo_dir / "meta.jsonl"),
            "PRED": str(preds), "TRUTH": str(truth)}
    argv = [fill.get(a, a) for a in command] + [flag, str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()
