"""Operator surface: one executable, subcommands over the library modules.

Exit codes: 0 success, 1 validation error (including bad flags, with usage on
stderr), 2 runtime or client error. Progress goes to stderr; machine-readable
results go to stdout or --out. Output files are written atomically (temp file
plus rename) and input files are never mutated.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .files import (atomic_write, naming, read_json, read_jsonl, read_names,
                    read_text, string_list)

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 1 with usage text
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _int_at_least(low: int):
    """An argparse type for an integer flag of at least low, so a bad value
    is a usage error naming the flag before any file is read or made."""
    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if int(text) >= low:
                return int(text)
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def _eprint(*args):
    print(*args, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _row_parser(strings=(), texts=()):
    """A read_jsonl parse for rows whose strings fields hold a string and
    texts fields a non-empty string or a list of them (read as a list)."""
    def parse(row):
        for f in strings:
            if not isinstance(row[f], str):
                raise TypeError(f"{f!r} must be a string, got {row[f]!r}")
        for f in texts:
            value = [row[f]] if isinstance(row[f], str) else row[f]
            row[f] = string_list(value, repr(f))
        return row
    return parse


def _make_llm_client(args):
    if args.mock_llm:
        from .forge import ReplayLlmClient, SynthLlmClient
        if args.responses:
            recorded = read_json(args.responses)
            if not (isinstance(recorded, dict)
                    and all(isinstance(r, str) for r in recorded.values())):
                raise ValueError(f"{args.responses}: expected a JSON object "
                                 f"mapping prompt -> response string")
            return ReplayLlmClient(recorded,
                                   fallback=SynthLlmClient().complete)
        return SynthLlmClient()
    from .forge import RealLlmClient
    if not args.llm_url:
        raise UsageError("--llm-url is required without --mock-llm")
    return RealLlmClient(args.llm_url, api_key_env=args.api_key_env)


def _make_provider(args):
    from .evaluate import HashedBagOfWordsProvider, RemoteEmbeddingProvider
    if args.provider == "hashed":
        return HashedBagOfWordsProvider()
    if not args.llm_url:
        raise UsageError("--llm-url is required with --provider remote")
    return RemoteEmbeddingProvider(args.llm_url, api_key_env=args.api_key_env)


# -- subcommands -----------------------------------------------------------------

def _cmd_forge_closed(args) -> int:
    from .forge import (gen_closed_manifest, load_feature_bank,
                        read_meta_jsonl, write_manifest)
    metas = read_meta_jsonl(args.meta)
    bank = load_feature_bank(args.feature_bank) if args.feature_bank else None
    with naming(args.meta):
        pairs = gen_closed_manifest(metas, args.seed, feature_bank=bank)
    skipped = len(metas) - sum(p.task == "acoustic_features" for p in pairs)
    if skipped:
        _eprint(f"forge-closed: no acoustic features for {skipped} clips "
                f"(pass --feature-bank to cover them)")
    write_manifest(args.out, pairs)
    _eprint(f"forge-closed: wrote {len(pairs)} pairs "
            f"from {len(metas)} clips to {args.out}")
    return 0


def _cmd_forge_open(args) -> int:
    from .forge import gen_open_ended_qa, read_meta_jsonl, write_manifest
    metas = read_meta_jsonl(args.meta)
    client = _make_llm_client(args)
    source = f"{args.responses}: " if args.responses else ""
    pairs = []
    for meta in metas:
        try:
            qa = gen_open_ended_qa(meta, client)
        except ValueError as exc:
            raise ValueError(f"{source}reply for audio_id {meta.audio_id!r}: "
                             f"{exc}") from None
        _eprint(f"forge-open: {meta.audio_id}: {len(qa)} pairs")
        pairs.extend(qa)
    pairs.sort(key=lambda p: p.audio_id)
    write_manifest(args.out, pairs)
    _eprint(f"forge-open: wrote {len(pairs)} pairs to {args.out}")
    return 0


def _cmd_forge_features(args) -> int:
    from .forge import gen_feature_bank, read_meta_jsonl
    if args.classes:
        classes = read_names(args.classes)
    else:
        if not args.meta:
            raise UsageError("forge-features needs --classes or --meta")
        seen = {e.label for m in read_meta_jsonl(args.meta) for e in m.events}
        classes = sorted(seen)
    if not classes:
        raise ValueError(f"{args.classes or args.meta}: no classes to describe")
    client = _make_llm_client(args)
    bank = gen_feature_bank(classes, client, cache_path=args.out)
    missing = [c for c in classes if c not in bank]
    if missing and len(missing) == len(classes):
        _eprint(f"forge-features: no class succeeded ({len(missing)} failed)")
        return 2
    if missing:
        _eprint(f"forge-features: partial bank, missing {missing}")
    _eprint(f"forge-features: {len(bank)} classes cached at {args.out}")
    return 0


def _cmd_sample_audioset(args) -> int:
    from .forge import sample_audioset
    labels_of = read_json(args.labels)
    if not isinstance(labels_of, dict):
        raise ValueError(f"{args.labels}: expected a JSON object mapping "
                         f"audio_id -> [class, ...]")
    for audio_id, classes in labels_of.items():
        string_list(classes, f"{args.labels}: classes of {audio_id!r}")
    label_counts = Counter(c for classes in labels_of.values() for c in classes)
    chosen = sample_audioset(label_counts, labels_of, args.n)
    _emit("\n".join(chosen), args.out)
    _eprint(f"sample-audioset: kept {len(chosen)} of {len(labels_of)} audios")
    return 0


def _cmd_stats(args) -> int:
    from .forge import compute_dataset_stats, read_manifest
    with naming(args.manifest):
        stats = compute_dataset_stats(read_manifest(args.manifest))
    _emit(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True),
          args.out)
    return 0


def _cmd_validate(args) -> int:
    from .forge import validate_manifest
    problems = validate_manifest(args.manifest)
    for line_no, problem in problems:
        print(f"line {line_no}: {problem}")
    _eprint(f"validate: {len(problems)} violations in {args.manifest}")
    return 1 if problems else 0


def _cmd_train(args) -> int:
    from .model import AudioTextLm, DecoderConfig
    from .synthetic import read_corpus
    from .training import (TrainerConfig, default_curriculum, read_curriculum,
                           run_curriculum, scale_curriculum)
    if args.curriculum:
        stages = read_curriculum(args.curriculum)
    else:
        stages = scale_curriculum(default_curriculum(), args.factor)
    items = read_corpus(args.manifest, args.audio_dir)
    n_clips = len({it.pair.audio_id for it in items})
    _eprint(f"train: {len(items)} pairs, {n_clips} clips, stage budgets "
            f"{[s.n_samples for s in stages]}")
    # desk-scale init: wider output head and LoRA-A so the frozen-base model
    # can actually move at toy scale
    model = AudioTextLm(DecoderConfig(), seed=args.seed,
                        out_scale=0.35, lora_a_scale=0.5)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    report_path = args.report or str(out_root / "stage_reports.jsonl")
    cfg = TrainerConfig(batch_size=args.batch, seed=args.seed)
    reports = run_curriculum(model, items, stages, cfg,
                             report_path=report_path,
                             checkpoint_root=out_root)
    for r in reports:
        _eprint(f"train: stage {r.stage}: {r.steps} steps, "
                f"loss {r.initial_loss:.3f} -> {r.final_loss:.3f}"
                f"{' (aborted)' if r.aborted else ''}")
    if any(r.aborted for r in reports):
        _eprint("train: aborted on non-finite loss")
        return 2
    _eprint(f"train: checkpoints under {out_root}, reports at {report_path}")
    return 0


def _cmd_answer(args) -> int:
    from .frontend import read_grid
    from .model import (GenerationConfig, decode_ids, generate,
                        load_checkpoint, prompt_ids)
    cfg = GenerationConfig(max_new_tokens=args.max_new_tokens, seed=args.seed)
    model = load_checkpoint(args.ckpt)
    grid = read_grid(args.audio)
    prompt = np.array(prompt_ids(args.question), dtype=np.int64)
    new_ids = generate(model, grid, prompt, cfg)
    output = decode_ids(new_ids)
    record = {"audio_id": Path(args.audio).stem,
              "question": args.question,
              "output": output}
    _emit(json.dumps(record, ensure_ascii=False), args.out)
    return 0


def _join_truths(args, field: str, texts: bool = False):
    """(prediction row, truth value) pairs from --pred and --truth by
    audio_id; a truth row that repeats an audio_id is a bad row."""
    preds = read_jsonl(args.pred, _row_parser(("audio_id", "output")))
    parse = _row_parser(("audio_id",), (field,) if texts else ())
    by_id = {}

    def keep(row):
        row = parse(row)
        if row["audio_id"] in by_id:
            raise ValueError(f"repeats audio_id {row['audio_id']!r}")
        by_id[row["audio_id"]] = row[field]
    read_jsonl(args.truth, keep)
    joined = []
    for p in preds:
        if p["audio_id"] not in by_id:
            raise ValueError(f"{args.truth}: no truth for audio_id "
                             f"{p['audio_id']!r} of {args.pred}")
        joined.append((p, by_id[p["audio_id"]]))
    if not joined:
        raise ValueError(f"{args.pred}: nothing to evaluate")
    return joined


def _cmd_eval_classify(args) -> int:
    from .evaluate import (LabelSet, accuracy, classify_corpus,
                           mean_average_precision, micro_f1)
    with naming(args.labels):
        labels = LabelSet(tuple(read_names(args.labels)))
    joined = _join_truths(args, "labels", texts=True)
    provider = _make_provider(args)
    try:
        result = classify_corpus([p["output"] for p, _ in joined], labels,
                                 provider)
    except ValueError as exc:
        # classify_corpus names the text of a label or an output with no
        # word; name the file and the line or row too
        if str(exc).startswith("label "):
            lines = read_text(args.labels).splitlines()
            for line_no, line in enumerate(lines, start=1):
                if line.strip() and not provider.terms(line.strip()):
                    raise ValueError(f"{args.labels}:{line_no}: {exc}") from exc
        elif str(exc).startswith("output "):
            for p, _ in joined:
                if not provider.terms(p["output"]):
                    raise ValueError(f"{args.pred}: audio_id {p['audio_id']!r}: "
                                     f"{exc}") from exc
        raise
    index = {n: i for i, n in enumerate(labels.names)}
    truth_sets = []
    truth_matrix = np.zeros((len(joined), len(labels.names)), dtype=int)
    for row, (_, truth_labels) in zip(truth_matrix, joined):
        unknown = [t for t in truth_labels if t not in index]
        if unknown:
            raise ValueError(f"{args.truth}: truth labels outside "
                             f"{args.labels}: {unknown}")
        ts = {index[t] for t in truth_labels}
        truth_sets.append(ts)
        row[list(ts)] = 1
    report = {
        "n": len(joined),
        "provider": provider.name,
        "accuracy": accuracy(result.predictions,
                             [min(ts) for ts in truth_sets])
        if all(len(ts) == 1 for ts in truth_sets) else None,
        "micro_f1": micro_f1([{p} for p in result.predictions], truth_sets),
        "map": mean_average_precision(result.scores, truth_matrix),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_eval_caption(args) -> int:
    from .evaluate import caption_overlap_f1
    scores = [caption_overlap_f1(p["output"], refs)
              for p, refs in _join_truths(args, "caption", texts=True)]
    report = {"n": len(scores),
              "caption_f1_mean": float(np.mean(scores))}
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_eval_judge(args) -> int:
    from .evaluate import judge_rate
    pairs = [(p["question"], p["output"])
             for p in read_jsonl(args.pred, _row_parser(("question", "output")))]
    client = _make_llm_client(args)
    with naming(args.pred, args.responses):
        report = judge_rate(pairs, client)
    _emit(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True),
          args.out)
    return 0


def _cmd_probe(args) -> int:
    from .evaluate import counting_probe, order_accuracy, order_probe
    if args.kind == "order":
        joined = _join_truths(args, "order", texts=True)
        provider = _make_provider(args)
        for p, order in joined:
            if len(order) != 2 or order[0] == order[1]:
                raise ValueError(f"{args.truth}: order truth of "
                                 f"{p['audio_id']!r} must be two distinct "
                                 f"labels [first, second], got {order!r}")
        with naming(args.pred, args.truth):
            results = [order_probe(p["output"], first, second, provider)
                       for p, (first, second) in joined]
            acc, n_followed, n_excluded = order_accuracy(results)
        report = {"order_accuracy": acc, "n_followed": n_followed,
                  "n_excluded": n_excluded}
    else:
        joined = _join_truths(args, "count")
        answers = [p["output"] for p, _ in joined]
        truths = []
        for p, count in joined:
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"{args.truth}: count for audio_id "
                                 f"{p['audio_id']!r} must be an integer, "
                                 f"got {count!r}")
            truths.append(count)
        with naming(args.pred, args.truth):
            report = dataclasses.asdict(counting_probe(answers, truths))
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0


# -- parser ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="aqakit",
                     description="Forge audio QA data, train the toy audio "
                                 "LM, and score outputs.")
    subs = parser.add_subparsers(dest="command", metavar="subcommand")

    # out: "report" (--out optional, default stdout), "dataset" (--out
    # required: datasets never go to stdout) or None (no --out)
    def sub(name, func, out="report", **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if out == "report":
            p.add_argument("--out", help="output path (default: stdout)")
        elif out == "dataset":
            p.add_argument("--out", required=True, help="output path")
        return p

    def llm_flags(p):
        p.add_argument("--mock-llm", action="store_true",
                       help="use the offline deterministic client")
        p.add_argument("--llm-url", default="")
        p.add_argument("--api-key-env", default="LLM_API_KEY")
        p.add_argument("--responses",
                       help="JSON prompt->reply map for --mock-llm replay")

    def provider_flags(p):
        p.add_argument("--provider", choices=("hashed", "remote"),
                       default="hashed")
        p.add_argument("--llm-url", default="")
        p.add_argument("--api-key-env", default="LLM_API_KEY")

    p = sub("forge-closed", _cmd_forge_closed, out="dataset",
            help="rule-based closed-ended QA from meta JSONL")
    p.add_argument("--meta", required=True)
    p.add_argument("--feature-bank")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub("forge-open", _cmd_forge_open, out="dataset",
            help="LLM-assisted open-ended QA from meta JSONL")
    p.add_argument("--meta", required=True)
    llm_flags(p)

    p = sub("forge-features", _cmd_forge_features, out="dataset",
            help="acoustic feature descriptions per class, cached")
    p.add_argument("--classes", help="file with one class name per line")
    p.add_argument("--meta", help="derive classes from this meta JSONL")
    llm_flags(p)

    p = sub("sample-audioset", _cmd_sample_audioset,
            help="inverse-frequency weighted audio selection")
    p.add_argument("--labels", required=True,
                   help="JSON map audio_id -> [class, ...]")
    p.add_argument("--n", type=_int_at_least(1), required=True)

    p = sub("stats", _cmd_stats, help="dataset statistics as JSON")
    p.add_argument("--manifest", required=True)

    p = sub("validate", _cmd_validate, out=None, help="manifest schema check")
    p.add_argument("--manifest", required=True)

    p = sub("train", _cmd_train, out="dataset",
            help="run the scaled 4-stage curriculum")
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-dir", required=True)
    p.add_argument("--curriculum", help="stage file; default: scaled table")
    p.add_argument("--factor", type=float, default=1e-4)
    p.add_argument("--batch", type=_int_at_least(1), default=8)
    p.add_argument("--report", help="stage report JSONL path")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub("answer", _cmd_answer, help="one-question batch inference")
    p.add_argument("--audio", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--max-new-tokens", type=_int_at_least(1), default=64)
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub("eval-classify", _cmd_eval_classify,
            help="cosine classification metrics over predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--labels", required=True,
                   help="file with one label name per line")
    provider_flags(p)

    p = sub("eval-caption", _cmd_eval_caption,
            help="token-overlap caption score")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)

    p = sub("eval-judge", _cmd_eval_judge,
            help="LLM-judged instruction-following rate")
    p.add_argument("--pred", required=True)
    llm_flags(p)

    p = sub("probe", _cmd_probe, help="ordering / counting probes")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--kind", choices=("order", "counting"), required=True)
    provider_flags(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_usage())
        return args.func(args)
    except UsageError as exc:
        _eprint(f"aqakit: {exc}")
        return 1
    except (ValueError, KeyError) as exc:
        _eprint(f"aqakit: invalid input: {exc}")
        return 1
    except (OSError, RuntimeError) as exc:
        _eprint(f"aqakit: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
