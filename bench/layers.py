"""Where the benchmark traces aqakit, and the per-layer metrics it derives.

Every trace point is a public entry point of one layer (``frontend``,
``model``, ``training``, ``forge``, ``evaluate``), wrapped from here; the
package itself is not modified. ``cli`` is thin dispatch and ``synthetic``
only generates inputs, so neither is a layer here. Per-block attention and
MLP spans would need tracing inside ``decoder.py`` and are not recorded.

Per-layer metrics are normalised per workload operation ("op": one
curriculum pass, one answer request, one eval batch, one ingest batch), per
call, or per clip, as their unit says, so runs of different length compare.
"""

from __future__ import annotations

import re
from collections import defaultdict
from pathlib import Path

import numpy as np
from aqakit.frontend import FbankConfig

from tracing import Patcher, Tracer, self_times, span_table

CONTEXT_ERROR = re.compile(r"^sequence length (\d+) exceeds max (\d+)$")


# -- observers: counts taken where the work happens ---------------------------

def _fbank_frames(tr, sid, args, kwargs, result, error):
    if error is None:
        cfg = (args[1] if len(args) > 1 else kwargs.get("cfg")) or FbankConfig()
        n = (args[0].samples.size - cfg.window_samples) // cfg.hop_samples + 1
        tr.counts["fbank_frames"] += min(n, cfg.target_frames)


def _encoded_clip(tr, sid, args, kwargs, result, error):
    tr.distinct["clips"].add((tr.request_id, id(args[0])))


def _forward(tr, sid, args, kwargs, result, error):
    if error is not None:
        if isinstance(error, ValueError) and CONTEXT_ERROR.match(str(error)):
            tr.counts["context_overflow"] += 1
        return
    model, text_ids = args[0], args[2] if len(args) > 2 else kwargs["text_ids"]
    positions = model.cfg.n_audio_tokens + np.asarray(text_ids).size
    tr.counts["forward_positions"] += positions
    if tr.parent_name(sid) == "model.generate":
        tr.counts["generate_positions"] += positions


def _sgd_step(tr, sid, args, kwargs, result, error):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    allowed = args[3] if len(args) > 3 else kwargs.get("allowed")
    tr.counts["grad_computed"] += sum(g.size for g in grads.values())
    tr.counts["grad_applied"] += sum(g.size for n, g in grads.items()
                                     if allowed is None or n in allowed)


def _generated(tr, sid, args, kwargs, result, error):
    if error is None:
        tr.counts["generated_tokens"] += len(result)


def _stage(tr, sid, args, kwargs, result, error):
    stage = args[2] if len(args) > 2 else kwargs["stage"]
    tr.counts[f"stage{stage.stage}_s"] += tr.ends[sid] - tr.starts[sid]


def _example_tokens(tr, sid, args, kwargs, result, error):
    if error is None:
        tr.counts["text_tokens"] += result.text_tokens.size


def _checkpoint_bytes(tr, sid, args, kwargs, result, error):
    if error is None:
        path = Path(args[0] if args else kwargs["path"])
        tr.counts["checkpoint_bytes"] += sum(f.stat().st_size for f in path.iterdir()
                                             if f.is_file())


def _pairs(tr, sid, args, kwargs, result, error):
    if error is None:
        tr.counts["pairs"] += len(result) if isinstance(result, list) else 1


# (span name, binding, observer); leaves are counted, not stored
SPANS = (
    ("frontend.read_wav", "aqakit.frontend:read_wav", None),
    ("frontend.compute_fbank", "aqakit.frontend:compute_fbank", _fbank_frames),
    ("frontend.patchify", "aqakit.frontend:patchify", None),
    ("frontend.encode_patches", "aqakit.frontend:encode_patches", _encoded_clip),
    ("model.forward", "aqakit.model.decoder:AudioTextLm.forward", _forward),
    ("model.loss_and_grads", "aqakit.model.decoder:AudioTextLm.loss_and_grads", None),
    ("model.sgd_step", "aqakit.model.decoder:AudioTextLm.sgd_step", _sgd_step),
    ("model.generate", "aqakit.model.sampling:generate", _generated),
    ("model.sample_next_id", "aqakit.model.sampling:sample_next_id", None),
    ("model.save_checkpoint", "aqakit.model.checkpoint:save_checkpoint", _checkpoint_bytes),
    ("model.load_checkpoint", "aqakit.model.checkpoint:load_checkpoint", None),
    ("training.run_curriculum", "aqakit.training.trainer:run_curriculum", None),
    ("training.run_stage", "aqakit.training.trainer:run_stage", _stage),
    ("training.make_example", "aqakit.training.trainer:make_example", _example_tokens),
    ("forge.gen_classification_qa", "aqakit.forge.closed:gen_classification_qa", _pairs),
    ("forge.gen_acoustic_feature_qa", "aqakit.forge.closed:gen_acoustic_feature_qa", _pairs),
    ("forge.gen_caption_qa", "aqakit.forge.closed:gen_caption_qa", _pairs),
    ("forge.gen_temporal_qa", "aqakit.forge.closed:gen_temporal_qa", _pairs),
    ("forge.gen_open_ended_qa", "aqakit.forge.aig:gen_open_ended_qa", _pairs),
    ("forge.llm_complete", "aqakit.forge.llm:SynthLlmClient.complete", None),
    ("forge.write_manifest", "aqakit.forge.qa:write_manifest", None),
    ("forge.read_manifest", "aqakit.forge.qa:read_manifest", None),
    ("forge.validate_manifest", "aqakit.forge.qa:validate_manifest", None),
    ("forge.compute_dataset_stats", "aqakit.forge.stats:compute_dataset_stats", None),
    ("evaluate.classify_corpus", "aqakit.evaluate.classify:classify_corpus", None),
    ("evaluate.classify_output", "aqakit.evaluate.classify:classify_output", None),
    ("evaluate.micro_f1", "aqakit.evaluate.classify:micro_f1", None),
    ("evaluate.mean_average_precision",
     "aqakit.evaluate.classify:mean_average_precision", None),
    ("evaluate.caption_overlap_f1", "aqakit.evaluate.caption:caption_overlap_f1", None),
    ("evaluate.order_probe", "aqakit.evaluate.probes:order_probe", None),
    ("evaluate.counting_probe", "aqakit.evaluate.probes:counting_probe", None),
)
LEAVES = (
    ("evaluate.cosine", "aqakit.evaluate.providers:cosine"),
    ("evaluate.embed", "aqakit.evaluate.providers:HashedBagOfWordsProvider.embed"),
)


def install(tracer: Tracer) -> Patcher:
    """Wrap every trace point; the caller restores the returned Patcher."""
    patcher = Patcher()
    for name, target in LEAVES:
        patcher.swap(target, tracer.leaf_wrapper(name))
    for name, target, observe in SPANS:
        patcher.swap(target, tracer.span_wrapper(name, observe))
    return patcher


# -- per-layer metrics -----------------------------------------------------------

# name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "frontend.fbank_ms_per_clip": "ms/clip",
    "frontend.fbank_frames": "frames/clip",
    "frontend.read_wav_ms_per_clip": "ms/clip",
    "frontend.patchify_ms_per_clip": "ms/clip",
    "frontend.encode_patches_calls": "calls/op",
    "frontend.encode_patches_ms": "ms/op",
    "frontend.encode_useful_ratio": "ratio",
    "model.forward_calls": "calls/op",
    "model.forward_positions": "positions/op",
    "model.forward_ms": "ms/op",
    "model.decode_useful_ratio": "ratio",
    "model.prefill_ms": "ms/request",
    "model.decode_step_ms": "ms/token",
    "model.sample_ms": "ms/token",
    "model.train_forward_ms": "ms/op",
    "model.backward_ms": "ms/op",
    "model.sgd_step_ms": "ms/op",
    "model.checkpoint_save_ms": "ms/op",
    "model.checkpoint_bytes": "bytes/save",
    "model.checkpoint_load_ms": "ms/load",
    "model.context_overflow_count": "count/op",
    "training.steps": "steps/op",
    "training.examples": "examples/op",
    "training.text_tokens": "tokens/op",
    "training.stage1_s": "s/op",
    "training.stage2_s": "s/op",
    "training.stage3_s": "s/op",
    "training.stage4_s": "s/op",
    "training.make_example_ms": "ms/op",
    "training.self_ms": "ms/op",
    "training.grad_applied_ratio": "ratio",
    "forge.pairs": "pairs/op",
    "forge.gen_ms": "ms/op",
    "forge.llm_calls": "calls/op",
    "forge.manifest_io_ms": "ms/op",
    "forge.stats_ms": "ms/op",
    "evaluate.embed_calls": "calls/op",
    "evaluate.embed_ms": "ms/op",
    "evaluate.cosine_calls": "calls/op",
    "evaluate.classify_ms": "ms/op",
    "evaluate.map_ms": "ms/op",
    "evaluate.caption_ms": "ms/op",
    "evaluate.probe_ms": "ms/op",
    "trace.overhead_pct": "%",
    "trace.overhead_ms": "ms/op",
    "trace.spans": "spans/op",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _decode_intervals(tr: Tracer) -> tuple[list[float], list[float]]:
    """Prefill = generate start to the end of its first sampling; each
    decode step = the gap between consecutive samplings."""
    samples = defaultdict(list)
    for i, name in enumerate(tr.names):
        if name == "model.sample_next_id" and tr.parent_name(i) == "model.generate":
            samples[tr.parents[i]].append(tr.ends[i])
    prefill, steps = [], []
    for gen, ends in samples.items():
        prefill.append(ends[0] - tr.starts[gen])
        steps.extend(b - a for a, b in zip(ends, ends[1:]))
    return prefill, steps


def per_layer_metrics(tr: Tracer, setup_tr: Tracer, ops: int, overhead_s: float,
                      untraced_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the traced operations; checkpoint
    loading happens in set-up, so it comes from the traced set-up."""
    table = span_table(tr)
    loads = span_table(setup_tr).get("model.load_checkpoint")
    ops = max(ops, 1)

    def calls(name):
        return table[name].calls if name in table else 0

    def self_ms(*names):
        return 1e3 * sum(table[n].self_s for n in names if n in table)

    def total_ms(*names):
        return 1e3 * sum(table[n].total_s for n in names if n in table)

    def leaf(name, parents=None):
        hits = [v for (p, n), v in tr.leaves.items()
                if n == name and (parents is None or p in parents)]
        return sum(c for c, _ in hits), 1e3 * sum(s for _, s in hits)

    selfs = self_times(tr.starts, tr.ends, tr.parents, tr.leaf_time)
    train_forward = 1e3 * sum(selfs[i] for i, n in enumerate(tr.names)
                              if n == "model.forward"
                              and tr.parent_name(i) == "model.loss_and_grads")
    prefill, steps = _decode_intervals(tr)
    _, classify_embed_ms = leaf("evaluate.embed", ("evaluate.classify_corpus",
                                                   "evaluate.classify_output"))
    embed_calls, embed_ms = leaf("evaluate.embed")
    cosine_calls, _ = leaf("evaluate.cosine")
    n_fbank = calls("frontend.compute_fbank")
    c = tr.counts
    values = {
        "frontend.fbank_ms_per_clip": _ratio(total_ms("frontend.compute_fbank"), n_fbank),
        "frontend.fbank_frames": _ratio(c["fbank_frames"], n_fbank),
        "frontend.read_wav_ms_per_clip": _ratio(total_ms("frontend.read_wav"),
                                                calls("frontend.read_wav")),
        "frontend.patchify_ms_per_clip": _ratio(total_ms("frontend.patchify"),
                                                calls("frontend.patchify")),
        "frontend.encode_patches_calls": calls("frontend.encode_patches") / ops,
        "frontend.encode_patches_ms": self_ms("frontend.encode_patches") / ops,
        "frontend.encode_useful_ratio": _ratio(len(tr.distinct["clips"]),
                                               calls("frontend.encode_patches")),
        "model.forward_calls": calls("model.forward") / ops,
        "model.forward_positions": c["forward_positions"] / ops,
        "model.forward_ms": self_ms("model.forward") / ops,
        "model.decode_useful_ratio": _ratio(c["generated_tokens"], c["generate_positions"]),
        "model.prefill_ms": 1e3 * _ratio(sum(prefill), len(prefill)),
        "model.decode_step_ms": 1e3 * _ratio(sum(steps), len(steps)),
        "model.sample_ms": _ratio(self_ms("model.sample_next_id"),
                                  calls("model.sample_next_id")),
        "model.train_forward_ms": train_forward / ops,
        "model.backward_ms": self_ms("model.loss_and_grads") / ops,
        "model.sgd_step_ms": self_ms("model.sgd_step") / ops,
        "model.checkpoint_save_ms": total_ms("model.save_checkpoint") / ops,
        "model.checkpoint_bytes": _ratio(c["checkpoint_bytes"],
                                         calls("model.save_checkpoint")),
        "model.checkpoint_load_ms": _ratio(1e3 * loads.total_s, loads.calls) if loads else 0.0,
        "model.context_overflow_count": c["context_overflow"] / ops,
        "training.steps": calls("model.sgd_step") / ops,
        "training.examples": calls("training.make_example") / ops,
        "training.text_tokens": c["text_tokens"] / ops,
        **{f"training.stage{k}_s": c[f"stage{k}_s"] / ops for k in range(1, 5)},
        "training.make_example_ms": total_ms("training.make_example") / ops,
        "training.self_ms": self_ms("training.run_stage") / ops,
        "training.grad_applied_ratio": _ratio(c["grad_applied"], c["grad_computed"]),
        "forge.pairs": c["pairs"] / ops,
        "forge.gen_ms": total_ms("forge.gen_classification_qa", "forge.gen_acoustic_feature_qa",
                                 "forge.gen_caption_qa", "forge.gen_temporal_qa",
                                 "forge.gen_open_ended_qa") / ops,
        "forge.llm_calls": calls("forge.llm_complete") / ops,
        "forge.manifest_io_ms": total_ms("forge.write_manifest", "forge.read_manifest",
                                         "forge.validate_manifest") / ops,
        "forge.stats_ms": total_ms("forge.compute_dataset_stats") / ops,
        "evaluate.embed_calls": embed_calls / ops,
        "evaluate.embed_ms": embed_ms / ops,
        "evaluate.cosine_calls": cosine_calls / ops,
        "evaluate.classify_ms": (total_ms("evaluate.classify_corpus")
                                 - classify_embed_ms) / ops,
        "evaluate.map_ms": total_ms("evaluate.mean_average_precision") / ops,
        "evaluate.caption_ms": total_ms("evaluate.caption_overlap_f1") / ops,
        "evaluate.probe_ms": total_ms("evaluate.order_probe",
                                      "evaluate.counting_probe") / ops,
        "trace.overhead_pct": 100.0 * _ratio(overhead_s, untraced_s),
        "trace.overhead_ms": 1e3 * overhead_s / ops,
        "trace.spans": len(tr.names) / ops,
    }
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics and their units disagree")
    return values
