"""The four workloads: inputs made from the seed, one timed operation, and
the correctness checks that run outside the timed region.

Each workload calls the public functions the matching ``aqakit`` subcommand
calls, through their modules (``F.read_wav``, not a name imported here), so
the tracer's swapped bindings are the ones called.

Operations ("ops"):
  train_curriculum  one scaled curriculum run, like ``aqakit train``
  answer_decode     one answer request, like ``aqakit answer``
  eval_score        one batch of prediction rows through every scorer
  ingest            one batch of clips through fbank, forging and manifest IO
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import aqakit.evaluate as E
import aqakit.forge as FG
import aqakit.frontend as F
import aqakit.model as M
import aqakit.synthetic as S
import aqakit.training as T
from hostspeed import HostSpeed
from layers import CONTEXT_ERROR

_clock = time.perf_counter

DESK_INIT = {"out_scale": 0.35, "lora_a_scale": 0.5}  # as ``aqakit train``


@dataclass
class OpResult:
    attempted: int          # requests, steps, rows or clips tried
    failed: int
    items: int              # units of work completed (throughput numerator)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Interface the worker drives. Operations come in rounds of ROUND
    operations over the same inputs. ``latency`` holds the spans (start,
    end clock readings) of the latency reported end to end; their tail is
    the TAIL_PCT percentile. ``host`` is ticked where the workload leaves
    room between spans, and TICKS_PER_OP times after every operation."""

    ROUND: int
    TICKS_PER_OP = 1
    SPEED_EXPONENT = 1.0    # see hostspeed.py
    # the highest of 85, 90, 95, 99 with at least ten samples beyond it at
    # the seed commit's smallest per-run sample count whose spread over ten
    # runs stayed within a third of its bound (higher ones measured the
    # host's outliers: p95 spread 0.10 for train and ingest, p99 0.19 and
    # 0.20); fixed so that a faster program, which collects more samples,
    # is judged at the same one
    TAIL_PCT: int

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.latency: list[tuple[float, float]] = []
        self.problems: list[str] = []
        self.host = HostSpeed(enabled=False)

    def setup(self) -> None: ...
    def hook(self, patcher) -> None: ...
    def warm_up(self) -> None: ...
    def prepare(self, i: int) -> None: ...
    def op(self, i: int) -> OpResult: ...
    def verify(self, i: int, r: OpResult) -> None: ...
    def fingerprint(self) -> str: ...
    def finish(self) -> None: ...
    def details(self, m: "Timings") -> dict: ...

    def series(self) -> dict[str, list[tuple[float, float]]]:
        return {"latency": self.latency}


# -- train_curriculum ---------------------------------------------------------------

# stage-4 epoch-mean loss for seed 0 on x86-64 with OpenBLAS, one thread.
# The loss averages rounding away: a float32 softmax moves it by 9e-11
# relative, so the tolerance admits float64 summation-order changes only.
STAGE4_LOSS_SEED0 = 6.387220634059382
STAGE4_LOSS_RTOL = 1e-12


class TrainCurriculum(Workload):
    """``aqakit train`` on the 200-pair demo corpus: scaled curriculum
    (factor 1e-4, batch 8), a checkpoint and a report line per stage."""

    ROUND = 1
    TAIL_PCT = 90   # 267 steps in three curriculum runs

    def setup(self) -> None:
        root = _fresh_dir(self.workdir / "train")
        S.write_demo_corpus(root, seed=self.seed)
        pairs = FG.read_manifest(root / "manifest.jsonl")
        grids = {}
        for audio_id in sorted({p.audio_id for p in pairs}):
            wav = root / "audio" / f"{audio_id}.wav"
            grids[audio_id] = F.patchify(F.compute_fbank(F.read_wav(wav)))
        self.items = S.corpus_items(pairs, grids)
        self.stages = T.scale_curriculum(T.default_curriculum(), 1e-4)
        self.cfg = T.TrainerConfig(batch_size=8, seed=self.seed)
        self.base0 = {k: v.copy() for k, v in self._new_model().base.items()}
        self.out = self.workdir / "train" / "run"
        self.step_open: float | None = None
        self.steps_done = 0
        self.examples_done = 0
        self.losses: list[tuple] = []

    def _new_model(self):
        return M.AudioTextLm(M.DecoderConfig(), seed=self.seed, **DESK_INIT)

    def hook(self, patcher) -> None:
        """A step runs from its first example's loss_and_grads to the
        return of its sgd_step; the host is ticked after each step."""
        def loss_hook(fn):
            def timed(model, ex):
                if self.step_open is None:
                    self.step_open = _clock()
                self.examples_done += 1
                return fn(model, ex)
            return timed

        def step_hook(fn):
            def timed(model, *args, **kwargs):
                fn(model, *args, **kwargs)
                self.latency.append((self.step_open, _clock()))
                self.step_open = None
                self.steps_done += 1
                self.host.tick()
            return timed

        patcher.swap("aqakit.model.decoder:AudioTextLm.loss_and_grads", loss_hook)
        patcher.swap("aqakit.model.decoder:AudioTextLm.sgd_step", step_hook)

    def warm_up(self) -> None:
        model = self._new_model()
        for item in self.items[:2]:
            model.loss_and_grads(T.make_example(item, self.cfg.text_cutoff))
        self.latency.clear()
        self.step_open = None
        self.examples_done = 0

    def prepare(self, i: int) -> None:
        self.model = self._new_model()
        _fresh_dir(self.out)
        self.step_open = None

    def op(self, i: int) -> OpResult:
        steps0, examples0 = self.steps_done, self.examples_done
        self.reports = T.run_curriculum(self.model, self.items, self.stages, self.cfg,
                                        report_path=self.out / "stage_reports.jsonl",
                                        checkpoint_root=self.out)
        aborted = sum(r.aborted for r in self.reports)
        steps = self.steps_done - steps0
        return OpResult(attempted=steps + aborted, failed=aborted,
                        items=self.examples_done - examples0)

    def fingerprint(self) -> str:
        return _digest(self._losses(), *(self.model.lora[k].tobytes()
                                         for k in sorted(self.model.lora)))

    def _losses(self) -> tuple:
        return tuple((r.initial_loss, r.final_loss, tuple(r.epoch_mean_losses))
                     for r in self.reports)

    def verify(self, i: int, r: OpResult) -> None:
        reps = self.reports
        bad = self.problems.append
        if len(reps) != len(self.stages) or any(rep.aborted for rep in reps):
            bad(f"op {i}: curriculum aborted or incomplete ({len(reps)} stages)")
            return
        flat = [v for rep in reps for v in (rep.initial_loss, rep.final_loss,
                                             *rep.epoch_mean_losses)]
        if not all(math.isfinite(v) for v in flat):
            bad(f"op {i}: non-finite loss")
        if not all(np.array_equal(self.model.base[k], v) for k, v in self.base0.items()):
            bad(f"op {i}: frozen base changed")
        first, last = reps[0].epoch_mean_losses[0], reps[-1].epoch_mean_losses[-1]
        if not last < first:
            bad(f"op {i}: loss did not descend ({first} -> {last})")
        for s in self.stages:
            ckpt = self.out / f"stage{s.stage}"
            if not ((ckpt / "manifest.txt").is_file() and (ckpt / "tensors.bin").is_file()):
                bad(f"op {i}: no checkpoint for stage {s.stage}")
        lines = (self.out / "stage_reports.jsonl").read_text().splitlines()
        if len(lines) != len(self.stages):
            bad(f"op {i}: {len(lines)} report lines for {len(self.stages)} stages")
        if self.seed == 0 and not math.isclose(last, STAGE4_LOSS_SEED0,
                                               rel_tol=STAGE4_LOSS_RTOL, abs_tol=0.0):
            bad(f"op {i}: stage-4 loss {last!r} != pinned {STAGE4_LOSS_SEED0!r}")
        losses = self._losses()
        if self.losses and losses != self.losses[0]:
            bad(f"op {i}: losses differ from op 0 on identical inputs")
        self.losses.append(losses)

    def details(self, m) -> dict:
        return {
            "train_examples_per_s": (m.rate(), "examples/s"),
            "train_step_ms_p50": (m.p50("latency"), "ms"),
            "train_step_ms_tail": (m.tail("latency", self.TAIL_PCT), "ms"),
            "train_stage4_loss": (self.losses[-1][-1][2][-1], "nats"),
        }


# -- answer_decode ------------------------------------------------------------------

MAX_SEQ = M.DecoderConfig().max_seq_len
N_AUDIO = M.DecoderConfig().n_audio_tokens
BUDGETS = (8, 32, 64)
# The model is fixed; the seed varies only the requests. Some other
# initialisations stop at EOS within a few tokens, which would make decode
# length, and whether long questions overrun the context, depend on the seed.
MODEL_SEED = 0
SHORT_CLIP_S, LONG_CLIP_S = 2.0, 10.0


def can_overrun(question: str, budget: int) -> bool:
    """generate forwards up to prompt + budget - 1 text tokens, with the
    prompt being BOS + question bytes + SEP."""
    return N_AUDIO + len(question.encode()) + 2 + budget - 1 > MAX_SEQ


@dataclass(frozen=True)
class Request:
    clip: Path
    question: str
    budget: int


class AnswerDecode(Workload):
    """A closed loop of ``aqakit answer`` requests against one desk-scale
    model saved and loaded through the checkpoint code.

    A round is one block of 24 requests: each budget in BUDGETS 8 times,
    seven forged questions (45-95 bytes, one per seventh of the pool by
    length) and one compound question (140-150 bytes) per budget, 18 clips
    of 2 s and 6 of 10 s, shuffled by the seed.
    These proportions keep the TTFT median in the 2 s mode and its tail in
    the 10 s mode, and the request-latency median among the 32-token
    requests and its tail among the 64-token ones.

    ``aqakit answer`` prints nothing until the whole answer exists, so the
    end-to-end latency is the whole request; TTFT and TPOT are details.
    """

    ROUND = 24
    TICKS_PER_OP = 2
    # Over seven 25 s runs on a contended host (kernel 0.9-1.5 ms), the
    # spread of throughput and p50 across runs was 0.09-0.11 at exponent 1
    # and 0.05-0.06 at 0.85: requests slowed less than the kernel did.
    SPEED_EXPONENT = 0.8
    TAIL_PCT = 85   # about 100 successful requests
    TPOT_TAIL_PCT = 99   # about 3000 tokens

    def setup(self) -> None:
        root = _fresh_dir(self.workdir / "answer")
        M.save_checkpoint(root / "ckpt", M.AudioTextLm(M.DecoderConfig(), seed=MODEL_SEED,
                                                       **DESK_INIT))
        self.model = M.load_checkpoint(root / "ckpt")
        rng = np.random.default_rng([self.seed, 1])
        self.clips = {SHORT_CLIP_S: [], LONG_CLIP_S: []}
        for k in range(8):
            length = SHORT_CLIP_S if k < 6 else LONG_CLIP_S
            cls = S.DEMO_CLASSES[int(rng.integers(len(S.DEMO_CLASSES)))]
            path = root / f"clip{k}.wav"
            F.write_wav(path, S.make_demo_wave(cls.tone_hz, int(rng.integers(2**31)), length))
            self.clips[length].append(path)
        self.questions = forged_questions(self.seed)
        self.long_questions = compound_questions(self.questions, rng)
        self.block = self._block(rng)
        self.token_times: list[float] = []
        self.ttft: list[tuple[float, float]] = []
        self.tpot: list[tuple[float, float]] = []
        self.last: tuple | None = None

    def _block(self, rng) -> list[Request]:
        """Per budget: one compound question on a 2 s clip, and one forged
        question from each seventh of the pool sorted by length, those of
        the third and sixth sevenths on 10 s clips. Every seed then sends
        the same mix of prompt and clip lengths at each budget."""
        by_length = sorted(self.questions, key=lambda q: (len(q.encode()), q))
        strata = np.array_split(np.arange(len(by_length)), 7)

        def clip(length):
            return self.clips[length][int(rng.integers(len(self.clips[length])))]

        reqs = []
        for budget in BUDGETS:
            q = self.long_questions[int(rng.integers(len(self.long_questions)))]
            reqs.append(Request(clip(SHORT_CLIP_S), q, budget))
            for k, stratum in enumerate(strata):
                length = LONG_CLIP_S if k in (2, 5) else SHORT_CLIP_S
                reqs.append(Request(clip(length), by_length[int(rng.choice(stratum))], budget))
        return [reqs[j] for j in rng.permutation(self.ROUND)]

    def request(self, i: int) -> Request:
        return self.block[i % self.ROUND]

    def series(self) -> dict[str, list[tuple[float, float]]]:
        return {"latency": self.latency, "ttft": self.ttft, "tpot": self.tpot}

    def hook(self, patcher) -> None:
        """Timestamp each sampled token, the moment it exists."""
        def sample_hook(fn):
            def timed(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.token_times.append(_clock())
                return out
            return timed
        patcher.swap("aqakit.model.sampling:sample_next_id", sample_hook)

    def warm_up(self) -> None:
        self._answer(Request(self.clips[SHORT_CLIP_S][0], self.questions[0], 8))
        self.token_times.clear()

    def _answer(self, req: Request):
        """Returns (new ids, JSON record) or raises like ``aqakit answer``."""
        grid = F.patchify(F.compute_fbank(F.read_wav(req.clip)))
        prompt = np.array([M.BOS_ID] + M.encode_text(req.question) + [M.SEP_ID],
                          dtype=np.int64)
        cfg = M.GenerationConfig(max_new_tokens=req.budget, seed=self.seed)
        new_ids = M.generate(self.model, grid, prompt, cfg)
        record = {"audio_id": req.clip.stem, "question": req.question,
                  "output": M.decode_ids(new_ids)}
        return new_ids, json.dumps(record, ensure_ascii=False)

    def op(self, i: int) -> OpResult:
        req = self.request(i)
        self.token_times.clear()
        t0 = _clock()
        try:
            ids, _ = self._answer(req)
        except ValueError as exc:
            self.last = (req, None, str(exc))
            return OpResult(1, 1, 0)
        t1 = _clock()
        times = self.token_times
        self.latency.append((t0, t1))
        self.ttft.append((t0, times[0]))
        self.tpot.extend(zip(times, times[1:]))
        self.last = (req, ids, None)
        return OpResult(1, 0, len(ids))

    def fingerprint(self) -> str:
        req, ids, error = self.last
        return _digest(req, None if ids is None else ids.tobytes(), error)

    def verify(self, i: int, r: OpResult) -> None:
        req, ids, error = self.last
        if error is not None:
            if not (CONTEXT_ERROR.match(error) and can_overrun(req.question, req.budget)):
                self.problems.append(f"request {i}: unexpected failure {error!r}")
        elif not (len(ids) == req.budget or (0 < len(ids) and ids[-1] == M.EOS_ID)):
            self.problems.append(f"request {i}: {len(ids)} tokens for budget {req.budget}")

    def finish(self) -> None:
        """Greedy oracle: one request re-derived token by token from
        full-recompute forward and argmax after the repetition penalty."""
        req = next(r for r in self.block if not can_overrun(r.question, r.budget))
        grid = F.patchify(F.compute_fbank(F.read_wav(req.clip)))
        prompt = [M.BOS_ID] + M.encode_text(req.question) + [M.SEP_ID]
        cfg = M.GenerationConfig(temperature=0.0, max_new_tokens=min(req.budget, 16),
                                 seed=self.seed)
        got = [int(t) for t in M.generate(self.model, grid, np.array(prompt), cfg)]
        want: list[int] = []
        while len(want) < cfg.max_new_tokens and (not want or want[-1] != M.EOS_ID):
            logits = self.model.forward(grid, np.array(prompt + want))[-1].copy()
            for tid in set(want):
                v = logits[tid]
                logits[tid] = v / cfg.repetition_penalty if v > 0 else v * cfg.repetition_penalty
            want.append(int(np.argmax(logits)))
        if got != want:
            self.problems.append(f"greedy decode {got} != forward-argmax oracle {want}")

    def details(self, m) -> dict:
        return {
            "answer_request_ms_p50": (m.p50("latency"), "ms"),
            "answer_request_ms_tail": (m.tail("latency", self.TAIL_PCT), "ms"),
            "answer_ttft_ms_p50": (m.p50("ttft"), "ms"),
            "answer_ttft_ms_tail": (m.tail("ttft", self.TAIL_PCT), "ms"),
            "answer_tpot_ms_p50": (m.p50("tpot"), "ms"),
            "answer_tpot_ms_tail": (m.tail("tpot", self.TPOT_TAIL_PCT), "ms"),
            "answer_tokens_per_s": (m.rate(), "tokens/s"),
            "tpot_samples": (len(self.tpot), "count"),
        }


def demo_meta(rng, audio_id: str, n_events: int, max_s: float = S.CLIP_SECONDS):
    """A meta of n_events timed demo-class events within max_s seconds."""
    picks = [S.DEMO_CLASSES[int(c)]
             for c in rng.choice(len(S.DEMO_CLASSES), size=n_events, replace=False)]
    events = []
    for cls in picks:
        on = round(float(rng.uniform(0.0, max_s / 2)), 1)
        off = round(float(rng.uniform(on + 0.1, max_s)), 1)
        events.append(FG.SoundEvent(cls.label, cls.feature, on, max(off, on + 0.1)))
    return FG.AudioMeta(audio_id, events=events,
                        caption=" and ".join(cls.caption for cls in picks))


def forged_questions(seed: int) -> list[str]:
    """Distinct 45-95 byte questions from the closed and open-ended forgers."""
    rng = np.random.default_rng([seed, 3])
    client = FG.SynthLlmClient()
    pairs = []
    for meta in (demo_meta(rng, f"q{k}", 1 + k % 2) for k in range(16)):
        pairs.append(FG.gen_classification_qa(meta, None, rng))
        pairs.append(FG.gen_acoustic_feature_qa(meta, rng))
        pairs.extend(FG.gen_caption_qa(meta, rng))
        pairs.extend(FG.gen_temporal_qa(meta, rng))
        pairs.extend(FG.gen_open_ended_qa(meta, client))
    return sorted({p.question for p in pairs if 45 <= len(p.question.encode()) <= 95})


def compound_questions(questions: list[str], rng) -> list[str]:
    """Two forged questions joined, kept when 140-150 bytes long."""
    out = set()
    while len(out) < 8:
        a, b = rng.choice(len(questions), size=2, replace=False)
        q = f"{questions[a]} {questions[b]}"
        if 140 <= len(q.encode()) <= 150:
            out.add(q)
    return sorted(out)


# -- eval_score ---------------------------------------------------------------------

_WORDS_A = ("distant", "loud", "soft", "metal", "wooden", "electric", "rapid", "low",
            "high", "muffled", "sharp", "rolling", "steady", "broken", "hollow", "bright",
            "heavy", "light", "tiny", "giant", "urban", "rural", "indoor", "outdoor")
_WORDS_B = ("engine", "door", "bell", "horn", "drum", "whistle", "siren", "train", "rain",
            "wind", "crowd", "motor", "hammer", "saw", "clock", "phone", "guitar",
            "piano", "water", "fire", "thunder", "footsteps", "keyboard", "glass",
            "applause", "laughter", "traffic", "chime", "buzzer", "fan", "printer",
            "radio", "vacuum", "blender", "kettle", "alarm", "speech", "music")
AUDIOSET_SIZE = 527
BATCH_ROWS = 16


def label_names(seed: int) -> tuple[str, ...]:
    """527 distinct names: the 8 demo labels at seeded positions among
    two- and three-word synthetic names."""
    rng = np.random.default_rng([seed, 4])
    demo = [c.label for c in S.DEMO_CLASSES]
    names: set[str] = set()
    while len(names) < AUDIOSET_SIZE - len(demo):
        a = _WORDS_A[int(rng.integers(len(_WORDS_A)))]
        b = _WORDS_B[int(rng.integers(len(_WORDS_B)))]
        name = f"{a} {b}" if rng.random() < 0.6 else \
            f"{a} {b}, {_WORDS_B[int(rng.integers(len(_WORDS_B)))]}"
        if name.split()[-1] not in demo:
            names.add(name)
    out = sorted(names)
    for label in demo:
        out.insert(int(rng.integers(len(out) + 1)), label)
    return tuple(out)


@dataclass(frozen=True)
class EvalRow:
    truth: int              # demo class index
    output: str             # free-text answer to a classification question
    caption_out: str
    caption: str
    order_out: str
    order: tuple[str, str]  # (first, second) labels
    count_out: str
    count: int


def eval_rows(rng, n: int) -> list[EvalRow]:
    classes = S.DEMO_CLASSES
    numbers = ("one", "two", "three", "1", "2")
    rows = []
    for k in range(n):
        c = int(rng.integers(len(classes)))
        cls = classes[c]
        other = classes[(c + 1 + int(rng.integers(len(classes) - 1))) % len(classes)]
        said = cls if rng.random() < 0.7 else other
        if k % BATCH_ROWS == 2 or rng.random() < 0.1:   # a tie between two labels
            output = f"Either a {other.label} or a {cls.label}."
        elif rng.random() < 0.5:
            output = f"The {said.label} sound is {said.feature}."
        else:
            output = f"I can hear a {said.label}, {said.caption}."
        words = cls.caption.split()
        keep = [w for w in words if rng.random() < 0.8] or words[:1]
        caption_out = " ".join(keep + [_WORDS_B[int(rng.integers(len(_WORDS_B)))]])
        first, second = (cls, other) if rng.random() < 0.5 else (other, cls)
        named = first if rng.random() < 0.75 else second
        order_out = (f"The {named.label} sound comes first." if rng.random() < 0.85
                     else "Both sounds overlap in the clip.")
        count = 1 + int(rng.integers(2))
        if k % BATCH_ROWS < 2:   # every batch holds both counts, parsed right
            count = 1 + k % BATCH_ROWS
            count_out = f"I hear {numbers[count - 1]} {cls.label} sounds."
        elif rng.random() < 0.9:
            count_out = f"I hear {numbers[int(rng.integers(len(numbers)))]} {cls.label} sounds."
        else:
            count_out = "It is hard to say."
        rows.append(EvalRow(c, output, caption_out, cls.caption, order_out,
                            (first.label, second.label), count_out, count))
    return rows


def brute_cosine(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


class EvalScore(Workload):
    """Prediction rows scored as ``eval-classify`` (8 demo labels and 527
    AudioSet-size labels), ``eval-caption`` and ``probe`` score them."""

    N_BATCHES = 32
    ROUND = N_BATCHES
    TAIL_PCT = 95   # about 250 batches
    SCORE_ATOL = 1e-12

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 5])
        self.provider = E.HashedBagOfWordsProvider()
        self.label_sets = (E.LabelSet(tuple(c.label for c in S.DEMO_CLASSES)),
                           E.LabelSet(label_names(self.seed)))
        self.rows = eval_rows(rng, self.N_BATCHES * BATCH_ROWS)
        self.truth_index = []
        for labels in self.label_sets:
            index = {n: j for j, n in enumerate(labels.names)}
            self.truth_index.append([index[S.DEMO_CLASSES[r.truth].label] for r in self.rows])
        self.kept: tuple | None = None

    def batch(self, i: int) -> list[int]:
        lo = (i % self.N_BATCHES) * BATCH_ROWS
        return list(range(lo, lo + BATCH_ROWS))

    def warm_up(self) -> None:
        self.op(0)
        self.latency.clear()

    def op(self, i: int) -> OpResult:
        t0 = _clock()
        rows = [self.rows[j] for j in self.batch(i)]
        outputs = [r.output for r in rows]
        results, scores = [], []
        for labels, index in zip(self.label_sets, self.truth_index):
            res = E.classify_corpus(outputs, labels, self.provider)
            truth = [index[j] for j in self.batch(i)]
            matrix = np.zeros((len(rows), len(labels.names)), dtype=int)
            matrix[np.arange(len(rows)), truth] = 1
            scores.append((E.micro_f1([{p} for p in res.predictions], [{t} for t in truth]),
                           E.mean_average_precision(res.scores, matrix)))
            results.append(res)
        captions = [E.caption_overlap_f1(r.caption_out, [r.caption]) for r in rows]
        orders = [E.order_probe(r.order_out, *r.order, self.provider) for r in rows]
        order_acc = E.order_accuracy(orders)
        counting = E.counting_probe([r.count_out for r in rows], [r.count for r in rows])
        self.latency.append((t0, _clock()))
        self.kept = (results, scores, captions, orders, order_acc, counting)
        return OpResult(len(rows), 0, len(rows))

    def fingerprint(self) -> str:
        results, *rest = self.kept
        return _digest(*(res.scores.tobytes() for res in results), rest)

    def verify(self, i: int, r: OpResult) -> None:
        results, scores, captions, _, order_acc, counting = self.kept
        bad = self.problems.append
        for f1, ap in scores:
            if not (0.0 <= f1 <= 1.0 and 0.0 <= ap <= 1.0):
                bad(f"batch {i}: micro-F1 {f1} or mAP {ap} outside [0, 1]")
        if not all(0.0 <= c <= 1.0 for c in captions) or not 0.0 <= order_acc[0] <= 1.0:
            bad(f"batch {i}: caption or order score outside [0, 1]")
        if counting.pearson_r is None or not -1.0 <= counting.pearson_r <= 1.0:
            bad(f"batch {i}: bad counting probe {counting}")
        if i == 0:
            self._check_classify(results)

    def _check_classify(self, results) -> None:
        """The first batch against a brute-force cosine loop; exact ties,
        which every batch holds, go to the lowest label index."""
        rows = [self.rows[j] for j in self.batch(0)]
        for labels, res in zip(self.label_sets, results):
            label_vecs = [self.provider.embed(n) for n in labels.names]
            for k in range(len(rows)):
                e = self.provider.embed(rows[k].output)
                want = np.array([brute_cosine(e, lv) for lv in label_vecs])
                got = res.scores[k]
                if got.shape != want.shape or np.max(np.abs(got - want)) > self.SCORE_ATOL:
                    self.problems.append(f"row {k}: scores differ from brute force "
                                         f"({len(labels.names)} labels)")
                    continue
                # the exact argmax, or the lowest index within SCORE_ATOL of it
                # when a faster scorer rounds tied scores differently
                allowed = {int(np.argmax(want)),
                           int(np.flatnonzero(want >= want.max() - self.SCORE_ATOL)[0])}
                if res.predictions[k] not in allowed:
                    self.problems.append(f"row {k}: argmax {res.predictions[k]} not in "
                                         f"{sorted(allowed)} ({len(labels.names)} labels)")

    def details(self, m) -> dict:
        return {"eval_outputs_per_s": (m.rate(), "rows/s")}


# -- ingest -------------------------------------------------------------------------

N_CLIPS = 40
MIN_CLIP_S, MAX_CLIP_S = 1.0, 12.0


class Ingest(Workload):
    """What runs before training: WAV -> fbank -> patches per clip, then
    closed-ended and mock-LLM open-ended forging over the metas, manifest
    write/read/validate and dataset statistics.

    Clip lengths are stratified over 1-12 s (one per 1/40 of the range,
    jittered and shuffled by the seed) so every batch has the same length
    mix; clips past 10.24 s exceed the 1024-frame target and are truncated.
    """

    ROUND = 4
    TAIL_PCT = 90   # about 1000 clips

    def setup(self) -> None:
        root = _fresh_dir(self.workdir / "ingest")
        rng = np.random.default_rng([self.seed, 6])
        span = MAX_CLIP_S - MIN_CLIP_S
        lengths = MIN_CLIP_S + span * (np.arange(N_CLIPS) + rng.random(N_CLIPS)) / N_CLIPS
        rng.shuffle(lengths)
        self.metas, self.clips = [], []
        for k, length in enumerate(lengths):
            meta = demo_meta(rng, f"clip{k:03d}", 1 + k % 2, max_s=float(length))
            F.write_wav(root / f"{meta.audio_id}.wav", event_wave(meta, float(length), rng))
            self.metas.append(meta)
            self.clips.append(root / f"{meta.audio_id}.wav")
        self.manifest = root / "manifest.jsonl"
        self.kept = None

    def warm_up(self) -> None:
        self.op(0)
        self.latency.clear()

    def op(self, i: int) -> OpResult:
        specs, grids = [], []
        for path in self.clips:
            t0 = _clock()
            spec = F.compute_fbank(F.read_wav(path))
            grids.append(F.patchify(spec))
            self.latency.append((t0, _clock()))
            specs.append(spec)
            self.host.tick()
        pairs = []
        for k, meta in enumerate(self.metas):
            rng = np.random.default_rng([self.seed, k])
            pairs.append(FG.gen_classification_qa(meta, None, rng))
            pairs.append(FG.gen_acoustic_feature_qa(meta, rng))
            pairs.extend(FG.gen_caption_qa(meta, rng))
            pairs.extend(FG.gen_temporal_qa(meta, rng))
        client = FG.SynthLlmClient()
        for meta in self.metas:
            pairs.extend(FG.gen_open_ended_qa(meta, client))
        FG.write_manifest(self.manifest, pairs)
        back = FG.read_manifest(self.manifest)
        problems = FG.validate_manifest(self.manifest)
        stats = FG.compute_dataset_stats(back)
        self.kept = (specs, grids, pairs, back, problems, stats)
        return OpResult(len(self.clips), 0, len(self.clips))

    def fingerprint(self) -> str:
        _, grids, pairs, *_ = self.kept
        return _digest(*(g.patches.tobytes() for g in grids),
                       [FG.qa_to_dict(p) for p in pairs])

    def verify(self, i: int, r: OpResult) -> None:
        specs, grids, pairs, back, problems, stats = self.kept
        bad = self.problems.append
        if i == 0:
            for k, (spec, grid) in enumerate(zip(specs, grids)):
                if spec.frames.shape != (1024, 128) or not np.array_equal(
                        F.reassemble_patches(grid).frames, spec.frames):
                    bad(f"clip {k}: patchify/reassemble round trip is not exact")
        if back != pairs:
            bad(f"batch {i}: manifest does not round-trip")
        if problems:
            bad(f"batch {i}: validate_manifest reports {problems[:3]}")
        n_open = sum(p.task == "open_ended" for p in pairs)
        if stats.total_pairs != len(pairs) or n_open == 0:
            bad(f"batch {i}: stats count {stats.total_pairs} pairs of {len(pairs)}, "
                f"{n_open} open-ended")

    def details(self, m) -> dict:
        return {"ingest_clips_per_s": (m.rate(), "clips/s")}


def event_wave(meta, length_s: float, rng):
    """Noise floor plus one demo tone per event over its timestamps."""
    n = int(round(length_s * F.SAMPLE_RATE_HZ))
    t = np.arange(n) / F.SAMPLE_RATE_HZ
    x = 0.02 * rng.standard_normal(n)
    tones = {c.label: c.tone_hz for c in S.DEMO_CLASSES}
    for ev in meta.events:
        on = (t >= ev.onset_s) & (t < ev.offset_s)
        x[on] += 0.5 * np.sin(2 * np.pi * tones[ev.label] * t[on])
    return F.Waveform(np.clip(x, -1.0, 1.0))


# -- shared -------------------------------------------------------------------------

def percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else math.nan


def wall_s(t0, t1) -> np.ndarray:
    return np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float)


class Timings:
    """One run's spans in the time ``to_s`` gives them: wall seconds
    (``wall_s``) or reference seconds (``HostSpeed.reference_s``).

    ``ops`` holds one (start, end, seconds ticking inside, items) per
    operation. Throughput is the median over whole rounds of identical
    inputs of items over time in operations; p50 and tail are taken over
    every span of the run.
    """

    def __init__(self, to_s, series: dict[str, list[tuple[float, float]]],
                 ops: list[tuple[float, float, float, int]], round_len: int) -> None:
        t0, t1, ticking, items = (np.asarray(c, dtype=float) for c in zip(*ops))
        busy = to_s(t0, t1) * (1.0 - ticking / (t1 - t0))
        self.rates = [float(items[a:a + round_len].sum() / busy[a:a + round_len].sum())
                      for a in range(0, len(ops) - round_len + 1, round_len)]
        self.ms = {k: 1e3 * to_s(*np.asarray(v, dtype=float).reshape(-1, 2).T)
                   for k, v in series.items()}

    def rate(self) -> float:
        return float(np.median(self.rates))

    def p50(self, name: str) -> float:
        return percentile(self.ms[name], 50)

    def tail(self, name: str, q: float) -> float:
        return percentile(self.ms[name], q)


WORKLOADS = {
    "train_curriculum": TrainCurriculum,
    "answer_decode": AnswerDecode,
    "eval_score": EvalScore,
    "ingest": Ingest,
}
