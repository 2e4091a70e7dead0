"""One benchmark run of one workload, in a process of its own.

Started by run.py with BLAS threads pinned to one. Imports, sets up
SETUPS times (setup_s is import time plus the median set-up), warms up,
then runs operations back to back, one caller in a closed loop, in rounds
over the same inputs until the given number of seconds has passed and the
round is complete. Correctness checks run outside the timed region.

End-to-end times are reference times (hostspeed.py): the calibration kernel
ticks after the import, between set-ups and between operations, and each
span's wall time is scaled by the host speed around it. The details line
gives the same metrics in wall time.

With --trace 1 every operation runs twice, untraced and traced, in
alternating order; the traced run must reproduce the untraced results
exactly, the per-layer metrics come from the traced runs, and the tracing
overhead is the traced minus the untraced time.

The last line of stdout is the result JSON; lines before it are details.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Patcher, Tracer, format_table, span_table  # noqa: E402

_T1 = time.perf_counter()
SETUPS = 5
SETUP_TICKS = 25
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "items/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
}


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    # eval-classify warns about label columns without positives; 519 of the
    # 527 AudioSet-size columns have none in every batch
    warnings.filterwarnings("ignore", message="classes without positives")
    return run(args)


def run(args) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer, setup_tracer = (Tracer(), Tracer()) if args.trace else (None, None)
    # ticks would count in the traced spans; trace runs report no times end to end
    host = wl.host = HostSpeed(enabled=not args.trace, exponent=wl.SPEED_EXPONENT)
    host.tick(SETUP_TICKS)
    setup_spans = []
    for k in range(SETUPS):
        patch = layers.install(setup_tracer) if setup_tracer and k == SETUPS - 1 else None
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            t1 = time.perf_counter()
            if patch:
                patch.restore()
        setup_spans.append((t0, t1))
        host.tick(SETUP_TICKS)

    def timed_op(i: int, traced: bool):
        wl.prepare(i)
        patch = None
        if traced:
            tracer.request_id = i
            patch = layers.install(tracer)
        ticked = host.spent
        t0 = time.perf_counter()
        try:
            r = wl.op(i)
        finally:
            t1 = time.perf_counter()
            if patch:
                patch.restore()
        ticked = host.spent - ticked
        wl.verify(i, r)
        host.tick(wl.TICKS_PER_OP)
        return r, (t0, t1, ticked)

    hooks = Patcher()
    wl.hook(hooks)
    try:
        wl.warm_up()
        host.tick(SETUP_TICKS)
        untraced = traced = 0.0
        ops = attempted = failed = 0
        op_spans = []
        t_loop = time.perf_counter()
        # whole rounds only: the last one may end after the given seconds
        while ops % wl.ROUND or ops == 0 or time.perf_counter() - t_loop < args.seconds:
            if tracer:
                # alternate which of the pair runs first
                prints = []
                for with_trace in ((False, True) if ops % 2 == 0 else (True, False)):
                    r_run, (t0, t1, _) = timed_op(ops, with_trace)
                    prints.append(wl.fingerprint())
                    if with_trace:
                        r, traced = r_run, traced + t1 - t0
                    else:
                        untraced += t1 - t0
                if prints[0] != prints[1]:
                    wl.problems.append(f"op {ops}: traced result differs from untraced")
            else:
                r, span = timed_op(ops, False)
                op_spans.append((*span, r.items))
            ops += 1
            attempted += r.attempted
            failed += r.failed
        wl.finish()
    finally:
        hooks.restore()

    details = {"workload": args.workload, "ops": ops, "provenance": provenance(args.seed)}
    if tracer:
        metrics = layers.per_layer_metrics(tracer, setup_tracer, ops, traced - untraced,
                                           untraced)
        units = layers.PER_LAYER
        print(format_table(span_table(tracer), ops, traced / ops))
        print(f"tracing overhead: {1e3 * (traced - untraced) / ops:.3f} ms/op "
              f"({100 * (traced - untraced) / untraced:.2f}% of {untraced:.3f} s untraced)")
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        timings = {}
        for clock, to_s in (("reference", host.reference_s), ("wall", workloads.wall_s)):
            m = workloads.Timings(to_s, wl.series(), op_spans, wl.ROUND)
            setup = to_s(*np.array(setup_spans).T)
            timings[clock] = m, {
                "setup_s": float(to_s(_T0, _T1) + np.median(setup)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "throughput": m.rate(),
                "latency_ms_p50": m.p50("latency"),
                "latency_ms_tail": m.tail("latency", wl.TAIL_PCT),
            }
        ref, metrics = timings["reference"]
        units = END_TO_END
        named = {
            "setup_s": (metrics["setup_s"], "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "fail_ratio": (failed / attempted, "ratio"),
            **wl.details(ref),
        }
        details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        wall, wall_metrics = timings["wall"]
        details["wall_clock"] = {"metrics": wall_metrics, **{
            k: v for k, (v, _) in wl.details(wall).items()}}
        details["calibration"] = {"ticks": len(host.durs), "tick_ms_median": 1e3 * float(
            np.median(host.durs)), "ticking_s": host.spent, "exponent": host.exponent}
        details["rounds"] = {"count": len(ref.rates), "ops_per_round": wl.ROUND,
                             "rates": ref.rates, "wall_rates": wall.rates}
        lat = ref.ms["latency"]
        details["tail"] = {"percentile": wl.TAIL_PCT, "latency_samples": len(lat),
                           "samples_beyond": int(np.sum(lat > metrics["latency_ms_tail"])),
                           "latency_ms": {p: workloads.percentile(lat, p)
                                          for p in (50, 85, 90, 95, 99)}}
        details["setup_runs_s"] = [float(x) for x in host.reference_s(*np.array(setup_spans).T)]
        details["import_s"] = _T1 - _T0
    print(json.dumps(details))
    for p in wl.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not wl.problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
