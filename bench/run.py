"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs bench/worker.py in a child process whose environment pins BLAS and
OpenMP to one thread and imports aqakit from this checkout's src/, relays
its output, removes the worker's scratch files under bench/.work/, and
exits with the worker's exit code. The last line of stdout is the
result JSON: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Exits 2 without a result when the checkout holds no aqakit
sources, and 3 when the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_curriculum", "answer_decode", "eval_score", "ingest")
TIME_LIMIT_S = 175
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "aqakit" / "__init__.py").is_file():
        print(f"bench: no aqakit sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(src)}
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIME_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
