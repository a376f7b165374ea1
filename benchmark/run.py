#!/usr/bin/env python3
"""Benchmark of hafformer: paper-length training, desk-length training and
inference from files. See README.md next to this file.

Run from the repository root, with BLAS held to one thread before the
interpreter starts (BENCHMARK.json's command does this):

    env HAFF_THREADS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 benchmark/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("HAFF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# process CPU time may exceed wall time by this share before BLAS counts as threaded
CPU_OVER_WALL = 1.05
IMPORT_REPEATS = 4  # fresh interpreters that time the import, beside this process
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import hafformer; print(time.perf_counter() - t0)"
)

END_TO_END = {"setup_s": "s", "samples_per_s": "samples/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model.forward_ms": "ms",
    "model.forward.projection_ms": "ms",
    "model.forward.merge_ms": "ms",
    "model.forward.rest_ms": "ms",
    "model.forward.projection_gmac_s": "GMAC/s",
    "mixers.token_ms": "ms",
    "mixers.channel_ms": "ms",
    "mixers.token_gmac_s": "GMAC/s",
    "mixers.channel_gmac_s": "GMAC/s",
    "tensor.backward_ms": "ms",
    "tensor.backward.projection_ms": "ms",
    "tensor.backward.merge_ms": "ms",
    "tensor.backward.token_ms": "ms",
    "tensor.backward.channel_ms": "ms",
    "tensor.backward.rest_ms": "ms",
    "tensor.backward.walk_ms": "ms",
    "tensor.nodes_per_sample": "count",
    "tensor.sample_peak_mb": "MB",
    "training.step_ms": "ms",
    "training.adamw_step_ms": "ms",
    "data.load_embedding_ms": "ms",
    "data.pad_or_truncate_ms": "ms",
    "data.bytes_per_record": "B",
    "data.synthesize_dataset_s": "s",
    "model.build_model_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "host.calib_ms": "ms",
}


def host_calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python plus numpy loop that no program change touches."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((192, 192))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(20):
            a = a @ a
            a /= np.abs(a).max()
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def import_seconds(first: float) -> float:
    """Median import time of the program: ``first`` and that of a few fresh interpreters."""
    times = [first]
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def report(result, import_s: float, trace: bool) -> dict:
    """The final JSON object of a run."""
    if trace:
        units, values = PER_LAYER, {**result.layers, "host.calib_ms": host_calibration_ms()}
    else:
        units, values = END_TO_END, {
            "setup_s": import_s + result.setup_s,
            "samples_per_s": result.samples / result.wall_s if result.wall_s else 0.0,
            "peak_rss_mb": result.peak_rss_mb,
        }
    return {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    unset = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unset:
        print(
            f"error: {', '.join(unset)} must be 1 before the interpreter starts; run through "
            f"`env {' '.join(v + '=1' for v in THREAD_VARS)} python3 ...`",
            file=sys.stderr,
        )
        return 2
    source = ROOT / "src" / "hafformer"
    if not (source / "__init__.py").is_file():
        print(f"error: no program source at {source}; run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hafformer

    import_s = time.perf_counter() - t0
    if Path(hafformer.__file__).resolve().parent != source.resolve():
        print(f"error: imported hafformer from {hafformer.__file__}, not {source}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload} seed {args.seed}: {result.samples} samples in {result.wall_s:.2f} s timed, "
        f"process CPU {result.cpu_s:.2f} s, {result.rounds} rounds; peak RSS {result.peak_rss_mb:.1f} MB "
        f"after the timed window, {workloads.peak_rss_mb():.1f} MB at the end",
        file=sys.stderr,
    )
    for line in result.errors + result.problems:
        print(f"  {line}", file=sys.stderr)
    if result.cpu_s > CPU_OVER_WALL * result.wall_s:
        print(
            f"error: process CPU time {result.cpu_s:.2f} s exceeds wall time {result.wall_s:.2f} s; "
            f"more than one thread computed. Thread settings: "
            + ", ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS),
            file=sys.stderr,
        )
        return 1
    if not args.trace:
        import_s = import_seconds(import_s)
    print(json.dumps(report(result, import_s, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
