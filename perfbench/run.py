"""mpshrink benchmark: one workload, measured end to end or layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload risk-thin|risk-square|verify \\
        --seed N --seconds S --trace 0|1

Each measurement runs in a fresh process (worker.py) that imports mpshrink
from the checkout's `src/`. Set-up is measured in PROBES extra processes
after one warm-up, half before the measured run and half after it, and the
median is reported. Iteration times are reported
as their trimmed mean (see `trimmed_mean`). With --trace 0 the last line
of stdout carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics. Either way the outputs are checked, and a failed check
makes the exit code 1. NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_metrics
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBES = 12
# Share of the fastest and of the slowest iterations left out of wall_s.
TRIM = 0.1
# A run may use this much longer than --seconds for set-up and the gate.
GRACE_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def trimmed_mean(values: list[float]) -> float:
    """Mean of values without the TRIM share at each end.

    The host's speed changes in phases longer than one iteration, so the
    iteration times of a run come from two or more levels. Their median
    jumps from one level to another as the mix of phases shifts; their mean
    follows the mix smoothly, and trimming keeps a single stalled
    iteration out of it.
    """
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.mean(ordered[k:len(ordered) - k])


def worker(args, work: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mpshrink" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mpshrink sources under {ROOT / 'src'}\n")
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".perfbench_work"
    work = base / f"run-{os.getpid()}"
    try:
        worker(args, work, True, GRACE_S)  # warm-up: bytecode and file caches
        # Probes on both sides of the measured run see the host at two moments.
        setups = [worker(args, work, True, GRACE_S)["setup_s"] for _ in range(PROBES // 2)]
        res = worker(args, work, False, args.seconds + GRACE_S)
        setups += [worker(args, work, True, GRACE_S)["setup_s"] for _ in range(PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    failed = len(res["failures"])
    attempted = res["attempted"]
    for failure in res["failures"]:
        sys.stderr.write(f"check failed: {failure}\n")
    prov = dict(res["provenance"], git_commit=git_commit())
    print("provenance " + json.dumps(prov, sort_keys=True))

    wall = trimmed_mean(res["walls"])
    if args.trace:
        values = res["layers"]
        units = per_layer_metrics()
    else:
        values = {
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "wall_s": wall,
            "cells_per_s": res["cells"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    summary = " ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(
        f"summary workload={args.workload} iterations={len(res['walls'])} "
        f"wall_min_s={min(res['walls']):.6g} wall_median_s={statistics.median(res['walls']):.6g} "
        f"wall_max_s={max(res['walls']):.6g} {summary} "
        f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted})"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
