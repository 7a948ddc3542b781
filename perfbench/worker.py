"""One benchmark process: set up a workload, time it, then check its outputs.

run.py starts this script once per measurement, from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawned-at T --work DIR [--setup-only] [--tiny]

It imports mpshrink from the checkout's own `src/`, builds the workload's
config from the seed, and calls `cli.main` once to warm up, then in a closed
loop until S seconds have passed. With --trace 1 every second iteration runs with the span
wrappers installed. The correctness gate runs after the timed loop. The last
line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# figure1's three covariance shapes; ar and block use its rho = 0.5.
COVARIANCES = ("spiked", "ar", "block")
ESTIMATORS = "usual, js, js+"

# Scalar estimate() recomputations per 2048-replicate chunk of each scenario.
SAMPLED_PER_CHUNK = 3
SCALAR_REL_TOL = 1e-9
RISK_SE_BOUND = 5.0
# Two full chunks for the --jobs invariance check.
INVARIANCE_REPLICATES = 4096


@dataclass(frozen=True)
class RiskWorkload:
    """`mpshrink run` on figure1 sections (p, n) with the given replicates.

    theta_multiples picks points of figure1's grid {0, 0.5, ..., 6} * sqrt(p);
    None keeps the whole 13-point grid.
    """

    jobs: int
    sections: tuple[tuple[int, int], ...]
    replicates: int
    theta_multiples: tuple[float, ...] | None = None
    # BLAS threads per process; None keeps the library's default.
    blas_threads: int | None = None


@dataclass(frozen=True)
class VerifyWorkload:
    """`mpshrink verify` at reduced Monte-Carlo replicates and FD configs."""

    replicates: int
    configs: int


WORKLOADS = {
    "risk-thin": RiskWorkload(jobs=1, sections=((20, 10), (50, 25)), replicates=256),
    # 4096 replicates make two full chunks, so both worker threads are busy;
    # one point of the theta grid keeps an iteration under two seconds. One
    # BLAS thread per worker thread keeps the busy threads at two; NOTES.md
    # ("--jobs 2 oversubscription") says why.
    "risk-square": RiskWorkload(
        jobs=2, sections=((20, 19), (50, 49)), replicates=4096, theta_multiples=(0.0,),
        blas_threads=1,
    ),
    "verify": VerifyWorkload(replicates=2500, configs=5),
}

# Sizes for the smoke test: same layers and code paths, seconds not minutes.
# 2049 replicates is the smallest count with two chunks.
TINY = {
    "risk-thin": RiskWorkload(jobs=1, sections=((20, 10), (50, 25)), replicates=32),
    "risk-square": RiskWorkload(
        jobs=2, sections=((20, 19), (50, 49)), replicates=2049, theta_multiples=(0.0,),
        blas_threads=1,
    ),
    "verify": VerifyWorkload(replicates=1000, configs=1),
}

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_package():
    """Import mpshrink from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import mpshrink
    from mpshrink import cli

    if Path(mpshrink.__file__).resolve().parent != (SRC / "mpshrink").resolve():
        raise ImportError(f"mpshrink imported from {mpshrink.__file__}, not from {SRC}")
    return cli


def risk_config(w: RiskWorkload, seed: int) -> str:
    """INI text for the workload: the seed picks the master seed and, per
    section, one of figure1's covariance shapes."""
    rng = random.Random(seed)
    lines = [
        "[global]",
        f"master_seed = {rng.randrange(2**31)}",
        f"replicates = {w.replicates}",
        "emit_svg = true",
    ]
    for p, n in w.sections:
        cov = rng.choice(COVARIANCES)
        lines += ["", f"[p{p}-n{n}-{cov}]", f"p = {p}", f"n = {n}", f"cov = {cov}"]
        if cov != "spiked":
            lines.append("rho = 0.5")
        if w.theta_multiples is not None:
            norms = ", ".join(repr(k * math.sqrt(p)) for k in w.theta_multiples)
            lines.append(f"theta_norms = {norms}")
        lines.append(f"estimators = {ESTIMATORS}")
    return "\n".join(lines) + "\n"


class Tally:
    """Operations attempted and the failures among them, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def iterate(cli, argv: list[str], out: Path, tracer=None):
    """One closed-loop call of cli.main; returns (wall_s, exit code, files written)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is None:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                rc = tracer.call("cli.main", cli.main, (argv,))
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return wall, rc, files


def check_iteration(workload, manifest, rc, files, tally: Tally) -> None:
    if isinstance(workload, VerifyWorkload):
        tally.check(rc == 0, f"verify exited {rc}")
        rows = files.get("identities.csv", b"").decode().splitlines()[1:]
        tally.check(bool(rows), "verify wrote no identities.csv rows")
        for row in rows:
            name, *_, passed = row.split(",")
            tally.check(passed == "true", f"identity {name} failed")
        return
    for cfg in manifest.scenarios:
        tally.check(f"{cfg.name}.csv" in files, f"scenario {cfg.name} wrote no CSV (exit {rc})")


def check_risk_bounds(cli, files, tally: Tally) -> None:
    """usual within 5 SE of p at every theta; js and js+ at most p + 5 SE."""
    for name, data in files.items():
        if not name.endswith(".csv"):
            continue
        lines = data.decode().splitlines()
        tally.check(lines[0] == cli.CSV_HEADER, f"{name}: unexpected header")
        for line in lines[1:]:
            _, p, _, _, est, theta, _, r, se = line.split(",")
            p, r, se = float(p), float(r), float(se)
            if est == "usual":
                ok = abs(r - p) <= RISK_SE_BOUND * se
            else:
                ok = r <= p + RISK_SE_BOUND * se
            tally.check(ok, f"{name}: {est} risk {r} at |theta|={theta} (p={p}, se={se})")


def check_scalar_agreement(manifest, jobs: int, rng: random.Random, tally: Tally) -> None:
    """Losses from run_replicates match the scalar estimate() on the same streams."""
    from mpshrink import estimators, linalg, randgen, risk

    for cfg in manifest.scenarios:
        theta_norm = float(rng.choice(list(cfg.theta_norms)))
        study = risk.run_replicates(cfg, cfg.estimators, theta_norm, jobs=jobs)
        sigma = randgen.build_covariance(cfg.cov, cfg.p)
        sigma_inv = linalg.inv_pd(sigma)
        theta = theta_norm * cfg.theta_direction
        picks = []
        for start in range(0, cfg.replicates, risk.CHUNK):
            chunk = range(start, min(start + risk.CHUNK, cfg.replicates))
            picks += rng.sample(chunk, min(SAMPLED_PER_CHUNK, len(chunk)))
        for i in sorted(picks):
            g = randgen.RngStream(cfg.master_seed, i).generator()
            x = randgen.sample_normal(theta, sigma, g)
            s = randgen.sample_wishart(cfg.n, sigma, g).s
            for k, spec in enumerate(cfg.estimators):
                scalar = risk.invariant_loss(estimators.estimate(spec, x, s).delta, theta, sigma_inv)
                batched = float(study.losses[k, i])
                tally.check(
                    abs(batched - scalar) <= SCALAR_REL_TOL * abs(scalar),
                    f"{cfg.name} replicate {i} {estimators.estimator_label(spec)}: "
                    f"batched loss {batched!r} vs scalar {scalar!r}",
                )


def check_jobs_invariance(cli, seed: int, work: Path, tally: Tally) -> None:
    """A multi-chunk scenario writes the same CSV bytes at --jobs 1 and --jobs 2."""
    config = work / "invariance.cfg"
    config.write_text(
        "[global]\n"
        f"master_seed = {seed}\n"
        f"replicates = {INVARIANCE_REPLICATES}\n"
        "[p10-n5-spiked]\np = 10\nn = 5\ncov = spiked\n"
        f"theta_norms = 0, {2 * math.sqrt(10)!r}\n"
        f"estimators = {ESTIMATORS}\n",
        encoding="utf-8",
    )
    outputs = []
    for jobs in (1, 2):
        target = work / f"jobs{jobs}"
        _, rc, files = iterate(cli, ["run", str(config), "--jobs", str(jobs), "--out", str(target)], target)
        outputs.append((rc, files))
    tally.check(
        outputs[0] == outputs[1] and outputs[0][0] == 0,
        "CSV bytes differ between --jobs 1 and --jobs 2",
    )


def provenance(workload, workload_name: str, seed: int, jobs: int, blas_env: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": blas_env,
        "blas_threads": getattr(workload, "blas_threads", None),
        "workload": workload_name,
        "seed": seed,
        "jobs": jobs,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    # Set-up: import the package, make the config from the seed, parse it.
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    blas_env = {k: os.environ.get(k) for k in BLAS_ENV}
    if getattr(workload, "blas_threads", None) is not None:
        # BLAS reads its thread count once, when numpy loads it.
        os.environ.update(dict.fromkeys(BLAS_ENV, str(workload.blas_threads)))
    cli = import_package()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    manifest = None
    if isinstance(workload, RiskWorkload):
        text = risk_config(workload, args.seed)
        manifest = cli.parse_config(text)
        config = work / "workload.cfg"
        config.write_text(text, encoding="utf-8")
        cli_argv = ["run", str(config), "--jobs", str(workload.jobs), "--out", str(out)]
        cells = sum(cfg.replicates * len(cfg.theta_norms) for cfg in manifest.scenarios)
        jobs = workload.jobs
    else:
        # The suite runs at its default seed; see NOTES.md ("verify seed").
        cli_argv = [
            "verify",
            "--replicates", str(workload.replicates),
            "--configs", str(workload.configs),
            "--out", str(out),
        ]
        from mpshrink import identities

        # Monte-Carlo replicates of the stein (one per MC_GRID entry) and
        # stein_haff (two per entry) identities.
        cells = 3 * len(identities.MC_GRID) * workload.replicates
        jobs = 1
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer, iteration_metrics

        tracer = Tracer()
    tally = Tally()
    walls, traced_walls, layer_samples = [], [], []
    start = time.perf_counter()
    # One untimed warm-up iteration inside the run's time: lazy imports and
    # first-call caches. Its outputs are checked like the others.
    _, rc, first_files = iterate(cli, cli_argv, out)
    check_iteration(workload, manifest, rc, first_files, tally)
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        wall, rc, files = iterate(cli, cli_argv, out, tracer if traced else None)
        check_iteration(workload, manifest, rc, files, tally)
        tally.check(files == first_files, "outputs differ between iterations of one seed")
        if traced:
            traced_walls.append(wall)
            recorded = tracer.take()
            root = next(s for s in reversed(recorded) if s.name == "cli.main")
            metrics = iteration_metrics(recorded, root)
            metrics["cli.bytes_written"] = sum(len(b) for b in files.values())
            layer_samples.append(metrics)
        else:
            walls.append(wall)
        # Stop before an iteration that would end after the deadline.
        if time.perf_counter() - start + wall > args.seconds and (tracer is None or traced_walls):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness gate, outside the timed window.
    if isinstance(workload, RiskWorkload):
        check_risk_bounds(cli, first_files, tally)
        check_scalar_agreement(manifest, workload.jobs, random.Random(args.seed), tally)
        check_jobs_invariance(cli, args.seed, work, tally)

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "cells": cells,
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "provenance": provenance(workload, args.workload, args.seed, jobs, blas_env),
    }
    if tracer is not None:
        # All layer metrics come from one traced iteration, the one with the
        # (lower) median wall time, so they add up as they did in that run.
        pick = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)[(len(traced_walls) - 1) // 2]
        layers = layer_samples[pick]
        layers["trace.wall_s"] = traced_walls[pick]
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
