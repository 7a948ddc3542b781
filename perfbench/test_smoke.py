"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric is printed by name with its unit, matching
BENCHMARK.json, and that the spans of a traced iteration nest, have
non-negative self times, and add up to each risk curve.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work():
    """Scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".perfbench_work" / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(worker.WORKLOADS)
    assert set(worker.TINY) == set(worker.WORKLOADS)


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    rc, lines = run_bench(workload, trace)
    assert rc == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    summary = next(line for line in lines if line.startswith("summary "))
    assert "fail_ratio=0 " in summary
    for m in listed:
        assert f"{m['name']}=" in summary
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    assert {"nproc", "python", "numpy", "blas", "blas_env", "blas_threads", "seed", "jobs", "git_commit"} <= set(provenance)
    assert provenance["blas_threads"] == getattr(worker.WORKLOADS[workload], "blas_threads", None)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_result_when_sources_are_missing(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def traced_iteration(name: str, work: Path):
    cli = worker.import_package()
    w = worker.TINY[name]
    text = worker.risk_config(w, seed=9)
    manifest = cli.parse_config(text)
    (work / "w.cfg").write_text(text, encoding="utf-8")
    argv = ["run", str(work / "w.cfg"), "--jobs", str(w.jobs), "--out", str(work / "out")]
    tracer = spans.Tracer()
    _, rc, files = worker.iterate(cli, argv, work / "out", tracer)
    assert rc == 0
    recorded = tracer.take()
    root = next(s for s in recorded if s.name == "cli.main")
    return manifest, recorded, root


@pytest.mark.parametrize("workload", ["risk-thin", "risk-square"])
def test_spans_nest_and_self_times_add_up(workload, work):
    manifest, recorded, root = traced_iteration(workload, work)
    by_id = {s.sid: s for s in recorded}
    for s in recorded:
        assert s.end >= s.start
        if s is not root:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
    assert len(spans.subtree(recorded, root)) == len(recorded)

    shares = spans.name_shares(spans.subtree(recorded, root))
    assert all(v >= 0.0 for v in shares.values())
    assert sum(shares.values()) == pytest.approx(root.duration, rel=1e-9)

    metrics = spans.iteration_metrics(recorded, root)
    for cfg in manifest.scenarios:
        slot = f"p{cfg.p}"
        curve = metrics[f"{slot}.risk.curve_s"]
        layers = sum(metrics[f"{slot}.{layer}.self_s"] for layer in spans.CURVE_LAYERS)
        assert layers == pytest.approx(curve, rel=1e-9)
        assert metrics[f"{slot}.randgen.streams_opened"] == cfg.replicates * len(cfg.theta_norms)
        assert metrics[f"{slot}.estimators.degenerate_ratio"] == 0.0
    if workload == "risk-square":
        assert any(s.name == "risk.chunk" for s in recorded), "threaded path not taken"
