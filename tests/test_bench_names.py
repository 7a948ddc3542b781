"""The package names the benchmark reaches into, checked at tier-1.

perfbench/spans.py wraps package functions by attribute name (for example
`linalg.sym_eigen`, `identities.f_degenerate`, `linalg.batch_pinv_apply`,
`randgen.batch_normal_wishart`, which only the tests and the tracer use)
and swaps `risk.ThreadPoolExecutor` for a pool that opens a `risk.chunk`
span around each chunk. perfbench/worker.py's correctness gate calls
`risk.run_replicates` and reads `risk.CHUNK`, `randgen.sample_wishart` and
other names. Deleting or renaming one of them would otherwise fail only
when the benchmark runs. The worker's own gate also runs here, on a seed
whose chunks take the p x p fallback. The tracer and the worker are loaded
from their files without writing bytecode next to them, and nothing under
perfbench/ is changed. When ROADMAP item 1 moves the tracer onto other
names, update this test together with it.
"""

import ast
import importlib.util
import pathlib
import random
import re
import sys

from mpshrink import cli, estimators, identities, linalg, randgen, risk
from mpshrink.randgen import Identity

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKER = PERFBENCH / "worker.py"


def load_perfbench(monkeypatch, path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}_under_test", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_name_and_restores_them(monkeypatch):
    spans = load_perfbench(monkeypatch, SPANS)
    original = linalg.sym_eigen
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert linalg.sym_eigen is not original
    finally:
        tracer.uninstall()
    assert linalg.sym_eigen is original


def test_worker_correctness_gate_entry_point_exists():
    assert callable(risk.run_replicates)


def test_every_package_name_the_worker_reaches_exists():
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (risk, linalg, randgen, estimators, identities)}
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    reached = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("risk", "CHUNK") in reached and ("risk", "run_replicates") in reached
    missing = sorted(f"{mod}.{attr}" for mod, attr in reached if not hasattr(modules[mod], attr))
    assert not missing


def test_threaded_study_records_one_chunk_span_with_one_stream_open_per_block(monkeypatch):
    # The per-layer metrics read chunk work from `risk.chunk` spans, which
    # the tracer's pool opens around each map_chunks body. run_study opens
    # each block's streams once, one `randgen.stream_open` child; it draws
    # through randgen.StreamReader, so no `randgen.draw` span is recorded.
    monkeypatch.setattr(risk, "CHUNK", 16)
    spans = load_perfbench(monkeypatch, SPANS)
    cfg = risk.ScenarioConfig(
        p=6, n=3, cov=Identity(), estimators=[estimators.Usual()], replicates=40, theta_norms=[0.0]
    )
    tracer = spans.Tracer()
    try:
        tracer.install()
        risk.run_study(cfg, cfg.estimators, cfg.theta_norms, jobs=2)
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    chunks = [s for s in recorded if s.name == "risk.chunk"]
    assert len(chunks) == 3
    for chunk in chunks:
        opens = [s for s in recorded if s.name == "randgen.stream_open" and s.parent == chunk.sid]
        assert len(opens) == 1
    assert not [s for s in recorded if s.name == "randgen.draw"]


def test_traced_verify_records_no_whole_chunk_draw(monkeypatch, capsys):
    # The identity engines draw through risk.slabs, as run_study does, so a
    # traced verify opens streams but records no `randgen.draw` span: the
    # verify workload's randgen.draw_s reads 0, as the risk workloads' do.
    spans = load_perfbench(monkeypatch, SPANS)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "--replicates", "1000", "--configs", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {s.name for s in tracer.take()}
    engines = {"identities.stein", "identities.stein_haff", "identities.finiteness"}
    assert engines | {"randgen.stream_open"} <= names
    assert "randgen.draw" not in names


def test_the_package_has_one_draw_path():
    # batch_normal_wishart stays only for the tracer above and as the tests'
    # whole-chunk reference: no package module calls it, and risk.slabs
    # holds the one call of randgen.wishart_slab.
    calls = []
    for path in sorted(pathlib.Path(risk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "func", None)
            name = getattr(name, "attr", getattr(name, "id", None))
            if isinstance(node, ast.Call) and name in ("batch_normal_wishart", "wishart_slab"):
                calls.append((path.stem, name))
    assert calls == [("risk", "wishart_slab")]


def test_worker_gate_passes_on_a_fallback_seed(monkeypatch, tmp_path, capsys):
    """The risk-square gate at its smoke-test size and benchmark seed 330:
    the p20-n19 section's first chunk has a draw of rank below n, so it
    needs eigvalsh and a slab of it takes the p x p side. The CSV risk
    bounds and the scalar estimate() agreement on sampled replicates pass."""
    worker = load_perfbench(monkeypatch, WORKER)
    workload = worker.TINY["risk-square"]
    manifest = cli.parse_config(worker.risk_config(workload, 330))
    assert cli.run(manifest, jobs=workload.jobs, out_dir=str(tmp_path)) == 0
    err = capsys.readouterr().err
    fallback = r"^p20-n19-\S+: .*, 1 of 2 chunks needed eigvalsh, 1 took the p x p fallback$"
    assert re.search(fallback, err, re.M)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    tally = worker.Tally()
    worker.check_risk_bounds(cli, files, tally)
    worker.check_scalar_agreement(manifest, workload.jobs, random.Random(330), tally)
    assert tally.attempted > 0 and tally.failures == []
