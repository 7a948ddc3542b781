"""The package names the benchmark reaches into, checked at tier-1.

perfbench/spans.py wraps package functions by attribute name (for example
`linalg.sym_eigen`, `identities.f_degenerate`, `linalg.batch_pinv_apply`),
and perfbench/worker.py's correctness gate calls `risk.run_replicates`.
Deleting or renaming one of them would otherwise fail only when the
benchmark runs. The tracer is loaded from its file without writing bytecode
next to it, and nothing under perfbench/ is changed. When ROADMAP item 1
moves the tracer onto other names, update this test together with it.
"""

import importlib.util
import pathlib
import sys

from mpshrink import linalg, risk

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_name_and_restores_them(monkeypatch):
    spans = load_spans(monkeypatch)
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
