"""In-memory spans around mpshrink's layer entry points, installed from outside.

The engine reaches every layer through a module attribute (for example
`randgen.batch_normal_wishart`, `linalg.batch_pinv_apply`) or through a name
imported into the calling module (`risk.f_degenerate`). `Tracer.install`
swaps each of those attributes for a wrapper that records a span (name,
start, end, parent) and restores the originals on `uninstall`; no file of
the package changes. Spans stay in memory until the caller summarizes them.

A layer's self time is the part of a root span's wall interval it owns. At
each instant the interval is divided equally among the innermost active
spans of the root's subtree. Single-threaded this is the usual "span minus
the part its children cover"; under the threaded chunk scheduler the two
workers split the instants they share, so the layer self times of a root
still add up to its duration.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "risk", "randgen", "linalg", "estimators", "identities", "svgchart")

# Layers whose self times make up a risk scenario's `risk.curve` span.
CURVE_LAYERS = ("randgen", "linalg", "estimators", "risk")

# Risk metrics reported once for the whole iteration and once per scenario
# slot (`p20.`, `p50.`); the slot is the scenario's dimension p.
SCENARIO_METRICS = (
    ("risk.curve_s", "s"),
    ("risk.self_s", "s"),
    ("risk.chunks", "count"),
    ("randgen.stream_open_s", "s"),
    ("randgen.streams_opened", "count"),
    ("randgen.draw_s", "s"),
    ("randgen.self_s", "s"),
    ("linalg.batch_pinv_s", "s"),
    ("linalg.matrices_decomposed", "count"),
    ("linalg.self_s", "s"),
    ("estimators.f_degenerate_s", "s"),
    ("estimators.degenerate_ratio", "ratio"),
    ("estimators.self_s", "s"),
)
SCENARIO_SLOTS = ("p20", "p50")

WHOLE_METRICS = SCENARIO_METRICS + (
    ("linalg.scalar_eigen_s", "s"),
    ("linalg.scalar_eigen_calls", "count"),
    ("identities.stein_haff_s", "s"),
    ("identities.stein_s", "s"),
    ("identities.finiteness_s", "s"),
    ("identities.fd_s", "s"),
    ("identities.self_s", "s"),
    ("svgchart.chart_s", "s"),
    ("cli.self_s", "s"),
)

# Measured by the worker around the traced iterations, not from spans.
RUN_METRICS = (
    ("cli.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in reporting order."""
    scenario = [(f"{slot}.{name}", unit) for slot in SCENARIO_SLOTS for name, unit in SCENARIO_METRICS]
    return list(WHOLE_METRICS) + scenario + list(RUN_METRICS)


@dataclass(eq=False, slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matrices(args, kwargs, result):
    return {"matrices": len(args[0])}


def _mask(args, kwargs, result):
    return {"degenerate": int(np.count_nonzero(result)), "checked": int(np.size(result))}


def _scenario(args, kwargs, result):
    return {"slot": f"p{args[0].p}"}


class Tracer:
    """Records spans from wrappers it installs over mpshrink's layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].sid if stack else None

    def call(self, name, fn, args=(), kwargs=None, parent=None, note=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's top span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        span = Span(next(self._ids), parent, name, time.perf_counter())
        stack.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if note is not None:
            span.info = note(args, kwargs, result)
        return result

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note=note)

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The chunk scheduler's pool; each chunk runs in a `risk.chunk` span
            whose parent is the span that submitted it."""

            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()

                def chunk(*args):
                    return tracer.call("risk.chunk", fn, args, parent=parent)

                return super().map(chunk, *iterables, **kwargs)

        return TracedPool

    def install(self) -> None:
        from mpshrink import identities, linalg, randgen, risk, svgchart

        targets = [
            (risk, "risk_curve", "risk.curve", _scenario),
            (risk, "run_replicates", "risk.replicates", None),
            (risk, "f_degenerate", "estimators.f_degenerate", _mask),
            (identities, "f_degenerate", "estimators.f_degenerate", _mask),
            (randgen, "batch_normal_wishart", "randgen.draw", None),
            (randgen.RngStream, "generator", "randgen.stream_open", None),
            (linalg, "batch_pinv_apply", "linalg.batch_pinv", _matrices),
            (linalg, "pseudo_inverse", "linalg.pseudo_inverse", None),
            (linalg, "sym_eigen", "linalg.sym_eigen", None),
            (identities, "run_default_suite", "identities.suite", None),
            (identities, "stein_identity_mc", "identities.stein", None),
            (identities, "stein_haff_mc", "identities.stein_haff", None),
            (identities, "finiteness_probe", "identities.finiteness", None),
            (svgchart, "line_chart", "svgchart.chart", None),
        ]
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))
        self._saved.append((risk, "ThreadPoolExecutor", risk.ThreadPoolExecutor))
        risk.ThreadPoolExecutor = self._pool_class(risk.ThreadPoolExecutor)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """root and its descendants, parents before children."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s.sid])
    return out


def name_shares(sub: list[Span]) -> dict[str, float]:
    """Wall time of sub[0] owned by each span name (see the module docstring)."""
    events = sorted(
        [(s.start, 1, i) for i, s in enumerate(sub)] + [(s.end, 0, i) for i, s in enumerate(sub)],
        key=lambda e: (e[0], e[1]),
    )
    by_id = {s.sid: s for s in sub}
    active_children: Counter = Counter()
    active: set[int] = set()
    leaves: set[int] = set()
    shares: dict[str, float] = defaultdict(float)
    prev = None
    for t, is_start, i in events:
        if leaves:
            part = (t - prev) / len(leaves)
            for sid in leaves:
                shares[by_id[sid].name] += part
        prev = t
        s = sub[i]
        if is_start:
            active.add(s.sid)
            leaves.add(s.sid)
            if s.parent in active:
                active_children[s.parent] += 1
                leaves.discard(s.parent)
        else:
            active.discard(s.sid)
            leaves.discard(s.sid)
            if s.parent in active:
                active_children[s.parent] -= 1
                if active_children[s.parent] == 0:
                    leaves.add(s.parent)
    return dict(shares)


def layer_shares(shares: dict[str, float]) -> dict[str, float]:
    """Sum name_shares by layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in shares.items():
        out[name.split(".", 1)[0]] += t
    return out


def _sums(sub: list[Span]):
    """Total duration and count per span name, and the summed notes."""
    dur: dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    info: Counter = Counter()
    for s in sub:
        dur[s.name] += s.duration
        count[s.name] += 1
        if s.info and s.name != "risk.curve":
            info.update(s.info)
    return dur, count, info


def _values(sub: list[Span], shares: dict[str, float]) -> dict[str, float]:
    """SCENARIO_METRICS over a subtree with the given name_shares."""
    dur, count, info = _sums(sub)
    layers = layer_shares(shares)
    checked = info["checked"]
    return {
        "risk.curve_s": dur["risk.curve"],
        "risk.self_s": layers["risk"],
        "risk.chunks": count["randgen.draw"],
        "randgen.stream_open_s": dur["randgen.stream_open"],
        "randgen.streams_opened": count["randgen.stream_open"],
        "randgen.draw_s": dur["randgen.draw"],
        "randgen.self_s": layers["randgen"],
        "linalg.batch_pinv_s": dur["linalg.batch_pinv"],
        "linalg.matrices_decomposed": info["matrices"],
        "linalg.self_s": layers["linalg"],
        "estimators.f_degenerate_s": dur["estimators.f_degenerate"],
        "estimators.degenerate_ratio": info["degenerate"] / checked if checked else 0.0,
        "estimators.self_s": layers["estimators"],
    }


def iteration_metrics(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose outermost span is root."""
    sub = subtree(spans, root)
    shares = name_shares(sub)
    layers = layer_shares(shares)
    out = _values(sub, shares)
    # Whole-iteration chunks count risk curves only, not verify's draws.
    out["risk.chunks"] = 0
    for slot in SCENARIO_SLOTS:
        out.update({f"{slot}.{name}": 0 for name, _ in SCENARIO_METRICS})
    for curve in (s for s in sub if s.name == "risk.curve"):
        csub = subtree(spans, curve)
        values = _values(csub, name_shares(csub))
        out["risk.chunks"] += values["risk.chunks"]
        for name, v in values.items():
            out[f"{curve.info['slot']}.{name}"] += v
    dur, count, _ = _sums(sub)
    by_id = {s.sid: s for s in sub}
    # A scalar pseudo_inverse contains its own sym_eigen; time it once.
    scalar_s = sum(
        s.duration
        for s in sub
        if s.name == "linalg.pseudo_inverse"
        or (s.name == "linalg.sym_eigen" and by_id[s.parent].name != "linalg.pseudo_inverse")
    )
    out.update(
        {
            "linalg.scalar_eigen_s": scalar_s,
            "linalg.scalar_eigen_calls": count["linalg.sym_eigen"],
            "identities.stein_haff_s": dur["identities.stein_haff"],
            "identities.stein_s": dur["identities.stein"],
            "identities.finiteness_s": dur["identities.finiteness"],
            "identities.fd_s": shares.get("identities.suite", 0.0),
            "identities.self_s": layers["identities"],
            "svgchart.chart_s": dur["svgchart.chart"],
            "cli.self_s": layers["cli"],
        }
    )
    return out
