"""Monte-Carlo risk curves for a small scenario.

Estimates the risk of the unshrunk, James-Stein, and positive-part
estimators across a sweep of signal strengths, prints the table that the
CLI would write as CSV, and drops an SVG chart next to this script.

Run:  python3 demos/risk_simulation.py
"""

import math
import pathlib

from mpshrink import (
    JamesStein,
    PositivePartJS,
    ScenarioConfig,
    Spiked,
    Usual,
    js_default_constant,
    risk_curve,
)
from mpshrink.svgchart import line_chart

p, n = 10, 5
a = js_default_constant(p, n)
cfg = ScenarioConfig(
    p=p,
    n=n,
    cov=Spiked(),
    estimators=[Usual(), JamesStein(a), PositivePartJS(a)],
    theta_norms=[0.0, 0.5 * math.sqrt(p), math.sqrt(p), 2.0 * math.sqrt(p)],
    replicates=20_000,
    master_seed=7,
    name="demo",
)

print(f"p = {p}, n = {n}, spiked covariance, {cfg.replicates} replicates per point")
print("risk of the unshrunk estimator is exactly p =", p)
print()

rows, study = risk_curve(cfg, jobs=4)
print(f"{'estimator':12s} {'|theta|':>8s} {'risk':>9s} {'std err':>9s}")
for row in rows:
    print(
        f"{row.estimator:12s} {row.theta_norm:8.3f} "
        f"{row.risk:9.4f} {row.std_err:9.4f}"
    )
print(f"{study.degenerate.sum()} degenerate draws, passed through unshrunk")

# Group rows into one polyline per estimator, mirroring the CLI's charts.
series = {}
for row in rows:
    xs, ys = series.setdefault(row.estimator, ([], []))
    xs.append(row.theta_norm)
    ys.append(row.risk)
svg = line_chart(
    [(label, xs, ys) for label, (xs, ys) in series.items()],
    title=f"demo (p={p}, n={n})",
    xlabel="|theta|",
    ylabel="risk",
    ref_y=float(p),
    ref_label=f"risk of X ({p})",
)
out = pathlib.Path(__file__).with_name("risk_simulation.svg")
out.write_text(svg)
print(f"\nwrote {out}")
