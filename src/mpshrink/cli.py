"""Command-line experiment runner.

`mpshrink run CONFIG` executes the scenarios of an INI-style config and
writes one CSV (and optionally one SVG risk plot) per scenario.
`mpshrink verify` runs the derivative/identity oracle suite and prints a
pass/fail table.

Config format, one section per scenario plus an optional [global] section:

    [global]
    master_seed = 20120301
    replicates = 100000
    emit_svg = true

    [p10-n5-spiked]
    p = 10
    n = 5
    cov = spiked            # spiked | ar | block | identity
    estimators = usual, js, js+

Scenario keys: p, n, cov, rho (ar/block only), estimators, theta_norms,
theta_direction, replicates, seed. Estimator tokens are `usual`, `js` and
`js+`, each optionally with an explicit constant as in `js:0.5` (the default
constant is the midpoint of the admissible interval; `js:` is an error). Unknown keys,
duplicate sections and estimator labels, and non-finite numbers are
rejected with their line number.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import astuple, dataclass, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from . import identities, risk, svgchart
from .estimators import JamesStein, PositivePartJS, Usual, check_unique_labels, js_default_constant
from .randgen import Autoregressive, BlockDiagonal, Identity, Spiked

CSV_HEADER = ",".join(risk.RiskRow._fields)
IDENTITY_CSV_HEADER = "identity,analytic,oracle,abs_err,rel_err,tolerance,pass"

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9._-]+)\]$")
# An inline comment: '#' or ';' after whitespace, to the end of the line.
_INLINE_COMMENT_RE = re.compile(r"\s[#;].*$")


class ConfigError(ValueError):
    """Config parse or validation failure, carrying a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class RunManifest:
    """Everything `run` needs: scenarios, output location, seed, plot flag."""

    scenarios: list
    output_dir: str = "out"
    emit_svg: bool = False
    master_seed: int = 0


def _split_sections(text: str):
    """(name, name_line, {key: (value, line)}) triples, in file order.
    A '#' or ';' starting a line or following whitespace opens a comment."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _INLINE_COMMENT_RE.sub("", raw).strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = (m.group(1), lineno, {})
            sections.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(
                "malformed section header (names may use letters, digits, '.', '_', '-')",
                lineno,
            )
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key before any [section] header", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current[2]:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        current[2][key] = (value, lineno)
    return sections


def _parse_int(value: str, field: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{field}: expected an integer, got {value!r}", line) from None


def _parse_bool(value: str, field: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{field}: expected true/false, got {value!r}", line)


def _parse_number(value: str, field: str, line: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{field}: expected a number, got {value!r}", line) from None


def _parse_floats(value: str, field: str, line: int) -> list[float]:
    out = []
    for tok in value.split(","):
        tok = tok.strip()
        if not tok:
            raise ConfigError(f"{field}: empty entry in list", line)
        out.append(_parse_number(tok, field, line))
        if not math.isfinite(out[-1]):
            raise ConfigError(f"{field}: expected a finite number, got {tok!r}", line)
    return out


def _parse_text(value: str, field: str, line: int) -> str:
    return value


# Each section kind's keys, mapped to their value parsers.
_GLOBAL_KEYS = {
    "master_seed": _parse_int,
    "replicates": _parse_int,
    "emit_svg": _parse_bool,
    "output_dir": _parse_text,
}
_SCENARIO_KEYS = {
    "p": _parse_int,
    "n": _parse_int,
    "cov": _parse_text,
    "rho": _parse_number,
    "estimators": _parse_text,
    "theta_norms": _parse_floats,
    "theta_direction": _parse_floats,
    "replicates": _parse_int,
    "seed": _parse_int,
}
# Covariance names; the models with a rho field (and its default) take `rho`.
_COVARIANCES = {
    "spiked": Spiked,
    "ar": Autoregressive,
    "autoregressive": Autoregressive,
    "block": BlockDiagonal,
    "block-diagonal": BlockDiagonal,
    "identity": Identity,
}


def _parse_keys(keys: dict, table: dict) -> dict:
    """{key: parsed value} of one section; an unknown key is rejected on its line."""
    values = {}
    for key, (value, line) in keys.items():
        if key not in table:
            raise ConfigError(f"unknown key '{key}'", line)
        values[key] = table[key](value, key, line)
    return values


def _parse_estimator(tok: str, p: int, n: int):
    """One estimator token; every problem is a ValueError."""
    base, colon, arg = tok.partition(":")
    if not tok:
        raise ValueError("empty entry in list")
    if colon and not arg:
        raise ValueError(f"bad constant in {tok!r}")
    if base == "usual":
        if arg:
            raise ValueError("'usual' takes no constant")
        return Usual()
    if base not in ("js", "js+"):
        raise ValueError(f"unknown estimator {tok!r} (use usual, js, js+)")
    build = JamesStein if base == "js" else PositivePartJS
    if not arg:
        return build(js_default_constant(p, n))
    try:
        constant = float(arg)
    except ValueError:
        raise ValueError(f"bad constant in {tok!r}") from None
    return build(constant)


def _parse_estimators(value: str, p: int, n: int, line: int) -> list:
    try:
        specs = [_parse_estimator(tok.strip(), p, n) for tok in value.split(",")]
        check_unique_labels(specs)
    except ValueError as exc:
        raise ConfigError(f"estimators: {exc}", line) from None
    return specs


def _build_scenario(name: str, name_line: int, keys: dict, settings: dict) -> risk.ScenarioConfig:
    values = _parse_keys(keys, _SCENARIO_KEYS)
    for required in ("p", "n", "cov"):
        if required not in values:
            raise ConfigError(f"scenario '{name}': missing required key '{required}'", name_line)
    p, n = values["p"], values["n"]
    if min(p, n) < 3:
        raise ConfigError(f"min(p, n) must be at least 3, got p={p}, n={n}", name_line)

    model = _COVARIANCES.get(values["cov"])
    if model is None:
        raise ConfigError(
            f"cov: unknown covariance {values['cov']!r} (use spiked, ar, block, identity)",
            keys["cov"][1],
        )
    rho = {"rho": values["rho"]} if "rho" in values else {}
    if rho and not hasattr(model, "rho"):
        raise ConfigError("rho: only meaningful for ar or block covariances", keys["rho"][1])
    try:
        cov = model(**rho)
    except ValueError as exc:
        raise ConfigError(f"rho: {exc}", keys["rho"][1]) from None

    if "estimators" in values:
        est = _parse_estimators(values["estimators"], p, n, keys["estimators"][1])
    else:
        est = [Usual(), JamesStein(js_default_constant(p, n))]
    try:
        return risk.ScenarioConfig(
            p=p,
            n=n,
            cov=cov,
            estimators=est,
            theta_direction=values.get("theta_direction"),
            theta_norms=values.get("theta_norms"),
            replicates=values.get("replicates", settings["replicates"]),
            master_seed=values.get("seed", settings["master_seed"]),
            name=name,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario '{name}': {exc}", name_line) from None


def parse_config(text: str) -> RunManifest:
    """Parse config text into a RunManifest; raises ConfigError on problems."""
    sections = _split_sections(text)
    seen = set()
    for name, line, _ in sections:
        if name in seen:
            what = "section" if name == "global" else "scenario name"
            raise ConfigError(f"duplicate {what} '{name}'", line)
        seen.add(name)
    settings = {"master_seed": 0, "replicates": 10_000}
    for name, _, keys in sections:
        if name == "global":
            settings.update(_parse_keys(keys, _GLOBAL_KEYS))
    scenarios = [
        _build_scenario(name, line, keys, settings)
        for name, line, keys in sections
        if name != "global"
    ]
    if not scenarios:
        raise ConfigError("config defines no scenarios")
    del settings["replicates"]
    return RunManifest(scenarios, **settings)


def _csv_field(v) -> str:
    """A CSV cell: str and int as they are, bool as true/false, other numbers at .10g."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if isinstance(v, (str, int)) else format(v, ".10g")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(map(_csv_field, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scenario_svg(cfg: risk.ScenarioConfig, rows: list[risk.RiskRow]) -> str:
    series = []
    for label, group in groupby(rows, key=attrgetter("estimator")):
        pts = list(group)
        series.append((label, [r.theta_norm for r in pts], [r.risk for r in pts]))
    return svgchart.line_chart(
        series,
        title=f"{cfg.name} (p={cfg.p}, n={cfg.n})",
        xlabel="|theta|",
        ylabel="risk",
        ref_y=float(cfg.p),
        ref_label=f"risk of X ({cfg.p})",
    )


def run(
    manifest: RunManifest,
    jobs: int = 1,
    replicates_override: int | None = None,
    out_dir: str | None = None,
) -> int:
    """Execute every scenario; one CSV (and optional SVG) per scenario.

    Returns 0 on success, after one stderr line per scenario with its wall
    time, replicates per second, degenerate draws summed over theta and, for
    n < p, how many chunks had a slab fail the full-rank certificate (so
    need eigvalsh) and how many had one take the solve kernel's p x p side. A
    failing scenario writes a one-line JSON error record to stderr and the
    exit code becomes 1; remaining scenarios still run. jobs only changes
    scheduling, never output bytes.
    """
    target = Path(out_dir if out_dir is not None else manifest.output_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": f"output_dir not writable: {exc}"}) + "\n")
        return 1
    failed = False
    for cfg in manifest.scenarios:
        if replicates_override is not None:
            # replace() runs __post_init__, which would normalise the
            # already unit theta_direction again and can move it by an ulp.
            direction = cfg.theta_direction
            cfg = replace(cfg, replicates=replicates_override)
            cfg.theta_direction = direction
        t0 = time.perf_counter()
        try:
            rows, study = risk.risk_curve(cfg, jobs=jobs)
            _write_csv(target / f"{cfg.name}.csv", CSV_HEADER, rows)
            if manifest.emit_svg:
                (target / f"{cfg.name}.svg").write_text(
                    _scenario_svg(cfg, rows), encoding="utf-8"
                )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a record
            sys.stderr.write(
                json.dumps({"scenario": cfg.name, "error": str(exc)}) + "\n"
            )
            failed = True
            continue
        elapsed = time.perf_counter() - t0
        fallback = ""
        if cfg.n < cfg.p:
            fallback = (
                f", {study.eigvalsh_chunks} of {study.chunks} chunks needed eigvalsh, "
                f"{study.fallback_chunks} took the p x p fallback"
            )
        sys.stderr.write(
            f"{cfg.name}: wrote {cfg.name}.csv ({len(rows)} rows) in {elapsed:.2f} s, "
            f"{cfg.replicates / elapsed:.0f} replicates/s, "
            f"{study.degenerate.sum()} degenerate draws{fallback}\n"
        )
    return 1 if failed else 0


def verify(
    only: str | None = None,
    seed: int = 13,
    out_dir: str | None = None,
    mc_replicates: int = 100_000,
    fd_configs: int = 100,
) -> int:
    """Run the identity oracle suite and print one row per identity.

    Each identity's elapsed seconds, and the total, go to stderr as it runs.
    Bad arguments, and an out_dir that cannot be made a directory, exit 2
    before any identity runs. An identity that raises writes a one-line JSON error
    record to stderr, the others still run and the exit code is 1.
    """
    try:
        names = identities.suite_names(seed, only, fd_configs, mc_replicates)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    reports = []
    failed = False
    t_start = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        try:
            reports += identities.run_default_suite(
                seed=seed, only=name, fd_configs=fd_configs, mc_replicates=mc_replicates
            )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a record
            sys.stderr.write(json.dumps({"identity": name, "error": str(exc)}) + "\n")
            failed = True
            continue
        sys.stderr.write(f"verify: {name} in {time.perf_counter() - t0:.2f} s\n")
    sys.stderr.write(
        f"verify: {len(reports)} identities in {time.perf_counter() - t_start:.2f} s\n"
    )
    name_w = max((len(r.name) for r in reports), default=0)
    print(f"{'identity':<{name_w}}  {'analytic':>13} {'oracle':>13} "
          f"{'abs_err':>10} {'rel_err':>10} {'tol':>9}  result")
    for r in reports:
        print(
            f"{r.name:<{name_w}}  {r.analytic:>13.6g} {r.oracle:>13.6g} "
            f"{r.abs_err:>10.3g} {r.rel_err:>10.3g} {r.tolerance:>9.3g}  "
            f"{'PASS' if r.passed else 'FAIL'}"
        )
    if out_dir is not None:
        _write_csv(Path(out_dir) / "identities.csv", IDENTITY_CSV_HEADER, map(astuple, reports))
    return 0 if not failed and all(r.passed for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpshrink",
        description="Risk simulations and identity checks for Moore-Penrose shrinkage estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the scenarios of a config file")
    p_run.add_argument("config", help="path to an INI-style scenario config")
    p_run.add_argument("--out", default=None, help="output directory (default: from config)")
    p_run.add_argument(
        "--replicates", type=int, default=None, help="override replicates for every scenario"
    )
    p_run.add_argument(
        "--jobs", type=int, default=1, help="worker threads (never changes output bytes)"
    )

    p_verify = sub.add_parser("verify", help="run the derivative/identity oracle suite")
    p_verify.add_argument("--only", default=None, help="run a single identity by name")
    p_verify.add_argument("--seed", type=int, default=13, help="master seed for the suite")
    p_verify.add_argument("--out", default=None, help="also write identities.csv here")
    p_verify.add_argument(
        "--replicates",
        type=int,
        default=100_000,
        help="replicates for the stein and stein_haff identities; the finiteness "
        "probe always draws 2 x 10000",
    )
    p_verify.add_argument(
        "--configs",
        type=int,
        default=100,
        help="random configurations per (p, n) for the finite-difference sweeps",
    )

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            sys.stderr.write(f"error: cannot read config: {exc}\n")
            return 2
        try:
            manifest = parse_config(text)
        except ConfigError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        if args.jobs < 1:
            sys.stderr.write("error: --jobs must be at least 1\n")
            return 2
        if args.replicates is not None and args.replicates < 1:
            sys.stderr.write("error: --replicates must be at least 1\n")
            return 2
        return run(
            manifest,
            jobs=args.jobs,
            replicates_override=args.replicates,
            out_dir=args.out,
        )
    if args.command == "verify":
        if args.configs < 1:
            sys.stderr.write("error: --configs must be at least 1\n")
            return 2
        return verify(
            only=args.only,
            seed=args.seed,
            out_dir=args.out,
            mc_replicates=args.replicates,
            fd_configs=args.configs,
        )
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
