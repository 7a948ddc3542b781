import dataclasses
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from mpshrink import cli
from mpshrink.cli import (
    CSV_HEADER,
    IDENTITY_CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run,
    verify,
)
from mpshrink.randgen import Autoregressive, BlockDiagonal, Identity, Spiked

GOOD = """\
[global]
master_seed = 11
replicates = 40
emit_svg = false

[alpha]
p = 6
n = 4
cov = spiked
estimators = usual, js, js+:0.7
theta_norms = 0, 1.5

[beta]
p = 4
n = 3
cov = ar
rho = 0.25
replicates = 30
seed = 99
"""


# ------------------------------------------------------------------- parsing

def test_parse_good_config():
    m = parse_config(GOOD)
    assert m.master_seed == 11
    assert not m.emit_svg
    assert len(m.scenarios) == 2
    alpha, beta = m.scenarios
    assert alpha.name == "alpha"
    assert (alpha.p, alpha.n) == (6, 4)
    assert isinstance(alpha.cov, Spiked)
    assert [e.label for e in alpha.estimators] == ["usual", "js(0.4)", "js+(0.7)"]
    assert alpha.estimators[2].r.value_bound == 0.7
    assert list(alpha.theta_norms) == [0.0, 1.5]
    assert alpha.replicates == 40
    assert alpha.master_seed == 11
    assert isinstance(beta.cov, Autoregressive) and beta.cov.rho == 0.25
    assert beta.replicates == 30
    assert beta.master_seed == 99
    # defaults: usual + js at the study constant
    assert [e.label for e in beta.estimators] == ["usual", "js(0.25)"]
    assert beta.estimators[1].r.value_bound == pytest.approx(0.25)  # (3-2)/(3+4-6+3)


def test_parse_js_default_constant_uses_dimensions():
    m = parse_config("[s]\np = 10\nn = 5\ncov = identity\nestimators = js\n")
    assert m.scenarios[0].estimators[0].r.value_bound == pytest.approx(0.375)


def test_parse_cov_variants():
    m = parse_config(
        "[a]\np = 4\nn = 3\ncov = block\nrho = -0.5\n"
        "[b]\np = 4\nn = 3\ncov = identity\n"
    )
    assert isinstance(m.scenarios[0].cov, BlockDiagonal)
    assert m.scenarios[0].cov.rho == -0.5
    assert isinstance(m.scenarios[1].cov, Identity)


def test_parse_comments_and_blank_lines():
    text = "# top comment\n\n[global]\n; semicolon comment\nmaster_seed = 5\n[s]\np = 4\nn = 3\ncov = identity\n"
    assert parse_config(text).master_seed == 5


def test_parse_inline_comments():
    text = (
        "[global]   # optional\nmaster_seed = 5 ; five\n"
        "[s]\t; one scenario\np = 4\t# four\nn = 3\ncov = identity  # id\n"
    )
    manifest = parse_config(text)
    assert manifest.master_seed == 5
    assert manifest.scenarios[0].p == 4
    assert manifest.scenarios[0].cov == Identity()


def test_parse_hash_without_whitespace_stays_in_value():
    expect_error("[s]\np = 4\nn = 3\ncov = identity#x\n", "unknown covariance 'identity#x'", line=4)


def test_parse_readme_config_example():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)
    manifest = parse_config(block)
    assert manifest.master_seed == 20260801
    assert manifest.emit_svg
    assert manifest.output_dir == "out"
    (cfg,) = manifest.scenarios
    assert cfg.name == "p10-n5-ar"
    assert (cfg.p, cfg.n, cfg.replicates, cfg.master_seed) == (10, 5, 100000, 7)
    assert cfg.cov == Autoregressive(0.5)
    assert [e.label for e in cfg.estimators] == ["usual", "js(0.375)", "js+(0.375)"]
    assert list(cfg.theta_norms) == [0.0, 1.0, 2.5]


def test_parse_module_docstring_config_example():
    block = cli.__doc__.split("[global] section:\n")[1].split("\n\nScenario keys")[0]
    manifest = parse_config(textwrap.dedent(block))
    assert (manifest.master_seed, manifest.emit_svg) == (20120301, True)
    (cfg,) = manifest.scenarios
    assert cfg.cov == Spiked()
    assert [e.label for e in cfg.estimators] == ["usual", "js(0.375)", "js+(0.375)"]


def test_docs_name_exactly_the_config_keys():
    """The module docstring's "Scenario keys" list and README's ini block
    name exactly the keys of the parser tables."""
    listed = re.search(r"Scenario keys: (.*?)\.", cli.__doc__, re.S).group(1)
    assert [re.sub(r"\(.*\)", "", k).strip() for k in listed.split(",")] == list(cli._SCENARIO_KEYS)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)
    (_, _, global_keys), (_, _, scenario_keys) = cli._split_sections(block)
    assert set(global_keys) == set(cli._GLOBAL_KEYS)
    assert set(scenario_keys) == set(cli._SCENARIO_KEYS)


@pytest.mark.parametrize("name", sorted(cli._COVARIANCES))
def test_every_covariance_name_parses_and_takes_rho_iff_its_model_has_one(name):
    """rho is accepted, and checked by the model, exactly where the model has
    a rho field; otherwise the model's default is built."""
    model = cli._COVARIANCES[name]
    text = f"[s]\np = 4\nn = 3\ncov = {name}\n"
    assert parse_config(text).scenarios[0].cov == model()
    if "rho" in {f.name for f in dataclasses.fields(model)}:
        assert parse_config(text + "rho = -0.25\n").scenarios[0].cov == model(-0.25)
        expect_error(text + "rho = 1\n", "|rho| < 1", line=5)
    else:
        expect_error(text + "rho = 0.25\n", "only meaningful", line=5)


def test_unknown_covariance_message_lists_table_names():
    with pytest.raises(ConfigError) as exc:
        parse_config("[s]\np = 4\nn = 3\ncov = toeplitz\n")
    listed = re.search(r"\(use (.*)\)", str(exc.value)).group(1).split(", ")
    assert set(listed) <= set(cli._COVARIANCES)


def expect_error(text, fragment, line=None):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)
    if line is not None:
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)


def test_parse_unknown_scenario_key_with_line():
    expect_error("[s]\np = 4\nn = 3\ncov = identity\nbogus = 1\n", "unknown key 'bogus'", line=5)


def test_parse_unknown_global_key():
    expect_error("[global]\nshoesize = 12\n[s]\np = 4\nn = 3\ncov = identity\n", "unknown key 'shoesize'", line=2)


def test_parse_duplicate_key():
    expect_error("[s]\np = 4\np = 5\nn = 3\ncov = identity\n", "duplicate key 'p'", line=3)


def test_parse_duplicate_scenario():
    expect_error(
        "[s]\np = 4\nn = 3\ncov = identity\n[s]\np = 4\nn = 3\ncov = identity\n",
        "duplicate scenario name 's'",
        line=5,
    )


def test_parse_duplicate_global_section():
    # A second [global] would otherwise override the first one's keys.
    expect_error(
        "[global]\nmaster_seed = 1\n[s]\np = 4\nn = 3\ncov = identity\n[global]\nmaster_seed = 2\n",
        "duplicate section 'global'",
        line=7,
    )


def test_parse_malformed_section():
    expect_error("[bad name]\np = 4\n", "malformed section header", line=1)


def test_parse_key_outside_section():
    expect_error("p = 4\n", "key before any [section]", line=1)


def test_parse_missing_equals():
    expect_error("[s]\njust words\n", "expected 'key = value'", line=2)


def test_parse_missing_required_key():
    expect_error("[s]\np = 4\nn = 3\n", "missing required key 'cov'")


def test_parse_bad_integer():
    expect_error("[s]\np = four\nn = 3\ncov = identity\n", "expected an integer", line=2)


def test_parse_bad_bool():
    expect_error(
        "[global]\nemit_svg = maybe\n[s]\np = 4\nn = 3\ncov = identity\n",
        "expected true/false",
        line=2,
    )


def test_parse_rho_range_message():
    expect_error("[s]\np = 4\nn = 3\ncov = ar\nrho = 1.5\n", "|rho| < 1", line=5)


def test_parse_rho_needs_correlated_cov():
    expect_error("[s]\np = 4\nn = 3\ncov = identity\nrho = 0.5\n", "only meaningful", line=5)


def test_parse_unknown_cov():
    expect_error("[s]\np = 4\nn = 3\ncov = toeplitz\n", "unknown covariance", line=4)


def test_parse_unknown_estimator():
    expect_error(
        "[s]\np = 4\nn = 3\ncov = identity\nestimators = ridge\n",
        "unknown estimator 'ridge'",
        line=5,
    )


def test_parse_usual_takes_no_constant():
    expect_error(
        "[s]\np = 4\nn = 3\ncov = identity\nestimators = usual:2\n",
        "'usual' takes no constant",
        line=5,
    )


@pytest.mark.parametrize("token", ["js:", "js+:", "usual:"])
def test_parse_rejects_a_dangling_colon(token):
    expect_error(
        f"[s]\np = 4\nn = 3\ncov = identity\nestimators = usual, {token}\n",
        f"estimators: bad constant in '{token}'",
        line=5,
    )


def test_parse_bad_theta_norms():
    expect_error(
        "[s]\np = 4\nn = 3\ncov = identity\ntheta_norms = 1, x\n",
        "expected a number",
        line=5,
    )


@pytest.mark.parametrize("estimators", ["js, js", "js:0.5, js:0.50000001", "js+, usual, js+"])
def test_parse_duplicate_estimator_label(estimators):
    expect_error(
        f"[s]\np = 4\nn = 3\ncov = identity\nestimators = {estimators}\n",
        "duplicate estimator label",
        line=5,
    )


def test_parse_scenario_constraint_violation():
    expect_error("[s]\np = 4\nn = 2\ncov = identity\n", "min(p, n)")


def test_parse_empty_config():
    expect_error("[global]\nmaster_seed = 4\n", "no scenarios")


def test_parse_figure1_config():
    text = Path(__file__).resolve().parent.parent.joinpath("figure1.cfg").read_text()
    m = parse_config(text)
    assert len(m.scenarios) == 18
    assert m.emit_svg
    assert m.master_seed == 20260801
    dims = {(c.p, c.n) for c in m.scenarios}
    assert dims == {(10, 5), (10, 9), (20, 10), (20, 19), (50, 25), (50, 49)}
    for cfg in m.scenarios:
        assert cfg.replicates == 100_000
        assert len(cfg.estimators) == 3
        assert len(cfg.theta_norms) == 13


# ------------------------------------------------------------------- running

SMALL_RUN = """\
[global]
master_seed = 21
replicates = 50
emit_svg = true

[one]
p = 4
n = 3
cov = spiked
estimators = usual, js
theta_norms = 0, 2
"""


def test_run_writes_csv_and_svg(tmp_path):
    code = run(parse_config(SMALL_RUN), out_dir=str(tmp_path))
    assert code == 0
    csv = (tmp_path / "one.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5  # 2 estimators x 2 norms
    first = lines[1].split(",")
    assert first[0] == "one"
    assert first[1] == "4" and first[2] == "3"
    assert first[3] == "spiked"
    assert first[4] == "usual"
    # risk column carries 10 significant digits
    risk = float(first[7])
    assert first[7] == format(risk, ".10g")
    svg = (tmp_path / "one.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "risk of X (4)" in svg


def test_run_deterministic_bytes(tmp_path):
    m1 = parse_config(SMALL_RUN)
    m2 = parse_config(SMALL_RUN)
    run(m1, out_dir=str(tmp_path / "a"))
    run(m2, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "one.csv").read_bytes() == (tmp_path / "b" / "one.csv").read_bytes()
    assert (tmp_path / "a" / "one.svg").read_bytes() == (tmp_path / "b" / "one.svg").read_bytes()


def test_run_jobs_do_not_change_bytes(tmp_path):
    # replicates span two chunks so threading really kicks in
    text = SMALL_RUN.replace("replicates = 50", "replicates = 2500")
    run(parse_config(text), jobs=1, out_dir=str(tmp_path / "serial"))
    run(parse_config(text), jobs=4, out_dir=str(tmp_path / "threaded"))
    a = (tmp_path / "serial" / "one.csv").read_bytes()
    b = (tmp_path / "threaded" / "one.csv").read_bytes()
    assert a == b


def _defect_at(i, defect):
    """randgen.wishart_slab with defect applied in place to replicate i's Y."""
    from mpshrink import randgen

    draw = randgen.wishart_slab

    def slab(streams, n, sqrt_sigma, lo, hi, work):
        y = draw(streams, n, sqrt_sigma, lo, hi, work)
        if lo <= i - streams.start < hi:
            defect(y[i - streams.start - lo])
        return y

    return slab


def _duplicate_row(yi):
    yi[-1] = yi[0]


def _zero(yi):
    yi[:] = 0.0


def test_run_reports_fallback_chunks_and_keeps_bytes_across_jobs(monkeypatch, tmp_path, capsys):
    # Replicate 40's Y gets a duplicate row, so its 16-replicate chunk takes
    # the p x p fallback while the other two chunks take the solve side.
    from mpshrink import randgen, risk

    monkeypatch.setattr(risk, "CHUNK", 16)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_at(40, _duplicate_row))
    text = SMALL_RUN + "\n[wide]\np = 3\nn = 4\ncov = identity\nestimators = usual\n"
    out = {}
    for jobs in (1, 4):
        assert run(parse_config(text), jobs=jobs, out_dir=str(tmp_path / str(jobs))) == 0
        out[jobs] = {f.name: f.read_bytes() for f in (tmp_path / str(jobs)).iterdir()}
        err = capsys.readouterr().err
        assert re.search(
            r"^one: .*, 0 degenerate draws, 1 of 4 chunks needed eigvalsh, 1 took the p x p fallback$",
            err,
            re.M,
        )
        # n >= p always runs on the p x p side: nothing falls back.
        assert re.search(r"^wide: .*, 0 degenerate draws$", err, re.M)
    assert len(out[1]) == 4 and out[1] == out[4]


def test_run_reports_nonzero_degenerate_draws_across_jobs(monkeypatch, tmp_path, capsys):
    # Replicate 40's Y is zeroed, so S = 0 and that draw is degenerate at
    # every |theta|: the count summed over theta is the number of theta values.
    from mpshrink import randgen, risk

    monkeypatch.setattr(risk, "CHUNK", 16)
    monkeypatch.setattr(randgen, "wishart_slab", _defect_at(40, _zero))
    text = SMALL_RUN + "\n[wide]\np = 3\nn = 4\ncov = identity\nestimators = usual\n"
    thetas = {cfg.name: len(cfg.theta_norms) for cfg in parse_config(text).scenarios}
    assert thetas == {"one": 2, "wide": 13}
    for jobs in (1, 4):
        assert run(parse_config(text), jobs=jobs, out_dir=str(tmp_path / str(jobs))) == 0
        err = capsys.readouterr().err
        assert re.search(
            r"^one: .*, 2 degenerate draws, 1 of 4 chunks needed eigvalsh, 1 took the p x p fallback$",
            err,
            re.M,
        )
        assert re.search(r"^wide: .*, 13 degenerate draws$", err, re.M)


def test_run_replicates_override(tmp_path):
    run(parse_config(SMALL_RUN), replicates_override=7, out_dir=str(tmp_path))
    lines = (tmp_path / "one.csv").read_text().strip().split("\n")
    assert lines[1].split(",")[6] == "7"


def test_replicates_override_keeps_theta_direction_bits(monkeypatch, tmp_path):
    """The override runs the scenario that `replicates = N` in the config
    gives. At p = 10 the unit theta_direction has norm 1 - 1 ulp, so
    normalising it a second time would move it."""
    from mpshrink import risk

    assert np.linalg.norm(np.ones(10) / np.sqrt(10)) != 1.0
    directions = []
    curve = risk.risk_curve

    def spy(cfg, jobs=1):
        directions.append(cfg.theta_direction.tobytes())
        return curve(cfg, jobs=jobs)

    monkeypatch.setattr(risk, "risk_curve", spy)
    text = "[s]\np = 10\nn = 5\ncov = identity\ntheta_norms = 0, 3\nreplicates = {}\n"
    assert run(parse_config(text.format(40)), out_dir=str(tmp_path / "config")) == 0
    flag = run(parse_config(text.format(7)), replicates_override=40, out_dir=str(tmp_path / "flag"))
    assert flag == 0
    assert directions[0] == directions[1]
    csv = [(tmp_path / d / "s.csv").read_bytes() for d in ("config", "flag")]
    assert csv[0] == csv[1]


def test_run_continues_past_failing_scenario(monkeypatch, tmp_path, capsys):
    # Every config error is caught by parse_config, so the first scenario's
    # engine call is made to fail while it runs.
    from mpshrink import risk

    curve = risk.risk_curve

    def failing(cfg, jobs=1):
        if cfg.name == "bad":
            raise ValueError(f"engine failed at p={cfg.p}")
        return curve(cfg, jobs)

    monkeypatch.setattr(risk, "risk_curve", failing)
    text = (
        "[bad]\np = 5\nn = 5\ncov = ar\ntheta_norms = 0\nreplicates = 5\n"
        "[good]\np = 4\nn = 3\ncov = identity\ntheta_norms = 0\nreplicates = 5\n"
    )
    code = run(parse_config(text), out_dir=str(tmp_path))
    assert code == 1
    assert not (tmp_path / "bad.csv").exists()
    assert (tmp_path / "good.csv").exists()
    err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
    assert len(err_lines) == 1
    record = json.loads(err_lines[0])
    assert record["scenario"] == "bad"
    assert record["error"] == "engine failed at p=5"


# -------------------------------------------------------------------- verify

def test_verify_fast_identity(tmp_path, capsys):
    code = verify(only="ds_dy", fd_configs=2, out_dir=str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "ds_dy" in out and "PASS" in out
    csv_lines = (tmp_path / "identities.csv").read_text().strip().split("\n")
    assert csv_lines[0] == IDENTITY_CSV_HEADER
    assert csv_lines[1].startswith("ds_dy,")
    assert csv_lines[1].endswith(",true")


def test_verify_reports_elapsed_seconds_on_stderr(capsys):
    from mpshrink.identities import SUITE_NAMES

    assert verify(fd_configs=1, mc_replicates=1000) == 0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(SUITE_NAMES) + 1
    for name, line in zip(SUITE_NAMES, lines):
        assert re.fullmatch(rf"verify: {name} in \d+\.\d\d s", line), line
    assert re.fullmatch(rf"verify: {len(SUITE_NAMES)} identities in \d+\.\d\d s", lines[-1])
    assert "verify:" not in captured.out


def test_verify_single_identity_timing_line(capsys):
    assert verify(only="sure_assembly", fd_configs=1) == 0
    assert re.fullmatch(
        r"verify: sure_assembly in \d+\.\d\d s\nverify: 1 identities in \d+\.\d\d s\n",
        capsys.readouterr().err,
    )


def test_verify_unknown_name(capsys):
    assert verify(only="nope") == 2
    assert "unknown identity" in capsys.readouterr().err


@pytest.mark.parametrize("only", [None, "ds_dy"])
def test_verify_rejects_too_few_replicates_before_any_identity(only, capsys):
    assert main(["verify", "--replicates", "10", "--configs", "1"] + (["--only", only] if only else [])) == 2
    err = capsys.readouterr().err
    assert err == "error: replicates must be at least 1000, got 10\n"


def test_verify_failure_exit_code(monkeypatch, capsys):
    from mpshrink import cli
    from mpshrink.identities import IdentityReport

    def fake_suite(**kwargs):
        return [IdentityReport("stub", 1.0, 2.0, 1.0, 0.5, 1e-5, False)]

    monkeypatch.setattr(cli.identities, "run_default_suite", lambda **kw: fake_suite())
    assert verify() == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_names_an_identity_that_raises_and_exits_1(monkeypatch, capsys):
    # Replicate 3's Y is zeroed, so its S = 0 and stein_haff's shrinkage
    # builder raises RankDegenerateError, a ValueError: a failure of the
    # run, not a bad argument.
    from mpshrink import randgen

    monkeypatch.setattr(randgen, "wishart_slab", _defect_at(3, _zero))
    assert verify(only="stein_haff", mc_replicates=1000, fd_configs=1) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert json.loads(lines[0]) == {"identity": "stein_haff", "error": "degenerate F at replicate 3"}
    assert re.fullmatch(r"verify: 0 identities in \d+\.\d\d s", lines[1])
    assert captured.out.split() == "identity analytic oracle abs_err rel_err tol result".split()


def test_verify_runs_the_other_identities_after_one_raises(monkeypatch, tmp_path, capsys):
    from mpshrink import cli
    from mpshrink.identities import SUITE_NAMES, IdentityReport, RankDegenerateError

    def fake_suite(seed, only, fd_configs, mc_replicates):
        if only == "dm_dy":
            raise RankDegenerateError("eigenvalue 2 of S is 0")
        return [IdentityReport(only, 1.0, 1.0, 0.0, 0.0, 1e-5, True)]

    monkeypatch.setattr(cli.identities, "run_default_suite", fake_suite)
    assert verify(out_dir=str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert '{"identity": "dm_dy", "error": "eigenvalue 2 of S is 0"}\n' in captured.err
    ran = [name for name in SUITE_NAMES if name != "dm_dy"]
    assert [line.split()[0] for line in captured.out.splitlines()[1:]] == ran
    csv_rows = (tmp_path / "identities.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in csv_rows] == ran


# ---------------------------------------------------------------------- main

def test_main_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_RUN)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--replicates", "5"])
    assert code == 0
    assert (tmp_path / "out" / "one.csv").exists()
    assert re.search(
        r"^one: wrote one\.csv \(\d+ rows\) in \d+\.\d\d s, \d+ replicates/s, 0 degenerate draws, "
        r"0 of 1 chunks needed eigvalsh, 0 took the p x p fallback$",
        capsys.readouterr().err,
        re.M,
    )


def test_main_missing_config(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[s]\np = 4\n", "line 1: scenario 's': missing required key"),
        ("[s]\np = 4\nn = 3\ncov = identity\nestimators = js:-1\n", "line 5: estimators:"),
        ("[s]\np = 4\nn = 3\ncov = identity\nestimators = js:nan\n", "line 5: estimators:"),
        ("[s]\np = 4\nn = 3\ncov = identity\nestimators = js+:inf\n", "line 5: estimators:"),
        ("[s]\np = 4\nn = 3\ncov = identity\ntheta_norms = 0, inf\n", "line 5: theta_norms:"),
        ("[s]\np = 4\nn = 3\ncov = identity\ntheta_norms = nan\n", "line 5: theta_norms:"),
        ("[s]\np = 4\nn = 3\ncov = identity\ntheta_direction = 1, 0, nan, 0\n",
         "line 5: theta_direction:"),
        ("[global]\nmaster_seed = -3\n[s]\np = 4\nn = 3\ncov = identity\n",
         "line 3: scenario 's': master_seed must be nonnegative"),
        ("[s]\np = 600\nn = 4\ncov = identity\n",
         "line 1: scenario 's': dimension 600 exceeds the dense cap 512"),
        ("[s]\np = 5\nn = 5\ncov = block\n",
         "line 1: scenario 's': block-diagonal covariance needs an even dimension, got p=5"),
        ("[global]\nreplicates = 50\n[t]\np = 7\nn = 4\ncov = spiked\n",
         "line 3: scenario 't': spiked covariance needs an even dimension, got p=7"),
    ],
    ids=[
        "missing-key", "js-negative", "js-nan", "js+-inf", "theta-inf", "theta-nan",
        "direction-nan", "seed-negative", "p-over-cap", "block-odd-p", "spiked-odd-p",
    ],
)
def test_main_bad_config(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not (tmp_path / "out").exists()


def test_main_rejects_bad_flags(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SMALL_RUN)
    assert main(["run", str(cfg), "--jobs", "0"]) == 2
    assert main(["run", str(cfg), "--replicates", "0"]) == 2


def test_main_verify_subcommand(capsys):
    code = main(["verify", "--only", "sure_assembly", "--configs", "2"])
    assert code == 0
    assert "sure_assembly" in capsys.readouterr().out


@pytest.mark.parametrize("configs", ["0", "-3"])
def test_main_verify_rejects_nonpositive_configs(configs, capsys):
    assert main(["verify", "--configs", configs]) == 2
    assert "error: --configs must be at least 1" in capsys.readouterr().err


def test_verify_rejects_zero_fd_configs(capsys):
    assert verify(only="sure_assembly", fd_configs=0) == 2
    assert "fd_configs must be at least 1" in capsys.readouterr().err


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_main_verify_rejects_a_negative_seed_before_any_identity(monkeypatch, capsys):
    from mpshrink import cli

    ran = []
    monkeypatch.setattr(cli.identities, "run_default_suite", lambda **kw: ran.append(kw) or [])
    assert main(["verify", "--seed", "-1", "--replicates", "1000", "--configs", "1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert ran == []


def test_main_verify_rejects_an_out_path_that_is_a_file(monkeypatch, tmp_path, capsys):
    from mpshrink import cli

    ran = []
    monkeypatch.setattr(cli.identities, "run_default_suite", lambda **kw: ran.append(kw) or [])
    target = tmp_path / "taken"
    target.write_text("a file\n", encoding="utf-8")
    argv = ["verify", "--out", str(target), "--replicates", "1000", "--configs", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert ran == []
    assert target.read_text(encoding="utf-8") == "a file\n"
