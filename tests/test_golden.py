"""Golden-bytes checks of `mpshrink run` and `mpshrink verify`.

The files under golden/figure1-2100 are the CSVs and SVG charts that six
figure1.cfg sections write at --replicates 2100 (two chunks): one each of p10-n5,
p10-n9, p20-n10, p20-n19, p50-n25 and p50-n49, covering the three
covariance shapes, n = p/2 and n = p-1 on the solve side of the kernel,
the largest p, where the theta sweep does the most arithmetic, and
p50-n49, nearest the Marchenko-Pastur edge, where lambda_min(G) is
smallest against the full-rank certificate's shift. A change that claims to keep the
output bytes must keep these, at any --jobs. To re-pin them after a change
that moves the bytes on purpose, run the same sections and copy the files.

golden/verify-1000/identities.csv is what `mpshrink verify --replicates 1000
--configs 1` writes: the finite-difference identities at one configuration
per shape, stein and stein_haff at 1000 replicates and the finiteness
probe's fixed 2 x 10 000 draws, so every Monte-Carlo stream the suite opens
is pinned. golden/verify-5x1000/identities.csv is the same at --configs 5,
the benchmark's verify setting, where each finite-difference row is the
worst of five configurations per shape, and golden/verify-100x1000 at
--configs 100, the suite's own finite-difference size (acceptance
criterion 4), the worst of a hundred.
"""

import pathlib
import re

import pytest

from mpshrink.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "figure1-2100"
SECTIONS = (
    "p10-n5-spiked",
    "p10-n9-ar",
    "p20-n10-block",
    "p20-n19-spiked",
    "p50-n25-ar",
    "p50-n49-block",
)


def figure1_subset() -> str:
    """figure1.cfg's [global] block and the SECTIONS, verbatim."""
    text = (ROOT / "figure1.cfg").read_text(encoding="utf-8")
    blocks = re.split(r"(?m)^(?=\[)", text)
    heads = ("[global]",) + tuple(f"[{name}]" for name in SECTIONS)
    kept = [b for b in blocks if b.startswith(heads)]
    assert len(kept) == len(heads)
    return "".join(kept)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matches_golden_csv_bytes(jobs, tmp_path):
    """The CSVs, and the SVG charts figure1.cfg's emit_svg asks for."""
    config = tmp_path / "figure1-subset.cfg"
    config.write_text(figure1_subset(), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["run", str(config), "--replicates", "2100", "--jobs", str(jobs), "--out", str(out)])
    assert rc == 0
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(f"{name}.{ext}" for name in SECTIONS for ext in ("csv", "svg"))
    changed = [name for name in names if (out / name).read_bytes() != (GOLDEN / name).read_bytes()]
    assert not changed, changed


def verify_csv_bytes(tmp_path, configs: int) -> bytes:
    out = tmp_path / "out"
    rc = main(["verify", "--replicates", "1000", "--configs", str(configs), "--out", str(out)])
    assert rc == 0
    return (out / "identities.csv").read_bytes()


def test_verify_matches_golden_identities_bytes(tmp_path):
    expected = (GOLDEN_DIR / "verify-1000" / "identities.csv").read_bytes()
    assert verify_csv_bytes(tmp_path, 1) == expected


def test_verify_five_configs_matches_golden_identities_bytes(tmp_path):
    expected = (GOLDEN_DIR / "verify-5x1000" / "identities.csv").read_bytes()
    assert verify_csv_bytes(tmp_path, 5) == expected


def test_verify_hundred_configs_matches_golden_identities_bytes(tmp_path):
    expected = (GOLDEN_DIR / "verify-100x1000" / "identities.csv").read_bytes()
    assert verify_csv_bytes(tmp_path, 100) == expected
