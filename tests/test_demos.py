"""The demo scripts and README's Python blocks run to completion against
the package in src/.

Each demo runs from a copy in a temporary directory, because
risk_simulation.py writes its SVG next to itself, and under
-W error::RuntimeWarning, the warning policy of the test suite.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S
)


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "identity_checks.py",
        "pseudoinverse_tour.py",
        "risk_simulation.py",
        "shrinkage_basics.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_python_blocks_found():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_every_public_name_resolves():
    import mpshrink

    assert len(mpshrink.__all__) == len(set(mpshrink.__all__)) == 22
    for name in mpshrink.__all__:
        assert getattr(mpshrink, name) is not None, name
