"""The demos run end to end: each exits 0 and prints its walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import secinvest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_both_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "disruption_comparison_demo.py", "optimal_investment_demo.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(secinvest.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert result.stderr == ""
