"""The demos run end to end: each exits 0 and prints its walkthrough. The
README's Python examples run too."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import secinvest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


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


def test_readme_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}  # the second example draws the first one's period
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()
