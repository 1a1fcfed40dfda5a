"""Smoke test of the benchmark at tiny sizes.

Not collected by the repository's own pytest run (the file name does not
match ``test_*.py``); run it explicitly:

    python3 -m pytest -q bench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def _printed(stdout):
    """(scope, metric) -> the words after it on its ``metric`` line."""
    return {
        (words[1], words[2]): words[3:]
        for words in (line.split() for line in stdout.splitlines())
        if words and words[0] == "metric"
    }


def test_every_metric_is_printed_with_its_unit_and_nothing_fails():
    proc = _run("--workload", "all", "--tiny", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed = _printed(proc.stdout)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            value, unit = printed[(workload, metric["name"])][:2]
            assert float(value) > 0 and unit == metric["unit"], (workload, metric)
        tail = printed[(workload, "op_ms_tail")]
        assert tail[0] == "omitted" and tail[1].startswith("n=") or tail[1] == "ms", tail
        frac = printed[(workload, "failed_frac")]
        assert float(frac[0]) == 0.0 and frac[1] == "ratio", (workload, frac)
    for metric in SPEC["per_layer"]:
        value, unit = printed[("trace", metric["name"])][:2]
        float(value)
        assert unit == metric["unit"], metric
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_single_workload_result_has_exactly_the_declared_metrics():
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _run("--workload", "verify", "--seed", "7", "--tiny",
                    "--seconds", "0.5", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == {m["name"] for m in declared}
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
        assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_classification_accepts_either_rule_only_at_a_total_near_zero():
    sys.path.insert(0, str(BENCH))
    import checks

    tol = checks.sum_tolerance(2, 2.5)
    # Two corner periods: the exact ENBIS(A) is 2.6e-20, the summed one -1.5e-16.
    assert checks._classifications(2.6e-20, tol, 0.002425, tol, 0.1) == {"true", "false"}
    assert checks._classifications(0.5, tol, 0.502425, tol, 0.1) == {"false"}
    assert checks._classifications(-0.5, tol, 0.002425, tol, 0.1) == {"true"}
