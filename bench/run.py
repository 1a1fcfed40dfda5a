"""secinvest benchmark: four workloads, output checks and a traced run.

Run from the repository root:

    python3 bench/run.py                       # every workload, untraced
    python3 bench/run.py --trace 1             # ... then the traced run
    python3 bench/run.py --workload portfolio --seed 3 --seconds 20 --trace 0

With one workload, ``--trace 0`` measures its end-to-end metrics and
``--trace 1`` makes the traced in-process run instead (see tracing.py).
Report lines go to stdout; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
# Timings are given at a reference speed (README.md, "Reference speed"): the
# run is pinned to one CPU, and each set-up and op is scaled by REFERENCE_S
# over the time the fixed reference work takes on that CPU right before and
# right after it. The reference work runs for at least REFERENCE_SHARE of
# the step's time on each side.
REFERENCE_S = 0.010
REFERENCE_SHARE = 0.1
REFERENCE_LOOP = 80_000
REFERENCE_ARRAY_LEN = 20_000  # small, so the work adds nothing to verify's peak RSS
REFERENCE_ARRAY_PASSES = 10
MEASURE_LIMIT_S = 150.0  # stop starting ops after this, so a run ends within 180 s
TAIL_MIN_OPS = 20
# verify first in --workload all: its peak RSS is this process's own.
ALL_ORDER = ("verify", "cli-small", "portfolio", "curves")

# Reported in the final JSON (BENCHMARK.json end_to_end mirrors this table).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def tail_percentile(samples):
    """(p, value) of the highest percentile with at least 10 samples
    beyond it, by nearest rank; None below TAIL_MIN_OPS samples."""
    n = len(samples)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment(numpy_version):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class ReferenceClock:
    """Scale factors to reference speed for consecutive timed steps."""

    def __init__(self):
        import numpy as np

        self.array = np.linspace(0.0, 1.0, REFERENCE_ARRAY_LEN)
        self.samples = []
        self.before = self._median_sample(0.0)

    def _median_sample(self, seconds):
        """Median time of the reference work (a Python loop and a numpy
        expression, unrelated to the program), sampled until the samples
        add up to ``seconds``; at least one sample."""
        samples = []
        while not samples or sum(samples) < seconds:
            start = time.perf_counter()
            total = 0
            for i in range(REFERENCE_LOOP):
                total += i * i % 7
            for _ in range(REFERENCE_ARRAY_PASSES):
                float((1.0 / (1.0 + self.array) ** 2.5).sum())
            samples.append(time.perf_counter() - start)
        self.samples += samples
        return statistics.median(samples)

    def scale(self, seconds):
        """Scale factor of a step that just took ``seconds``."""
        after = self._median_sample(REFERENCE_SHARE * seconds)
        factor = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return factor


def measure(workload, seconds, deadline):
    """Set up SETUP_REPEATS times, then run ops in a closed loop until they
    add up to ``seconds`` (whole cycles of the workload's op list).
    Returns set-up times and ops, each with its reference-speed factor."""
    clock = ReferenceClock()
    setups, warm_errors = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.generate()
        generated = time.perf_counter() - start
        warm = workload.run_op(0)
        setups.append((generated + warm.seconds, clock.scale(generated + warm.seconds)))
        warm_errors += warm.errors
    ops, spent, op = [], 0.0, 0
    while not ops or (spent < seconds or op % workload.cycle) and time.monotonic() < deadline:
        result = workload.run_op(op)
        ops.append((result, clock.scale(result.seconds)))
        spent += result.seconds
        op += 1
    return setups, warm_errors, ops, clock.samples


def report_workload(name, setups, warm_errors, ops, reference):
    """Report lines and the end-to-end metrics of one measured workload:
    timings at reference speed, with the measured ones beside them."""
    results = [r for r, _ in ops]
    times_ms = [r.seconds * f * 1e3 for r, f in ops]
    measured_ms = [r.seconds * 1e3 for r in results]
    items = sum(r.items for r in results)
    failed = sum(1 for r in results if r.errors)
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "items_per_s": items / (sum(times_ms) / 1e3),
        "op_ms_p50": statistics.median(times_ms),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
    }
    measured = {
        "setup_s": statistics.median(s for s, _ in setups),
        "items_per_s": items / (sum(measured_ms) / 1e3),
        "op_ms_p50": statistics.median(measured_ms),
    }
    lines = [f"metric {name} {key} {value!r} {E2E_METRICS[key][0]}" for key, value in metrics.items()]
    lines += [f"metric {name} {key}_measured {value!r} {E2E_METRICS[key][0]}"
              for key, value in measured.items()]
    lines.append(f"metric {name} reference_ms {statistics.median(reference) * 1e3!r} ms"
                 f" n={len(reference)} (nominal {REFERENCE_S * 1e3:g})")
    tail = tail_percentile(times_ms)
    if tail is None:
        lines.append(f"metric {name} op_ms_tail omitted n={len(ops)} (fewer than {TAIL_MIN_OPS} ops)")
    else:
        lines.append(f"metric {name} op_ms_tail {tail[1]!r} ms p{tail[0]:g} n={len(ops)}")
    lines.append(f"metric {name} failed_frac {failed / len(ops)!r} ratio {failed}/{len(ops)}")
    for r in results:
        lines += [f"mismatch {name} {e}" for e in r.errors[:5]]
    lines += [f"mismatch {name} warm-up {e}" for e in warm_errors[:5]]
    return metrics, len(ops), failed, not warm_errors, lines


def import_program():
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{
        m: importlib.import_module(f"secinvest.{m}")
        for m in ("cli", "model", "optimize", "analysis", "scenario_io")
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *ALL_ORDER])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "secinvest" / "cli.py", GOLDENS / "curve.csv") if not p.exists()]
    if missing:
        print(f"bench: not a secinvest checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    import numpy as np

    import gen
    import tracing
    import workloads

    program = import_program()
    info = environment(np.__version__)
    # One CPU for this process and the CLI children it starts: the
    # reference work then times the CPU the ops ran on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    deadline = time.monotonic() + MEASURE_LIMIT_S
    names = ALL_ORDER if args.workload == "all" else (args.workload,)
    run_e2e = args.workload == "all" or args.trace == 0
    run_trace = args.trace == 1
    sizes = gen.TINY if args.tiny else gen.FULL

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    info["pinned_cpu"] = cpu
    info["loadavg_before"] = loadavg()
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        with workloads.Spawner(env) as spawner:
            for name in names if run_e2e else ():
                workload = workloads.WORKLOADS[name](
                    args.seed, workdir, spawner, GOLDENS, sizes, program)
                values, n, bad, warm_ok, lines = report_workload(
                    name, *measure(workload, args.seconds, deadline))
                print("\n".join(lines), flush=True)
                prefix = f"{name}." if args.workload == "all" else ""
                for key, value in values.items():
                    metrics[prefix + key] = {"value": value, "unit": E2E_METRICS[key][0]}
                attempted, failed, correct = attempted + n, failed + bad, correct and warm_ok
            if run_trace:
                values, n, bad, lines = tracing.run_traced(
                    args.seed, args.seconds, workdir, spawner, GOLDENS,
                    gen.TINY if args.tiny else gen.TRACE, program,
                    WORK / f"spans-{args.seed}.jsonl", deadline)
                print("\n".join(lines))
                for key, (unit, _) in tracing.LAYER_METRICS.items():
                    print(f"metric trace {key} {values[key]!r} {unit}")
                    metrics[key] = {"value": values[key], "unit": unit}
                attempted, failed = attempted + n, failed + bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["loadavg_after"] = loadavg()
    print("env " + json.dumps(info))
    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
