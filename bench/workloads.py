"""The four benchmark workloads and the closed-loop client that drives them.

One client runs one op at a time (the machine this was tuned on has two
cores). CLI ops run ``python -m secinvest.cli`` as a cold subprocess with
``PYTHONPATH=src``, stdout and stderr going to files in the work directory;
the op time is the wall time from fork to reap, and ``os.wait4`` gives
each child's peak RSS. Calls are started by spawn.py, a small process, so
that RSS is the call's own. The ``verify`` op runs in-process.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen

CALL_TIMEOUT_S = 60.0
GOLDEN_TOL = 1e-9  # golden-section tolerance, as a share of z_max
# The dominance grid of acceptance criterion 5. Far above z* both benefit
# curves round to the same double (v*L), and dominance_check's strict test
# then fails; that is a known numerical limit, not what this op measures.
DOMINANCE_Z_MAX = 100.0
VERIFY_BATCH = 8  # periods per verify op; 256 periods is a whole number of batches


@dataclass
class ProcessResult:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    timed_out: bool


class Spawner:
    """Client of spawn.py: runs commands to completion from a small process,
    so each one's peak RSS is its own (see spawn.py). Use it as a context
    manager; leaving it closes the spawner and waits for it to end."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CALL_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, workdir: Path) -> ProcessResult:
        """Run cmd in workdir, timing it from fork to reap."""
        out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
        fields = [repr(CALL_TIMEOUT_S), str(out_path), str(err_path), str(workdir), *cmd]
        self.proc.stdin.write("\0".join(fields) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 4:
            raise RuntimeError(f"spawner ended without a result for {cmd[:4]}")
        seconds, code, maxrss, killed = reply
        return ProcessResult(
            seconds=float(seconds),
            returncode=int(code),
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
            maxrss_kb=int(maxrss),
            timed_out=killed == "1",
        )


@dataclass
class OpResult:
    seconds: float
    items: int
    rss_kb: int
    errors: list[str] = field(default_factory=list)


class Workload:
    cycle = 1  # measure whole cycles of this many ops

    def __init__(self, seed: int, workdir: Path, spawner: Spawner, goldens: Path,
                 sizes: gen.Sizes, secinvest):
        self.seed, self.workdir, self.spawner = seed, workdir, spawner
        self.goldens, self.sizes, self.secinvest = goldens, sizes, secinvest
        self.refs = checks.References()

    def generate(self) -> None:
        """Write this workload's seeded inputs."""
        raise NotImplementedError

    def run_op(self, op: int) -> "OpResult":
        raise NotImplementedError


class CliWorkload(Workload):
    """Base for workloads whose op is one or more cold CLI calls."""

    def calls(self, op: int) -> list[gen.Call]:
        raise NotImplementedError

    def items(self, op: int, calls) -> int:
        raise NotImplementedError

    def run_op(self, op: int) -> OpResult:
        calls = self.calls(op)
        cmd = [sys.executable, "-m", "secinvest.cli"]
        seconds, rss, errors = 0.0, 0, []
        rng = random.Random(f"check/{self.seed}/{op}")
        for call in calls:
            res = self.spawner.run(cmd + call.argv, self.workdir)
            seconds += res.seconds
            rss = max(rss, res.maxrss_kb)
            if res.timed_out:
                errors.append(f"{call.argv[0]}: timed out after {CALL_TIMEOUT_S:.0f} s")
            elif res.returncode != 0:
                errors.append(f"{call.argv[0]}: exit {res.returncode}: {res.stderr.strip()[-300:]}")
            else:
                errors += [f"{call.argv[0]}: {e}" for e in checks.check_call(call, res.stdout, rng, self.refs)]
        return OpResult(seconds, self.items(op, calls), rss, errors)


class CliSmall(CliWorkload):
    name = "cli-small"

    def generate(self) -> None:
        self._calls = gen.cli_small_calls(self.seed, self.workdir, self.goldens, self.sizes)
        self.cycle = len(self._calls)

    def calls(self, op):
        return [self._calls[op % len(self._calls)]]

    def items(self, op, calls):
        return 1


class Portfolio(CliWorkload):
    name = "portfolio"

    def generate(self) -> None:
        self._calls = gen.portfolio_calls(self.seed, self.workdir, self.sizes)

    def calls(self, op):
        return self._calls

    def items(self, op, calls):
        periods = 3 * self.sizes.portfolio_periods  # optimize parses a; delta-z a and b
        return periods + self.sizes.sweep_side**4


class Curves(CliWorkload):
    name = "curves"

    def generate(self) -> None:
        """Nothing to write: each op draws its parameter set into argv."""

    def calls(self, op):
        return gen.curves_calls(self.seed, op, self.workdir, self.sizes)

    def items(self, op, calls):
        curve, mix = calls
        return (curve.spec["steps"] + 1) * 2 + (mix.spec["steps"] + 1)


def verify_op(secinvest, period, sizes: gen.Sizes):
    """optimize_period, grid_oracle, golden_section_optimum and
    dominance_check on one baseline period and its disrupted twin."""
    model, optimize, analysis = secinvest.model, secinvest.optimize, secinvest.analysis
    v, loss, alpha, beta, _ = period
    base = model.PeriodSpec(v, loss, model.TechnologyProfile(alpha, beta, 0))
    twin = model.PeriodSpec(v, loss, model.TechnologyProfile(alpha, beta, 1))
    z_max = v * loss + 1.0
    return (
        optimize.optimize_period(base),
        optimize.grid_oracle(base, z_max, sizes.oracle_steps),
        optimize.golden_section_optimum(base, z_max, GOLDEN_TOL * z_max),
        analysis.dominance_check(base, twin, np.linspace(0.0, DOMINANCE_Z_MAX, sizes.dominance_points)),
    )


class Verify(Workload):
    """One op cross-checks VERIFY_BATCH periods. A single period takes about
    40 ms, shorter than the stretches in which a shared machine runs slow,
    so single-period op times come out bimodal and their median jumps
    between the modes; a batch averages over both."""

    name = "verify"

    def generate(self) -> None:
        self._periods = gen.verify_periods(self.seed, 256)

    def run_op(self, op: int) -> OpResult:
        first = op * VERIFY_BATCH % len(self._periods)
        batch = self._periods[first:first + VERIFY_BATCH]
        start = time.perf_counter()
        results = [verify_op(self.secinvest, period, self.sizes) for period in batch]
        seconds = time.perf_counter() - start
        errors = [e for period, result in zip(batch, results)
                  for e in checks.check_verify(period, result, self.sizes.oracle_steps)]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return OpResult(seconds, len(batch), rss, errors)


WORKLOADS = {w.name: w for w in (CliSmall, Portfolio, Curves, Verify)}
