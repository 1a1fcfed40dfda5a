"""The traced in-process run: per-layer metrics of every module.

Spans are recorded by wrapping, from this file, the public names that
``secinvest.cli``, ``optimize``, ``analysis`` and ``scenario_io`` import from
one another; ``src/`` is not edited. Each span holds a name, start, end,
parent and the time its wrapped children took, so a layer's self time is its
duration minus its children. Per-point functions (``HOT``) are aggregated as
a count and a total instead of one span per call. Spans stay in memory and
are written out once, at the end.

One traced job is the same for every workload: the cli-small cycle, one
portfolio job, one curves op and a few verify periods, at ``gen.TRACE``
sizes, all through ``run_cli`` in-process with stdout buffered. The job is
also run untraced; the difference of the two medians is the tracing
overhead. Import times come from ``python -X importtime`` subprocesses.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import gen
import workloads

# (module, attribute, span name); the span name is the defining module.
WRAPS = (
    ("secinvest.cli", "run_cli", "cli.run_cli"),
    ("secinvest.cli", "build_parser", "cli.build_parser"),
    ("argparse", "ArgumentParser.parse_args", "cli.parse_args"),
    ("secinvest.cli", "parse_scenario", "scenario_io.parse_scenario"),
    ("secinvest.cli", "emit_curve_csv", "scenario_io.emit_curve_csv"),
    ("secinvest.cli", "emit_mix_csv", "scenario_io.emit_mix_csv"),
    ("secinvest.cli", "render_curve_svg", "scenario_io.render_curve_svg"),
    ("secinvest.cli", "fmt", "scenario_io.fmt"),
    ("secinvest.cli", "optimize_scenario", "optimize.optimize_scenario"),
    ("secinvest.cli", "delta_z", "analysis.delta_z"),
    ("secinvest.cli", "optimum_shift_sweep", "analysis.optimum_shift_sweep"),
    ("secinvest.scenario_io", "fmt", "scenario_io.fmt"),
    ("secinvest.scenario_io", "curve_point", "model.curve_point"),
    ("secinvest.scenario_io", "ebis_mix_curve", "model.ebis_mix_curve"),
    ("secinvest.scenario_io", "closed_form_optimum", "optimize.closed_form_optimum"),
    ("secinvest.model", "curve_point", "model.curve_point"),
    ("secinvest.optimize", "optimize_period", "optimize.optimize_period"),
    ("secinvest.optimize", "closed_form_optimum", "optimize.closed_form_optimum"),
    ("secinvest.optimize", "grid_oracle", "optimize.grid_oracle"),
    ("secinvest.optimize", "golden_section_optimum", "optimize.golden_section_optimum"),
    ("secinvest.optimize", "ebis_eval", "model.ebis_eval"),
    ("secinvest.optimize", "sbpf_eval", "model.sbpf_eval"),
    ("secinvest.optimize", "enbis_eval", "model.enbis_eval"),
    ("secinvest.analysis", "closed_form_optimum", "optimize.closed_form_optimum"),
    ("secinvest.analysis", "ebis_eval", "model.ebis_eval"),
    ("secinvest.analysis", "enbis_eval", "model.enbis_eval"),
    ("secinvest.analysis", "dominance_check", "analysis.dominance_check"),
)
HOT = {
    "scenario_io.fmt",
    "model.curve_point",
    "model.ebis_eval",
    "model.sbpf_eval",
    "optimize.closed_form_optimum",
    "optimize.optimize_period",
}
# Sizes recorded at a boundary: span name -> f(args, result).
SIZES = {
    "scenario_io.parse_scenario": lambda args, result: len(args[0]),
    "scenario_io.emit_curve_csv": lambda args, result: len(result),
    "scenario_io.emit_mix_csv": lambda args, result: len(result),
    "analysis.optimum_shift_sweep": lambda args, result: len(result),
}

# name -> (unit, better); BENCHMARK.json's per_layer list mirrors this table.
LAYER_METRICS = {
    "import.interpreter_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.secinvest_ms": ("ms", "lower"),
    "import.secinvest_cli_ms": ("ms", "lower"),
    "cli.parse_args_ms": ("ms", "lower"),
    "cli.run_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "scenario_io.parse_ms": ("ms", "lower"),
    "scenario_io.bytes_in": ("bytes", "lower"),
    "scenario_io.emit_curve_ms": ("ms", "lower"),
    "scenario_io.emit_mix_ms": ("ms", "lower"),
    "scenario_io.svg_ms": ("ms", "lower"),
    "scenario_io.csv_bytes": ("bytes", "lower"),
    "scenario_io.fmt_ns_per_value": ("ns", "lower"),
    "scenario_io.self_ms": ("ms", "lower"),
    "model.curve_point_ns": ("ns", "lower"),
    "model.ebis_vec_ns_per_point": ("ns", "lower"),
    "model.enbis_eval_ms": ("ms", "lower"),
    "model.mix_curve_ms": ("ms", "lower"),
    "model.points": ("count", "lower"),
    "model.self_ms": ("ms", "lower"),
    "optimize.optimize_scenario_ms": ("ms", "lower"),
    "optimize.closed_form_ns": ("ns", "lower"),
    "optimize.grid_oracle_ms": ("ms", "lower"),
    "optimize.golden_section_ms": ("ms", "lower"),
    "optimize.zstar_max_rel_err": ("ratio", "lower"),
    "optimize.foc_residual_max": ("ratio", "lower"),
    "optimize.corner_frac": ("ratio", "lower"),
    "optimize.self_ms": ("ms", "lower"),
    "analysis.delta_z_ms": ("ms", "lower"),
    "analysis.sweep_ms": ("ms", "lower"),
    "analysis.sweep_tuples": ("count", "higher"),
    "analysis.dominance_ms": ("ms", "lower"),
    "analysis.self_ms": ("ms", "lower"),
    "trace.job_ms": ("ms", "lower"),
    "trace.traced_job_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}

VERIFY_PERIODS = 4
IMPORT_REPEATS = 5


class Tracer:
    """Wraps functions to record spans (or per-name aggregates) in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns, child ns)
        self.agg = defaultdict(lambda: [0, 0, 0])  # name -> [calls, total ns, child ns]
        self.sizes = defaultdict(int)
        self._stack = []  # open frames: [id, child ns]
        self._next_id = 0
        self._restore = []

    def wrap(self, fn, name):
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        size_of = SIZES.get(name)
        if name in HOT:
            record = self.agg[name]

            def hot(*args, **kwargs):
                frame = [None, 0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += took
                    record[0] += 1
                    record[1] += took
                    record[2] += frame[1]

            return hot

        def span(*args, **kwargs):
            self._next_id += 1
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            frame = [self._next_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, name, start, end, frame[1]))
            if size_of is not None:
                self.sizes[name] += size_of(args, result)
            return result

        return span

    def install(self):
        for module_name, attr, name in WRAPS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                continue  # a later refactor removed the name
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name))

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def totals(self):
        """name -> [calls, total ns, self ns] over spans and aggregates."""
        rows = defaultdict(lambda: [0, 0, 0])
        for _, _, name, start, end, child in self.spans:
            row = rows[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        for name, (calls, took, child) in self.agg.items():
            row = rows[name]
            row[0] += calls
            row[1] += took
            row[2] += took - child
        return rows

    def layer_values(self):
        """Per-layer metrics of the spans and aggregates recorded so far."""
        rows = self.totals()

        def ms(*names):
            return sum(rows[n][1] for n in names) / 1e6

        def ns_per_call(name):
            calls, took, _ = rows[name]
            return took / calls if calls else 0.0

        values = {
            "cli.parse_args_ms": ms("cli.build_parser", "cli.parse_args"),
            "cli.run_ms": ms("cli.run_cli"),
            "cli.self_ms": rows["cli.run_cli"][2] / 1e6,
            "scenario_io.parse_ms": ms("scenario_io.parse_scenario"),
            "scenario_io.bytes_in": self.sizes["scenario_io.parse_scenario"],
            "scenario_io.emit_curve_ms": ms("scenario_io.emit_curve_csv"),
            "scenario_io.emit_mix_ms": ms("scenario_io.emit_mix_csv"),
            "scenario_io.svg_ms": ms("scenario_io.render_curve_svg"),
            "scenario_io.csv_bytes": self.sizes["scenario_io.emit_curve_csv"]
            + self.sizes["scenario_io.emit_mix_csv"],
            "scenario_io.fmt_ns_per_value": ns_per_call("scenario_io.fmt"),
            "model.curve_point_ns": ns_per_call("model.curve_point"),
            "model.enbis_eval_ms": ms("model.enbis_eval"),
            "model.mix_curve_ms": ms("model.ebis_mix_curve"),
            "model.points": rows["model.curve_point"][0],
            "optimize.optimize_scenario_ms": ms("optimize.optimize_scenario"),
            "optimize.closed_form_ns": ns_per_call("optimize.closed_form_optimum"),
            "optimize.grid_oracle_ms": ms("optimize.grid_oracle"),
            "optimize.golden_section_ms": ms("optimize.golden_section_optimum"),
            "analysis.delta_z_ms": ms("analysis.delta_z"),
            "analysis.sweep_ms": ms("analysis.optimum_shift_sweep"),
            "analysis.sweep_tuples": self.sizes["analysis.optimum_shift_sweep"],
            "analysis.dominance_ms": ms("analysis.dominance_check"),
        }
        # cli.self_ms above is run_cli minus its children; the others are
        # the self time of every span and aggregate of the module.
        for module in ("scenario_io", "model", "optimize", "analysis"):
            values[f"{module}.self_ms"] = sum(
                own for name, (_, _, own) in rows.items()
                if name.startswith(module + ".")) / 1e6
        return values

    def span_table(self):
        """(name, calls, total ms, self ms) per name, largest self time first."""
        return sorted(((n, c, t / 1e6, s / 1e6) for n, (c, t, s) in self.totals().items()),
                      key=lambda r: -r[3])

    def write(self, path: Path):
        with open(path, "w") as out:
            for span_id, parent, name, start, end, child in self.spans:
                out.write(json.dumps(dict(id=span_id, parent=parent, name=name,
                                          start_ns=start, end_ns=end, child_ns=child)) + "\n")
            for name, (calls, took, child) in sorted(self.agg.items()):
                out.write(json.dumps(dict(name=name, calls=calls, total_ns=took,
                                          child_ns=child)) + "\n")


def import_times(workdir: Path, spawner) -> dict:
    """Median interpreter start and cumulative import times, from -X importtime."""
    wanted = {"numpy": "import.numpy_ms", "secinvest": "import.secinvest_ms",
              "secinvest.cli": "import.secinvest_cli_ms"}
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        res = spawner.run([sys.executable, "-c", "pass"], workdir)
        samples["import.interpreter_ms"].append(res.seconds * 1e3)
        res = spawner.run(
            [sys.executable, "-X", "importtime", "-c", "import secinvest.cli"], workdir)
        if res.returncode != 0:
            raise RuntimeError(f"import secinvest.cli failed: {res.stderr[-300:]}")
        found = {}
        for line in res.stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, module = line.split("|")
                if module.strip() in wanted:
                    found[wanted[module.strip()]] = int(cumulative) / 1e3
        for key in wanted.values():
            samples[key].append(found.get(key, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def accuracy(secinvest, periods) -> dict:
    """Worst relative error of the program's z* against the 50-digit closed
    form, worst first-order-condition residual at it, and the corner share."""
    model, optimize = secinvest.model, secinvest.optimize
    mp = checks.MP
    worst_rel = worst_foc = 0.0
    corners = 0
    for v, loss, alpha, beta, d in periods:
        z = optimize.closed_form_optimum(
            model.PeriodSpec(v, loss, model.TechnologyProfile(alpha, beta, d)))
        k = mp.mpf(beta) + d
        exact = checks.exact_z_star(v, loss, alpha, k)
        if exact == 0:
            corners += 1
            worst_rel = max(worst_rel, 0.0 if z == 0 else 1.0)
            continue
        worst_rel = max(worst_rel, float(abs((z - exact) / exact)))
        a = mp.mpf(alpha)
        foc = a * k * mp.mpf(v) * mp.mpf(loss) * (a * mp.mpf(z) + 1) ** -(k + 1) - 1
        worst_foc = max(worst_foc, float(abs(foc)))
    return {
        "optimize.zstar_max_rel_err": worst_rel,
        "optimize.foc_residual_max": worst_foc,
        "optimize.corner_frac": corners / len(periods),
    }


class TracedJob:
    """Inputs of the traced job, generated once per run from the seed."""

    def __init__(self, seed: int, workdir: Path, goldens: Path, sizes: gen.Sizes, secinvest):
        self.secinvest, self.sizes, self.seed = secinvest, sizes, seed
        self.calls = (gen.cli_small_calls(seed, workdir, goldens, sizes)
                      + gen.portfolio_calls(seed, workdir, sizes)
                      + gen.curves_calls(seed, 0, workdir, sizes))
        self.periods = gen.verify_periods(seed, VERIFY_PERIODS)
        self.refs = checks.References()
        curve = next(c for c in self.calls if c.kind == "curve" and c.spec["svg"])
        s = curve.spec
        self.curve_grid = np.linspace(s["z_min"], s["z_max"], s["steps"] + 1)
        self.curve_period = secinvest.model.PeriodSpec(
            s["v"], s["loss"], secinvest.model.TechnologyProfile(s["alpha"], s["beta"], 0))

    def all_periods(self):
        """Every period the job optimizes, for the accuracy metrics."""
        out = list(self.periods)
        for call in self.calls:
            if call.kind == "optimize":
                out += call.spec["periods"]
            elif call.kind == "delta":
                out += call.spec["b"]["periods"]
        return out

    def run(self, tracer: Tracer | None):
        """Run the job once, traced when a tracer is given; return
        (seconds, stdout bytes, outputs)."""
        outputs = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            for call in self.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = self.secinvest.cli.run_cli(call.argv)  # looked up now: may be wrapped
                outputs.append((call, code, buf.getvalue()))
            verified = [workloads.verify_op(self.secinvest, p, self.sizes) for p in self.periods]
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return seconds, sum(len(out) for _, _, out in outputs), (outputs, verified)

    def check(self, outputs) -> tuple[int, int, list[str]]:
        """(ops checked, ops failed, mismatch messages) for one job's outputs."""
        cli_outputs, verified = outputs
        per_op = []
        for i, (call, code, stdout) in enumerate(cli_outputs):
            rng = random.Random(f"check/trace/{self.seed}/{i}")
            errs = [f"exit {code}"] if code != 0 else checks.check_call(call, stdout, rng, self.refs)
            per_op.append([f"{call.argv[0]}: {e}" for e in errs])
        for period, results in zip(self.periods, verified):
            per_op.append(checks.check_verify(period, results, self.sizes.oracle_steps))
        return len(per_op), sum(1 for e in per_op if e), [e for errs in per_op for e in errs]

    def vector_floor_ns(self) -> float:
        """ebis_eval on the traced curve's grid as one ndarray, ns per point."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter_ns()
            self.secinvest.model.ebis_eval(self.curve_grid, self.curve_period)
            best = min(best, time.perf_counter_ns() - start)
        return best / len(self.curve_grid)


def run_traced(seed, seconds, workdir, spawner, goldens, sizes, secinvest, spans_path, deadline):
    """Per-layer metrics: medians over traced/untraced job pairs that fill
    ``seconds`` of job time. Returns (metrics, attempted, failed, report lines)."""
    job = TracedJob(seed, workdir, goldens, sizes, secinvest)
    values = defaultdict(list)
    values.update({k: [v] for k, v in import_times(workdir, spawner).items()})
    values.update({k: [v] for k, v in accuracy(secinvest, job.all_periods()).items()})
    attempted = failed = 0
    errors = []
    spent, pair = 0.0, 0
    while pair == 0 or (spent < seconds and time.monotonic() < deadline):
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            took, stdout_bytes, outputs = job.run(tracer)
            spent += took
            checked, bad, errs = job.check(outputs)
            attempted += checked
            failed += bad
            errors += errs
            if traced:
                last_tracer = tracer
                values["trace.traced_job_ms"].append(took * 1e3)
                values["cli.stdout_bytes"].append(stdout_bytes)
                for key, value in tracer.layer_values().items():
                    values[key].append(value)
            else:
                values["trace.job_ms"].append(took * 1e3)
        values["model.ebis_vec_ns_per_point"].append(job.vector_floor_ns())
        pair += 1
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["trace.overhead_ms"] = metrics["trace.traced_job_ms"] - metrics["trace.job_ms"]
    last_tracer.write(spans_path)
    lines = [f"trace pairs={pair} spans={len(last_tracer.spans)} written to {spans_path.name}",
             "span name                              calls    total_ms     self_ms"]
    lines += [f"  {n:<36} {c:>7} {t:>11.3f} {s:>11.3f}" for n, c, t, s in last_tracer.span_table()]
    lines += [f"mismatch {e}" for e in errors[:20]]
    return metrics, attempted, failed, lines
