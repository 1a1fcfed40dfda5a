"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed; the same seed gives the same files
and argv, and the program under test receives nothing else. Periods are
plain tuples ``(vulnerability, loss, alpha, beta, disruptive)`` of Python
floats, written to JSON with ``repr`` precision so the program parses back
exactly the doubles the checker recomputes from.

Why each workload exists (see README.md for the layer each one stresses):

- ``cli-small``: interpreter start plus ``import secinvest`` is most of each
  cold call on golden-sized inputs, so the import and cli layers dominate
  and a model-kernel change should not move it.
- ``portfolio``: per-period Python work (parse, optimize, delta_z, row
  printing, sweep) dominates; ``optimize`` is write-heavy and ``delta-z``
  read-heavy over the same files, so trading one for the other shows.
- ``curves``: the per-point path (curve_point, ebis_mix_curve, fmt, SVG)
  does nearly all the work on a dense grid.
- ``verify``: library-only cross-checks (grid oracle, golden section,
  dominance) that no CLI workload reaches; no start-up, parse or CSV.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

# Linux refuses a single argv string longer than MAX_ARG_STRLEN (32 pages).
MAX_ARG_BYTES = 128 * 1024

# Share of periods drawn in each regime of alpha*k*v*L: corner (< 1),
# near-corner (just above 1, where the closed form loses digits) and interior.
REGIMES = (("corner", 0.3), ("near", 0.2), ("interior", 0.5))


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    portfolio_periods: int
    sweep_side: int  # the sweep grid has sweep_side**4 tuples
    curve_steps: int
    small_steps: int
    oracle_steps: int
    dominance_points: int


FULL = Sizes(
    portfolio_periods=5000,
    sweep_side=12,
    curve_steps=20_000,
    small_steps=1000,
    oracle_steps=10**6,
    dominance_points=1000,
)
# The traced in-process job: every layer at sizes that let several
# traced/untraced pairs fit into one run.
TRACE = Sizes(
    portfolio_periods=2000,
    sweep_side=8,
    curve_steps=5000,
    small_steps=1000,
    oracle_steps=10**6,
    dominance_points=1000,
)
TINY = Sizes(
    portfolio_periods=50,
    sweep_side=3,
    curve_steps=200,
    small_steps=100,
    oracle_steps=10**4,
    dominance_points=50,
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"secinvest-bench/{workload}/{seed}")


def draw_period(rng: random.Random, regime: str | None = None, d: int | None = None):
    """One period in the given regime (drawn by REGIMES share when None)."""
    if regime is None:
        regime = rng.choices([r for r, _ in REGIMES], [w for _, w in REGIMES])[0]
    alpha = 10.0 ** rng.uniform(-2.0, 1.0)
    beta = rng.uniform(1.0, 5.0)
    if d is None:
        d = rng.randint(0, 1)
    v = rng.uniform(0.05, 1.0)
    scale = alpha * (beta + d) * v  # alpha*k*v; the regime is set by scale*L
    if regime == "corner":
        loss = rng.uniform(0.0, 0.999) / scale
    elif regime == "near":
        loss = (1.0 + 10.0 ** rng.uniform(-10.0, -3.0)) / scale
    else:  # scale >= 5e-4, so the interval is never empty
        loss = rng.uniform(1.01 / scale, 1e6)
    return (v, loss, alpha, beta, d)


def scenario_json(label: str, periods) -> str:
    return json.dumps(
        {
            "label": label,
            "periods": [
                {"vulnerability": v, "loss": loss, "alpha": a, "beta": b, "disruptive": d}
                for v, loss, a, b, d in periods
            ],
        }
    )


def _csv(values) -> str:
    return ",".join(repr(float(x)) for x in values)


@dataclass
class Call:
    """One cold CLI invocation: argv after ``python -m secinvest.cli`` and
    what the checker needs to recompute its output."""

    argv: list[str]
    kind: str  # golden | optimize | curve | mix | delta | sweep
    spec: dict


def _checked_argv(argv: list[str]) -> list[str]:
    for arg in argv:
        if len(arg.encode()) >= MAX_ARG_BYTES:
            raise ValueError(f"argument of {len(arg)} bytes exceeds the per-argument limit")
    return argv


def _curve_call(rng, steps, include_disrupted, svg_path=None, explicit_z_max=True):
    v, loss, alpha, beta, _ = draw_period(rng, regime="interior", d=0)
    z_max = v * loss * rng.uniform(0.2, 1.0) if explicit_z_max else v * loss
    argv = ["curve", "--vulnerability", repr(v), "--loss", repr(loss),
            "--alpha", repr(alpha), "--beta", repr(beta), "--steps", str(steps)]
    if explicit_z_max:
        argv += ["--z-max", repr(z_max)]
    if include_disrupted:
        argv.append("--include-disrupted")
    if svg_path is not None:
        argv += ["--svg", str(svg_path)]
    spec = dict(v=v, loss=loss, alpha=alpha, beta=beta, z_min=0.0, z_max=z_max,
                steps=steps, disrupted=include_disrupted, svg=svg_path)
    return Call(_checked_argv(argv), "curve", spec)


def _mix_call(rng, steps, svg_path=None):
    v, loss, alpha, beta, _ = draw_period(rng, regime="interior", d=0)
    alpha_post = alpha * rng.uniform(0.5, 2.0)
    beta_post = rng.uniform(1.0, 5.0)
    switch = rng.randint(1, steps)
    z_max = v * loss
    argv = ["mix-curve", "--vulnerability", repr(v), "--loss", repr(loss),
            "--alpha", repr(alpha), "--beta", repr(beta),
            "--alpha-post", repr(alpha_post), "--beta-post", repr(beta_post),
            "--switch-index", str(switch), "--steps", str(steps)]
    if svg_path is not None:
        argv += ["--svg", str(svg_path)]
    spec = dict(v=v, loss=loss, pre=(alpha, beta), post=(alpha_post, beta_post),
                switch=switch, z_min=0.0, z_max=z_max, steps=steps, svg=svg_path)
    return Call(_checked_argv(argv), "mix", spec)


def _sweep_call(rng, side_a, side_b, side_v, side_l):
    alphas = sorted({10.0 ** rng.uniform(-2.0, 1.0) for _ in range(side_a)})
    betas = sorted({rng.uniform(1.0, 5.0) for _ in range(side_b)})
    vs = sorted({rng.uniform(0.05, 1.0) for _ in range(side_v)})
    losses = sorted({10.0 ** rng.uniform(-1.0, 6.0) for _ in range(side_l)})
    argv = ["sweep", "--alpha", _csv(alphas), "--beta", _csv(betas),
            "--vulnerability", _csv(vs), "--loss", _csv(losses)]
    return Call(_checked_argv(argv), "sweep", dict(grid=(alphas, betas, vs, losses)))


def _write_scenario(workdir: Path, name: str, periods) -> tuple[Path, dict]:
    path = workdir / name
    path.write_text(scenario_json(name.removesuffix(".json"), periods))
    return path, dict(label=name.removesuffix(".json"), periods=periods)


def golden_calls(workdir: Path, goldens: Path) -> list[Call]:
    """The argv of tests/test_acceptance.py criterion 9, on copies of the
    golden scenario files; their stdout must match the goldens byte for byte."""
    a = workdir / "golden_a.json"
    b = workdir / "golden_b.json"
    shutil.copyfile(goldens / "scenario_a.json", a)
    shutil.copyfile(goldens / "scenario_b.json", b)
    table = {
        "curve.csv": ["curve", "--vulnerability", "0.5", "--loss", "100",
                      "--alpha", "1", "--beta", "1", "--z-min", "0", "--z-max", "2",
                      "--steps", "2", "--include-disrupted"],
        "mix_curve.csv": ["mix-curve", "--vulnerability", "0.5", "--loss", "100",
                          "--alpha", "1", "--beta", "1", "--switch-index", "2",
                          "--z-min", "0", "--z-max", "2", "--steps", "4"],
        "delta_z.txt": ["delta-z", str(a), str(b), "--plan-a", "1", "--plan-b", "1"],
        "sweep.csv": ["sweep", "--alpha", "1", "--beta", "1",
                      "--vulnerability", "0.5", "--loss", "4,20"],
    }
    return [
        Call(argv, "golden", dict(expected=(goldens / name).read_bytes()))
        for name, argv in table.items()
    ]


def cli_small_calls(seed: int, workdir: Path, goldens: Path, sizes: Sizes) -> list[Call]:
    """One cycle of golden-sized calls covering all five subcommands."""
    rng = rng_for("cli-small", seed)
    calls = golden_calls(workdir, goldens)
    one, spec1 = _write_scenario(workdir, "small1.json", [draw_period(rng)])
    two, spec2 = _write_scenario(workdir, "small2.json", [draw_period(rng) for _ in range(2)])
    twin_periods = [(v, loss, a, b, 1 - d) for v, loss, a, b, d in spec2["periods"]]
    twin, spec_t = _write_scenario(workdir, "small2_twin.json", twin_periods)
    plans = [[rng.uniform(0.0, 2.0 * v * loss) for v, loss, *_ in spec2["periods"]]
             for _ in range(2)]
    threshold = rng.uniform(0.0, 0.5)
    calls += [
        Call(["optimize", str(one)], "optimize", spec1),
        Call(["optimize", str(two)], "optimize", spec2),
        _curve_call(rng, sizes.small_steps, include_disrupted=False, explicit_z_max=False),
        _curve_call(rng, sizes.small_steps, include_disrupted=True),
        _mix_call(rng, sizes.small_steps),
        Call(["delta-z", str(two), str(twin), "--optimize"], "delta",
             dict(a=spec2, b=spec_t, plans=None, threshold=0.10)),
        Call(_checked_argv(["delta-z", str(two), str(twin), "--plan-a", _csv(plans[0]),
                            "--plan-b", _csv(plans[1]), "--threshold", repr(threshold)]),
             "delta", dict(a=spec2, b=spec_t, plans=plans, threshold=threshold)),
        _sweep_call(rng, 1, 1, 1, 2),
    ]
    return calls


def portfolio_calls(seed: int, workdir: Path, sizes: Sizes) -> list[Call]:
    """The three calls of one portfolio job: a write-heavy optimize, a
    read-heavy delta-z over the same files, and a 4-D sweep."""
    rng = rng_for("portfolio", seed)
    periods = [draw_period(rng) for _ in range(sizes.portfolio_periods)]
    twin_periods = [(v, loss, a, b, 1 - d) for v, loss, a, b, d in periods]
    a, spec_a = _write_scenario(workdir, "portfolio_a.json", periods)
    b, spec_b = _write_scenario(workdir, "portfolio_b.json", twin_periods)
    side = sizes.sweep_side
    return [
        Call(["optimize", str(a)], "optimize", spec_a),
        Call(["delta-z", str(a), str(b), "--optimize"], "delta",
             dict(a=spec_a, b=spec_b, plans=None, threshold=0.10)),
        _sweep_call(rng, side, side, side, side),
    ]


def curves_calls(seed: int, op: int, workdir: Path, sizes: Sizes) -> list[Call]:
    """The curve and mix-curve calls of the op-th curves op; each op draws
    a fresh parameter set from the seed."""
    rng = rng_for("curves", seed * 1_000_003 + op)
    return [
        _curve_call(rng, sizes.curve_steps, include_disrupted=True,
                    svg_path=workdir / "curve.svg"),
        _mix_call(rng, sizes.curve_steps, svg_path=workdir / "mix.svg"),
    ]


def verify_periods(seed: int, count: int):
    """Baseline periods (dummy 0) for the library cross-checks; each is
    compared against its disrupted twin."""
    rng = rng_for("verify", seed)
    return [draw_period(rng, d=0) for _ in range(count)]
