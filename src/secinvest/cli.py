"""Command-line surface.

Subcommands: optimize, curve, mix-curve, delta-z, sweep. Each handler
computes its result, then yields the text of its stdout; ``run_cli`` writes
it, so an input error writes nothing there. Data goes to stdout, diagnostics
to stderr. Exit 0 on success, 1 on domain/contract errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .analysis import DEFAULT_DISRUPTION_THRESHOLD, delta_z, optimum_shift_sweep
from .errors import DomainError, ModelError
from .model import InvestmentPlan, PeriodSpec, Scenario, TechnologyProfile
from .optimize import optimize_scenario
from .scenario_io import (
    _curve_table,
    _mix_table,
    _z_grid,
    fmt,
    fmt_rows,
    parse_scenario,
    render_curve_svg,
)


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def _write_svg(path: str, z, *columns) -> None:
    svg = render_curve_svg(z, columns)
    try:
        Path(path).write_text(svg)
    except OSError as exc:
        raise DomainError(f"cannot write SVG file {path}: {exc}") from exc


def _parse_values(raw: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise DomainError(f"invalid value list for {flag}: {raw!r}") from exc


def _plan_from_flag(raw: str | None, flag: str, scenario: Scenario) -> InvestmentPlan:
    """Comma-separated amounts, or all zeros when the flag is absent."""
    if raw is None:
        return InvestmentPlan((0.0,) * scenario.horizon)
    return InvestmentPlan(_parse_values(raw, flag))


def _period_from_args(args, alpha=None, beta=None, disruptive=0) -> PeriodSpec:
    return PeriodSpec(
        vulnerability=args.vulnerability,
        loss=args.loss,
        technology=TechnologyProfile(
            alpha if alpha is not None else args.alpha,
            beta if beta is not None else args.beta,
            disruptive,
        ),
    )


def _cmd_optimize(args) -> Iterator[str]:
    scenario = _load_scenario(args.scenario)
    result = optimize_scenario(scenario)
    table = result.per_period
    z, ebis = table.z_star, table.ebis_at_optimum
    yield f"scenario={scenario.label}\nperiods={scenario.horizon}\n"
    yield from fmt_rows(
        "period %d: z_star=%.6f breach_probability=%.6f ebis=%.6f enbis=%.6f method=closed_form",
        [np.arange(1, len(table) + 1), z, table.breach_probability_at_optimum, ebis, ebis - z],
    )
    yield f"enbis_total={fmt(result.enbis_total)}\n"


def _grid_args(args) -> tuple:  # --z-max is v*L by default
    return args.z_min, args.vulnerability * args.loss if args.z_max is None else args.z_max, args.steps


def _cmd_curve(args) -> Iterator[str]:
    lines, grid, columns = _curve_table(_period_from_args(args), *_grid_args(args), args.include_disrupted)
    yield from lines
    if args.svg is not None:
        _write_svg(args.svg, grid, *columns)


def _cmd_mix_curve(args) -> Iterator[str]:
    period_pre = _period_from_args(args)
    period_post = _period_from_args(args, args.alpha_post, args.beta_post, 1)
    lines, grid, mix = _mix_table(period_pre, period_post, args.switch_index, _z_grid(*_grid_args(args)))
    yield from lines
    if args.svg is not None:
        _write_svg(args.svg, grid, mix)


def _cmd_delta_z(args) -> Iterator[str]:
    scenario_a = _load_scenario(args.scenario_a)
    scenario_b = _load_scenario(args.scenario_b)
    # the vulnerability and loss columns, compared as the file gave them
    if args.strict and scenario_a.columns[:2] != scenario_b.columns[:2]:
        raise DomainError(
            "strict mode: vulnerability/loss sequences of the two "
            "scenarios must be identical"
        )
    if args.optimize:
        plan_a = optimize_scenario(scenario_a).plan
        plan_b = optimize_scenario(scenario_b).plan
    else:
        plan_a = _plan_from_flag(args.plan_a, "--plan-a", scenario_a)
        plan_b = _plan_from_flag(args.plan_b, "--plan-b", scenario_b)
    report = delta_z(scenario_a, plan_a, scenario_b, plan_b, args.threshold)
    yield f"delta_z={fmt(report.delta_z)}\n"
    yield f"enbis_a={fmt(report.enbis_a)}\n"
    yield f"enbis_b={fmt(report.enbis_b)}\n"
    yield f"period_count={report.period_count}\n"
    yield f"classified_disruptive={'true' if report.classified_disruptive else 'false'}\n"
    yield f"threshold={fmt(report.threshold_used)}\n"


def _cmd_sweep(args) -> Iterator[str]:
    table = optimum_shift_sweep(
        _parse_values(args.alpha, "--alpha"),
        _parse_values(args.beta, "--beta"),
        _parse_values(args.vulnerability, "--vulnerability"),
        _parse_values(args.loss, "--loss"),
    )
    columns = [table[name] for name in table.dtype.names]
    yield ",".join(table.dtype.names) + "\n"
    yield from fmt_rows("%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s", columns)


def _add_curve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--vulnerability", type=float, required=True)
    parser.add_argument("--loss", type=float, required=True)
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--z-min", type=float, default=0.0)
    parser.add_argument("--z-max", type=float, default=None)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--svg", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secinvest",
        description="Optimal cyber-security investment and scenario comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimal plan for a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("curve", help="benefit curves as CSV")
    _add_curve_flags(p)
    p.add_argument("--include-disrupted", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("mix-curve", help="piecewise pre/post-switch curve as CSV")
    _add_curve_flags(p)
    p.add_argument("--alpha-post", type=float, default=None)
    p.add_argument("--beta-post", type=float, default=None)
    p.add_argument("--switch-index", type=int, required=True)
    p.set_defaults(func=_cmd_mix_curve)

    p = sub.add_parser("delta-z", help="compare two equal-duration scenarios")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_DISRUPTION_THRESHOLD
    )
    p.add_argument("--plan-a", default=None, help="comma-separated amounts")
    p.add_argument("--plan-b", default=None, help="comma-separated amounts")
    p.set_defaults(func=_cmd_delta_z)

    p = sub.add_parser("sweep", help="optimum shift directions over a grid")
    p.add_argument("--alpha", default="1")
    p.add_argument("--beta", default="1")
    p.add_argument("--vulnerability", default="0.5")
    p.add_argument("--loss", default="4,20")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys.stdout.writelines(args.func(args))
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
