"""Command-line surface.

Subcommands: optimize, curve, mix-curve, delta-z, sweep. Each handler computes
its result (and writes its SVG), then returns the arguments of ``table_text``;
``run_cli`` alone writes that text, so an error writes nothing to stdout. Data
goes to stdout, diagnostics to stderr. Exit 0 on success, 1 on domain/contract
errors, a stdout that cannot take the output (a full disk) or one that its
reader closed (with nothing on stderr), 2 on usage errors. Handlers import
what they run, so a call loads only its subcommand's code, and a usage error
or ``--help`` loads neither ``model`` nor numpy. ``main`` freezes the heap
once the output is written, so the interpreter's exit skips its full
collections over every object the call left tracked.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import DomainError, ModelError

if TYPE_CHECKING:  # for the annotations alone: a usage error or --help loads no model
    from .model import InvestmentPlan, PeriodSpec, Scenario


def _load_scenario(path: str) -> Scenario:
    from .scenario_io import parse_scenario
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def _write_svg(path: str, z, *columns) -> None:
    from .scenario_io import render_curve_svg
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
    from .model import InvestmentPlan
    return InvestmentPlan((0.0,) * scenario.horizon if raw is None else _parse_values(raw, flag))


def _period_from_args(args, alpha=None, beta=None, disruptive=0) -> PeriodSpec:
    from .model import PeriodSpec, TechnologyProfile
    alpha, beta = args.alpha if alpha is None else alpha, args.beta if beta is None else beta
    return PeriodSpec(args.vulnerability, args.loss, TechnologyProfile(alpha, beta, disruptive))


def _cmd_optimize(args) -> tuple:
    import numpy as np
    from .optimize import optimize_scenario
    from .scenario_io import fmt
    scenario = _load_scenario(args.scenario)
    result = optimize_scenario(scenario)
    table = result.per_period
    z, ebis = table.z_star, table.ebis_at_optimum
    return (
        f"scenario={scenario.label}\nperiods={scenario.horizon}\n",
        "period %d: z_star=%.6f breach_probability=%.6f ebis=%.6f enbis=%.6f method=closed_form",
        [np.arange(1, len(table) + 1), z, table.breach_probability_at_optimum, ebis, ebis - z],
        f"enbis_total={fmt(result.enbis_total)}\n",
    )


def _grid_args(args) -> tuple:  # --z-max is v*L by default
    return args.z_min, args.vulnerability * args.loss if args.z_max is None else args.z_max, args.steps


def _cmd_curve(args) -> tuple:
    from .scenario_io import _curve_table
    table = _curve_table(_period_from_args(args), *_grid_args(args), args.include_disrupted)
    if args.svg is not None:
        _write_svg(args.svg, *table[2])  # the grid, then the curves
    return table


def _cmd_mix_curve(args) -> tuple:
    from .model import _check
    from .scenario_io import _mix_table, _z_grid
    period_pre = _period_from_args(args)
    for name, value in ("alpha", args.alpha_post), ("beta", args.beta_post):
        if value is not None:  # named as its flag, not as the pre-switch value
            _check(f"{name}_post", value, name)
    period_post = _period_from_args(args, args.alpha_post, args.beta_post, 1)
    table = _mix_table(period_pre, period_post, args.switch_index, _z_grid(*_grid_args(args)))
    if args.svg is not None:
        _write_svg(args.svg, *table[2][2:])  # the grid, then the curve
    return table


def _cmd_delta_z(args) -> tuple:
    from .analysis import delta_z
    from .optimize import optimize_scenario
    scenario_a = _load_scenario(args.scenario_a)
    scenario_b = _load_scenario(args.scenario_b)
    # the vulnerability and loss columns, compared as the file gave them
    if args.strict and scenario_a.columns[:2] != scenario_b.columns[:2]:
        raise DomainError("strict mode: vulnerability/loss sequences of the two scenarios must be identical")
    if args.optimize:
        plan_a = optimize_scenario(scenario_a).plan
        plan_b = optimize_scenario(scenario_b).plan
    else:
        plan_a = _plan_from_flag(args.plan_a, "--plan-a", scenario_a)
        plan_b = _plan_from_flag(args.plan_b, "--plan-b", scenario_b)
    threshold = () if args.threshold is None else (args.threshold,)  # else delta_z's default
    report = delta_z(scenario_a, plan_a, scenario_b, plan_b, *threshold)
    flag = "true" if report.classified_disruptive else "false"
    row = ("delta_z=%.6f\nenbis_a=%.6f\nenbis_b=%.6f\n"
           "period_count=%d\nclassified_disruptive=%s\nthreshold=%.6f")
    values = report.delta_z, report.enbis_a, report.enbis_b, report.period_count, flag, report.threshold_used
    return "", row, [[value] for value in values], ""  # one row


def _cmd_sweep(args) -> tuple:
    from .analysis import optimum_shift_sweep
    table = optimum_shift_sweep(
        _parse_values(args.alpha, "--alpha"),
        _parse_values(args.beta, "--beta"),
        _parse_values(args.vulnerability, "--vulnerability"),
        _parse_values(args.loss, "--loss"),
    )
    columns = [table[name] for name in table.dtype.names]
    return ",".join(table.dtype.names) + "\n", "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s", columns, ""


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
    p.add_argument("--threshold", type=float, default=None)
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
        table = args.func(args)
    except ModelError as exc:
        message = exc
    else:
        from .scenario_io import table_text
        try:
            sys.stdout.writelines(table_text(*table))
            sys.stdout.flush()
        except UnicodeEncodeError as exc:  # e.g. a label that stdout's encoding cannot print
            message = f"stdout cannot print the output: {exc}"
        except OSError as exc:  # e.g. `| head` or a full disk
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit's last flush
            if isinstance(exc, BrokenPipeError):
                return 1
            message = f"cannot write the output: {exc}"
        else:
            return 0
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    code = run_cli()
    gc.freeze()  # the exit's collections then skip every object numpy and the call left tracked
    sys.exit(code)


if __name__ == "__main__":
    main()
