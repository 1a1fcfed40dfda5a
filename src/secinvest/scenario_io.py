"""Scenario file parsing and deterministic CSV / SVG emission.

Scenario files are strict JSON: unknown fields are rejected, and the
domain types' own checks run at parse time with field-addressed messages.
CSV output uses fixed 6-digit decimals and LF line endings so golden
files stay byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import DomainError, ParseError
from .model import (
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    ebis_eval,
    ebis_mix_curve,
)
from .optimize import closed_form_optimum

_PERIOD_FIELDS = ("vulnerability", "loss", "alpha", "beta", "disruptive")
# largest curve grid; 10**6 steps already print tens of MB of CSV
_MAX_STEPS = 10**6


def fmt(x: float) -> str:
    """Fixed 6-fraction-digit decimal; normalizes -0.0."""
    return f"{x + 0.0:.6f}"


def parse_scenario(document: str) -> Scenario:
    """Parse a scenario JSON document; the domain types validate each period
    and their errors come back addressed to the offending field."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise ParseError(f"invalid number: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(data) - {"label", "periods"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    if "label" not in data or not isinstance(data["label"], str):
        raise ParseError("label must be present and a string")
    if "periods" not in data or not isinstance(data["periods"], list):
        raise ParseError("periods must be present and a list")
    if not data["periods"]:
        raise ParseError("periods must contain at least one entry")

    periods = []
    for i, entry in enumerate(data["periods"]):
        where = f"periods[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        unknown = set(entry) - set(_PERIOD_FIELDS)
        if unknown:
            raise ParseError(f"{where} has unknown fields: {sorted(unknown)}")
        missing = set(_PERIOD_FIELDS) - set(entry)
        if missing:
            raise ParseError(f"{where} is missing fields: {sorted(missing)}")
        try:
            tech = TechnologyProfile(entry["alpha"], entry["beta"], entry["disruptive"])
            periods.append(PeriodSpec(entry["vulnerability"], entry["loss"], tech))
        except DomainError as exc:
            raise ParseError(f"{where}.{exc}") from exc
    return Scenario(label=data["label"], periods=tuple(periods))


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario back to its file schema (round-trips exactly)."""
    return json.dumps(
        {
            "label": scenario.label,
            "periods": [
                {
                    "vulnerability": p.vulnerability,
                    "loss": p.loss,
                    "alpha": p.technology.alpha,
                    "beta": p.technology.beta,
                    "disruptive": p.technology.disruptive,
                }
                for p in scenario.periods
            ],
        },
        indent=2,
    )


def _z_grid(z_min: float, z_max: float, steps: int) -> np.ndarray:
    if not (0 <= z_min < z_max < math.inf) or not (2 <= steps <= _MAX_STEPS):
        raise DomainError(
            f"need finite 0 <= z_min < z_max and 2 <= steps <= {_MAX_STEPS}, got "
            f"z_min={z_min}, z_max={z_max}, steps={steps}"
        )
    return np.linspace(float(z_min), float(z_max), int(steps) + 1)


def emit_curve_csv(
    period: PeriodSpec,
    z_min: float,
    z_max: float,
    steps: int,
    include_disrupted: bool = False,
) -> str:
    """Benefit curves on a uniform z grid, optionally with the disrupted
    (dummy raised to 1) counterpart alongside; each curve is one array
    evaluation, and footer rows carry each curve's optimal investment."""
    grid = _z_grid(z_min, z_max, steps)
    periods = [period]
    header = "z,ebis_0,enbis_0"
    if include_disrupted:
        periods.append(replace(period, technology=replace(period.technology, disruptive=1)))
        header += ",ebis_d,enbis_d"
    columns = [grid]
    for p in periods:
        ebis = ebis_eval(grid, p)
        columns += [ebis, ebis - grid]
    rows = zip(*(c.tolist() for c in columns))
    lines = [header, *(",".join(map(fmt, row)) for row in rows)]
    for p, name in zip(periods, ("0", "d")):
        lines.append(f"# z_star_{name}={fmt(closed_form_optimum(p))}")
    return "\n".join(lines) + "\n"


def emit_mix_csv(
    period_pre: PeriodSpec,
    period_post: PeriodSpec,
    switch_index: int,
    z_grid: Sequence[float],
) -> str:
    """Piecewise pre/post curve rows from the array of ``ebis_mix_curve``;
    row i is labelled ``pre`` when i < switch_index, else ``post``."""
    ebis = ebis_mix_curve(period_pre, period_post, switch_index, z_grid)
    grid = np.asarray(z_grid, dtype=float)
    lines = ["index,branch,z,ebis"]
    for i, (z, e) in enumerate(zip(grid.tolist(), ebis.tolist())):
        branch = "pre" if i < switch_index else "post"
        lines.append(f"{i},{branch},{fmt(z)},{fmt(e)}")
    return "\n".join(lines) + "\n"


def render_curve_svg(csv_text: str, width: int = 640, height: int = 480) -> str:
    """Polyline rendering of the numeric columns of a curve CSV.

    Convenience output only; correctness is asserted on the CSV.
    """
    rows = [
        line.split(",")
        for line in csv_text.splitlines()
        if line and not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    xs = [float(r[0]) for r in data]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    margin = 40.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    for col in range(1, len(header)):
        ys = [float(r[col]) for r in data]
        y_lo, y_hi = min(ys), max(ys)
        y_span = (y_hi - y_lo) or 1.0
        pts = " ".join(
            f"{margin + (x - x_lo) / x_span * (width - 2 * margin):.2f},"
            f"{height - margin - (y - y_lo) / y_span * (height - 2 * margin):.2f}"
            for x, y in zip(xs, ys)
        )
        color = colors[(col - 1) % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
