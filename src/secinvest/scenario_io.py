"""Scenario file parsing and deterministic CSV / SVG emission.

Scenario files are strict JSON: unknown fields are rejected, and the
domain types' rules check the periods column by column at parse time, with
the types' own field-addressed messages.
CSV output uses fixed 6-digit decimals and LF line endings so golden
files stay byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ParseError
from .model import (
    MAX_GRID,
    PERIOD_FIELDS,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    ebis_eval,
    ebis_mix_curve,
    first_invalid,
)
from .optimize import closed_form_optimum

_FIELD_SET = set(PERIOD_FIELDS)
# rows per % in fmt_rows: at 4096 the peak RSS of a 20736-row sweep rose by 5%
_CHUNK_ROWS = 1024


def fmt(x: float) -> str:
    """Fixed 6-fraction-digit decimal; normalizes -0.0."""
    return f"{x + 0.0:.6f}"


def fmt_rows(row: str, columns: Sequence) -> Iterator[str]:
    """Lines of the %-format ``row`` over ``columns``, one ``%`` per block of
    ``_CHUNK_ROWS`` lines. Float ndarray columns get ``fmt``'s -0.0
    normalization; other columns (indices, labels) are used as they are."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        block = [column[start : start + _CHUNK_ROWS] for column in columns]
        values = [None] * (len(block[0]) * len(block))
        for j, part in enumerate(block):
            if isinstance(part, np.ndarray):
                part = (part + 0.0 if part.dtype.kind == "f" else part).tolist()
            values[j :: len(block)] = part
        yield (row + "\n") * len(block[0]) % tuple(values)


def parse_scenario(document: str) -> Scenario:
    """Parse a scenario JSON document into the columns of its periods. The
    domain types' rules check each column as a whole; the first faulty entry
    is then rebuilt through the types, so its error is theirs, addressed to
    the offending field."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise ParseError(f"invalid number: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects nested too deeply") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(data) - {"label", "periods"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    if "label" not in data or not isinstance(data["label"], str):
        raise ParseError("label must be present and a string")
    if "periods" not in data or not isinstance(data["periods"], list):
        raise ParseError("periods must be present and a list")
    entries = data["periods"]
    if not entries:
        raise ParseError("periods must contain at least one entry")
    # the entries ahead of the first that is not an object with exactly the fields
    shaped = next(
        (i for i, entry in enumerate(entries)
         if not (isinstance(entry, dict) and entry.keys() == _FIELD_SET)),
        len(entries),
    )
    columns = tuple(tuple(map(itemgetter(f), entries[:shaped])) for f in PERIOD_FIELDS)
    bad = min(first_invalid(columns), shaped)
    if bad < len(entries):
        _parse_period(bad, entries[bad])  # raises that entry's error
    return Scenario.of_columns(data["label"], columns)


def _parse_period(i: int, entry) -> PeriodSpec:
    """Entry ``i`` of a document's periods, built through the domain types."""
    where = f"periods[{i}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(entry) - _FIELD_SET
    if unknown:
        raise ParseError(f"{where} has unknown fields: {sorted(unknown)}")
    missing = _FIELD_SET - set(entry)
    if missing:
        raise ParseError(f"{where} is missing fields: {sorted(missing)}")
    try:
        tech = TechnologyProfile(entry["alpha"], entry["beta"], entry["disruptive"])
        return PeriodSpec(entry["vulnerability"], entry["loss"], tech)
    except DomainError as exc:
        raise ParseError(f"{where}.{exc}") from exc


def scenario_to_json(scenario: Scenario) -> str:
    """Serialize a scenario back to its file schema (round-trips exactly)."""
    return json.dumps(
        {
            "label": scenario.label,
            "periods": [dict(zip(PERIOD_FIELDS, row)) for row in zip(*scenario.columns)],
        },
        indent=2,
    )


def _z_grid(z_min: float, z_max: float, steps: int) -> np.ndarray:
    if not (0 <= z_min < z_max < math.inf) or not (2 <= steps <= MAX_GRID):
        raise DomainError(
            f"need finite 0 <= z_min < z_max and 2 <= steps <= {MAX_GRID}, got "
            f"z_min={z_min}, z_max={z_max}, steps={steps}"
        )
    # near the float maximum, linspace's last step * index may overflow; it
    # then sets that last point to z_max itself
    with np.errstate(over="ignore"):
        return np.linspace(float(z_min), float(z_max), int(steps) + 1)


def _curve_columns(period: PeriodSpec, grid: np.ndarray, include_disrupted: bool):
    """The periods of a curve table (the disrupted twin second) and their
    EBIS and ENBIS columns on ``grid``, in table order."""
    periods = [period]
    if include_disrupted:
        periods.append(replace(period, technology=replace(period.technology, disruptive=1)))
    curves = [ebis_eval(grid, p) for p in periods]
    return periods, [column for ebis in curves for column in (ebis, ebis - grid)]


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
    periods, columns = _curve_columns(period, grid, include_disrupted)
    names = "0d"[: len(periods)]
    header = "z" + "".join(f",ebis_{n},enbis_{n}" for n in names)
    rows = fmt_rows(",".join(["%.6f"] * (len(columns) + 1)), [grid, *columns])
    footers = (f"# z_star_{n}={fmt(closed_form_optimum(p))}\n" for p, n in zip(periods, names))
    return "".join([header + "\n", *rows, *footers])


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
    pre = min(switch_index, grid.size)
    branch = ["pre"] * pre + ["post"] * (grid.size - pre)
    rows = fmt_rows("%d,%s,%.6f,%.6f", [range(grid.size), branch, grid, ebis])
    return "".join(["index,branch,z,ebis\n", *rows])


def _as_printed(x) -> np.ndarray:
    """``float(fmt(v))`` for every ``v`` of ``x``, as one array: ``rint(v * 1e6)
    / 1e6`` (a correctly rounded quotient), except where ``v * 1e6`` lies within
    its own spacing of a half or beyond 2**52, which are printed and read back.
    From 2**33 on, a 6-decimal cell reads back as ``v`` itself."""
    x = np.asarray(x, dtype=float) + 0.0
    small = np.abs(x) < 2.0**33
    scaled = np.where(small, x, 0.0) * 1e6  # masked first, so it cannot overflow
    n = np.rint(scaled)
    out = np.where(small, n / 1e6, x)
    near = np.flatnonzero(small & (0.5 - np.abs(scaled - n) <= np.spacing(np.abs(scaled))))
    if near.size:
        out[near] = ("%.6f " * near.size % tuple(x[near].tolist())).split()
    return out


def render_curve_svg(z: Sequence, columns: Sequence, width: int = 640, height: int = 480) -> str:
    """One polyline per curve of ``columns`` against the grid ``z``, each
    value drawn as its CSV cell prints it (``fmt``). Convenience output only;
    correctness is asserted on the CSV.
    """
    xs = _as_printed(z)
    # the same operations, in the same order, as a per-point Python expression
    x_lo = xs.min()
    x_span = (xs.max() - x_lo) or 1.0
    margin = 40.0
    px = margin + (xs - x_lo) / x_span * (width - 2 * margin)
    # x coordinates are the same on every polyline: formatted once
    points = [None] * (2 * xs.size)
    points[::2] = ("%.2f " * xs.size % tuple(px.tolist())).split()
    point_fmt = " ".join(["%s,%.2f"] * xs.size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    for i, column in enumerate(columns):
        ys = _as_printed(column)
        y_lo = ys.min()
        y_span = (ys.max() - y_lo) or 1.0
        py = height - margin - (ys - y_lo) / y_span * (height - 2 * margin)
        points[1::2] = py.tolist()
        pts = point_fmt % tuple(points)
        parts.append(f'<polyline fill="none" stroke="{colors[i % 4]}" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
