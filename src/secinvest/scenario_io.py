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
    if include_disrupted:
        periods.append(replace(period, technology=replace(period.technology, disruptive=1)))
    header, columns, footers = "z", [grid], []
    for p, name in zip(periods, "0d"):
        ebis = ebis_eval(grid, p)
        header += f",ebis_{name},enbis_{name}"
        columns += [ebis, ebis - grid]
        footers.append(f"# z_star_{name}={fmt(closed_form_optimum(p))}\n")
    rows = fmt_rows(",".join(["%.6f"] * len(columns)), columns)
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
    branch = ["pre" if i < switch_index else "post" for i in range(grid.size)]
    rows = fmt_rows("%d,%s,%.6f,%.6f", [range(grid.size), branch, grid, ebis])
    return "".join(["index,branch,z,ebis\n", *rows])


def render_curve_svg(csv_text: str, width: int = 640, height: int = 480) -> str:
    """Polyline rendering of a curve CSV: one polyline per numeric column
    after the ``z`` column, against ``z``. Columns before ``z`` (the index
    and branch of a mix CSV) are not drawn.

    Convenience output only; correctness is asserted on the CSV.
    """
    lines = [line for line in csv_text.splitlines() if line and not line.startswith("#")]
    first = lines[0].split(",").index("z")
    xs, *columns = np.array([line.split(",")[first:] for line in lines[1:]], dtype=float).T
    # the same operations, in the same order, as a per-point Python expression
    x_lo = xs.min()
    x_span = (xs.max() - x_lo) or 1.0
    margin = 40.0
    px = margin + (xs - x_lo) / x_span * (width - 2 * margin)
    point_fmt = " ".join(["%.2f,%.2f"] * xs.size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    for i, ys in enumerate(columns):
        y_lo = ys.min()
        y_span = (ys.max() - y_lo) or 1.0
        py = height - margin - (ys - y_lo) / y_span * (height - 2 * margin)
        pts = point_fmt % tuple(np.column_stack((px, py)).ravel().tolist())
        parts.append(f'<polyline fill="none" stroke="{colors[i % 4]}" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
