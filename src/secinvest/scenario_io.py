"""Scenario file parsing and deterministic CSV / SVG emission.

Scenario files are strict JSON: unknown fields are rejected, and the
domain types' rules check the periods column by column at parse time, with
the types' own field-addressed messages.
CSV output uses fixed 6-digit decimals and LF line endings so golden
files stay byte-stable.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from itertools import chain
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
    _check,
    ebis_eval,
    ebis_mix_curve,
    first_invalid,
)
from .optimize import _uniform_grid, closed_form_optimum

_FIELD_SET = set(PERIOD_FIELDS)
# Cells per block of fmt_rows (4 bytes each). Writing the 12**4-row sweep
# table peaked (tracemalloc) at 0.37, 0.73 and 1.45 MB with 16384, 32768 and
# 65536 cells a block, against 0.49 MB with one % per 1024 rows. Cold sweep /
# optimize calls then peaked at 31.8 / 31.5, 31.9 / 31.9 and 32.6 / 32.4 MB
# RSS, against 31.8 / 31.0 MB with %. At 32768 both stay below the 32.3 MB of
# delta-z on the same files, the largest call of the portfolio benchmark.
_CHUNK_CELLS = 32768
# fmt_rows writes uint32 cells whose little-endian bytes are text, NUL bytes
# padding. The 3-digit group g is the cell "\0ddd": _GROUPS[k, 1000 + g] with
# its leading zeros, _GROUPS[k, g] without them; the last digit stays, except
# in _GROUPS[1, 0], the empty cell of a zero group above the units.
_GROUPS = np.zeros((2, 2, 10, 10, 10, 4), np.uint8)  # k, padded, the 3 digits, byte
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_GROUPS[..., 1], _GROUPS[..., 2], _GROUPS[..., 3] = _DIGITS[:, None, None], _DIGITS[:, None], _DIGITS
_GROUPS[:, 0, 0, :, :, 1] = _GROUPS[:, 0, 0, 0, :, 2] = _GROUPS[1, 0, 0, 0, 0, 3] = 0
_GROUPS = _GROUPS.view("<u4").reshape(2, 2000)


def fmt(x: float) -> str:
    """Fixed 6-fraction-digit decimal; normalizes -0.0."""
    return f"{x + 0.0:.6f}"


def _rounded(x: np.ndarray, digits: int):
    """``rint(|x| * 10**digits)`` as integers, and where it is the integer that
    ``%.{digits}f`` prints: where the product lies further than
    ``product * 2**-52`` (more than its rounding error) from a half, so the
    exact ``|x| * 10**digits`` rounds to the same integer. That fails from
    ``2**52`` on, and for nan and inf, which are capped first."""
    scaled = np.fmin(np.abs(x), 2.0**53 / 10**digits) * 10.0**digits
    n = np.rint(scaled)
    return n.astype(np.int64), np.abs(scaled - n) < 0.5 - scaled * 2.0**-52


def _cells(values: np.ndarray, conversion: bytes):
    """The cells of a (rows, m) block of values under one ``.Nf``, ``d`` or
    ``s`` conversion, as a (rows, m, cells) array, and where they print
    their row exactly. Float values are normalized in place."""
    if conversion == b"s":  # a str array holds one UCS-4 code per character
        codes = values.view("<u4").reshape(*values.shape, -1)
        return codes, ~(codes > 127).any(axis=(1, 2))
    values += 0.0  # fmt's -0.0 normalization, for the rows that % prints
    digits = int(conversion[1:-1] or 0)
    n, ok = _rounded(values, digits)
    n = n * 10 ** (-digits % 3)  # a whole number of 3-digit fraction groups
    fraction = -(-digits // 3)
    cells = []
    for k in range(fraction + (len(str(n.max() // 1000**fraction)) + 2) // 3):  # lowest first
        higher = n // 1000
        g = n - higher * 1000
        np.add(g, 1000, out=g, where=(higher > 0) | (k < fraction))  # padded unless leading
        cells.insert(0, _GROUPS[int(k > fraction), g])
        n = higher
    np.bitwise_or(cells[0], 45, out=cells[0], where=values < 0)  # "-" in the spare byte
    if fraction:  # "." in the top fraction group's spare byte; the filling zeros cut
        cells[-fraction] |= 46
        cells[-1] &= 0xFFFFFFFF >> 8 * (-digits % 3)
    return np.stack(cells, axis=-1), ok.all(axis=-1)


def fmt_rows(row: str, columns: Sequence, end: str = "\n") -> Iterator[str]:
    """The text of ``row % values + end`` for the values of each row of
    ``columns``, in blocks of about ``_CHUNK_CELLS`` cells. ``row``'s
    conversions are ``%.Nf``, ``%d`` (read as floats) and ``%s``; floats
    get ``fmt``'s -0.0 normalization. A block is one table of cells that
    numpy fills, each conversion's columns at once. A row holding a value
    that the cells cannot print exactly (see ``_rounded``; a non-ASCII
    label) is printed by ``%``. No text or label may hold a NUL character."""
    line = row + end
    parts = re.split(rb"%(\.\d+f|d|s)", line.encode())
    literals = [np.frombuffer(text + bytes(-len(text) % 4), "<u4") for text in parts[::2]]
    # rows per block: about _CHUNK_CELLS cells, at 4 cells a value
    rows = max(1, _CHUNK_CELLS // (sum(map(len, literals)) + 4 * len(columns)))
    literals = [np.tile(literal, (rows, 1)) for literal in literals]
    conversions = parts[1::2]
    # column j is column slots[j][1] of its conversion's block
    slots = [(c, conversions[:j].count(c)) for j, c in enumerate(conversions)]
    for start in range(0, len(columns[0]), rows):
        values, cells, exact = {}, {}, True
        for c in dict.fromkeys(conversions):
            values[c] = np.stack([np.asarray(column[start : start + rows], str if c == b"s" else float)
                                  for column, cj in zip(columns, conversions) if cj == c], axis=1)
            cells[c], ok = _cells(values[c], c)
            exact = exact & ok
        pieces = [literals[0][: len(exact)]]
        for (c, k), literal in zip(slots, literals[1:]):
            pieces += [cells[c][:, k], literal[: len(exact)]]
        table = np.hstack(pieces)
        text, done = [], 0
        for i in np.flatnonzero(~exact).tolist():
            row_text = line % tuple(values[c][i, k] for c, k in slots)
            text += [table[done:i].tobytes(), row_text.encode("utf-8", "surrogatepass")]
            done = i + 1
        block = b"".join([*text, table[done:].tobytes()]).translate(None, b"\0")
        yield block.decode("utf-8", "surrogatepass")  # a label's lone surrogate, as % kept it


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


def _parse_period(i: int, entry) -> None:
    """Raise the error of entry ``i`` of a document's periods, as building it
    through the domain types finds it."""
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
        PeriodSpec(entry["vulnerability"], entry["loss"], tech)
    except DomainError as exc:
        raise ParseError(f"{where}.{exc}") from exc


def _z_grid(z_min: float, z_max: float, steps: int) -> np.ndarray:
    _check("z_min", z_min, "loss")
    _check("z_max", z_max, "loss")
    _check("steps", steps, "curve_steps")
    if not (z_min < z_max and steps <= MAX_GRID):
        raise DomainError(f"need z_min < z_max and steps <= {MAX_GRID}, got "
                          f"z_min={z_min}, z_max={z_max}, steps={steps}")
    return _uniform_grid(z_min, z_max, steps)


def _curve_table(period: PeriodSpec, z_min: float, z_max: float, steps: int, include_disrupted: bool):
    """The lines of ``emit_curve_csv``, formatted as they are read, with the
    grid and the curve columns they print."""
    grid = _z_grid(z_min, z_max, steps)
    periods = [period]
    if include_disrupted:
        periods.append(replace(period, technology=replace(period.technology, disruptive=1)))
    curves = [ebis_eval(grid, p) for p in periods]
    columns = [column for ebis in curves for column in (ebis, ebis - grid)]
    names = "0d"[: len(periods)]
    header = "z" + "".join(f",ebis_{n},enbis_{n}" for n in names)
    rows = fmt_rows(",".join(["%.6f"] * (len(columns) + 1)), [grid, *columns])
    footers = (f"# z_star_{n}={fmt(closed_form_optimum(p))}\n" for p, n in zip(periods, names))
    return chain([header + "\n"], rows, footers), grid, columns


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
    return "".join(_curve_table(period, z_min, z_max, steps, include_disrupted)[0])


def _mix_table(period_pre: PeriodSpec, period_post: PeriodSpec, switch_index: int, z_grid: Sequence[float]):
    """The lines of ``emit_mix_csv``, formatted as they are read, with the grid and the curve."""
    ebis = ebis_mix_curve(period_pre, period_post, switch_index, z_grid)
    grid = np.asarray(z_grid, dtype=float)
    index = np.arange(grid.size)
    branch = np.where(index < switch_index, "pre", "post")
    rows = fmt_rows("%d,%s,%.6f,%.6f", [index, branch, grid, ebis])
    return chain(["index,branch,z,ebis\n"], rows), grid, ebis


def emit_mix_csv(
    period_pre: PeriodSpec,
    period_post: PeriodSpec,
    switch_index: int,
    z_grid: Sequence[float],
) -> str:
    """Piecewise pre/post curve rows from the array of ``ebis_mix_curve``;
    row i is labelled ``pre`` when i < switch_index, else ``post``."""
    return "".join(_mix_table(period_pre, period_post, switch_index, z_grid)[0])


def _as_printed(x) -> np.ndarray:
    """``float(fmt(v))`` for every ``v`` of ``x``, as one array: ``n / 1e6``
    (a correctly rounded quotient) where ``_rounded`` gives the printed ``n``,
    and the printed cell read back elsewhere."""
    x = np.asarray(x, dtype=float) + 0.0
    n, exact = _rounded(x, 6)
    out = np.copysign(n, x) / 1e6
    rest = np.flatnonzero(~exact)
    if rest.size:
        out[rest] = ("%.6f " * rest.size % tuple(x[rest].tolist())).split()
    return out


def render_curve_svg(z: Sequence, columns: Sequence) -> str:
    """One polyline per curve of ``columns`` against the grid ``z`` on a
    640x480 plot, each value drawn as its CSV cell prints it (``fmt``).
    Convenience output only; correctness is asserted on the CSV.
    """
    width, height, margin = 640, 480, 40.0

    def scaled(values, size):  # the same operations, in the same order, as per point
        values = _as_printed(values)
        return (values - values.min()) / ((values.max() - values.min()) or 1.0) * (size - 2 * margin)

    px = margin + scaled(z, width)
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    for i, column in enumerate(columns):
        py = height - margin - scaled(column, height)
        pts = "".join(fmt_rows("%.2f,%.2f", [px, py], " "))[:-1]
        parts.append(f'<polyline fill="none" stroke="{colors[i % 4]}" points="{pts}"/>')
    return "\n".join([*parts, "</svg>", ""])  # one copy of the document, not two
