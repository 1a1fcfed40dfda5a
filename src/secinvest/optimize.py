"""Optimal per-period and per-scenario investment.

The production path is the closed form obtained from the first-order
condition of the net-benefit objective; golden-section and grid search
serve as independent cross-checks (and would carry a future non-class-I
breach-probability family).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .model import (
    ArrayLike,
    InvestmentPlan,
    PeriodBatch,
    PeriodSpec,
    Scenario,
    _check,
    breach,
    ebis,
    net_total,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
# each step shrinks the bracket by _INV_PHI, and 3100 steps take even the
# largest float below the smallest one; the cap only ends searches whose tol
# is finer than the float spacing near the optimum
_GOLDEN_MAX_STEPS = 3100
# grid points per block of grid_oracle: 256 KiB of floats, so a block and its
# values stay in a 4 MiB L2 cache; 32768 and 65536 ran equally fast
_ORACLE_BLOCK = 32768
# points of a grid_oracle leaf at most: a level's ranges go to ebis in one
# call, so smaller leaves scan fewer points near a peak in as many calls; at
# most _ORACLE_BLOCK, or a block holds no whole leaf (head is 0) and the
# search loops forever
_ORACLE_LEAF = 1024
# grid_oracle splits ranges 16 ways; smaller fans take more levels of calls
_ORACLE_FAN = 16
_oracle_buffers = threading.local()  # grid_oracle's block buffers, per thread
# a row of OptimizationResult.per_period
_OPTIMUM = np.dtype((np.record, [
    ("z_star", float), ("breach_probability_at_optimum", float), ("ebis_at_optimum", float),
]))


@dataclass(frozen=True)
class OptimizationResult:
    """``per_period`` is a record array with one row per period and the
    fields ``z_star``, ``breach_probability_at_optimum`` and
    ``ebis_at_optimum``."""

    plan: InvestmentPlan
    enbis_total: float
    per_period: np.recarray


def z_star(batch: PeriodBatch) -> ArrayLike:
    """Unique maximizer of [v - S(z, v)]*L - z over z >= 0, per period; a
    float for a one-period view.

    Setting the derivative to zero gives (alpha*z + 1)**(k+1) = alpha*k*v*L
    with k the technology exponent; when the right-hand side is <= 1 the
    objective is nonincreasing and the corner z = 0 is optimal. The product
    is carried exactly as (hi + lo) * 2**e, so it neither overflows nor loses
    the digits that decide z* near the corner.
    """
    if not isinstance(batch.alpha, np.ndarray):
        # a one-period view: the steps below on Python floats, but with numpy's
        # log, log1p and expm1, where math's may differ in the last bit
        (hi, e), lo = math.frexp(batch[0]), 0.0
        for factor in batch[1:]:
            m, exponent = math.frexp(factor)
            hi, error = _two_product(hi, m)
            lo, e = lo * m + error, e + exponent
        scale = e if abs(e) < 1000 else 0
        p = math.ldexp(hi, scale)
        if 0.5 < p < 2.0 and e == scale:
            log = float(np.log1p((p - 1.0) + math.ldexp(lo, scale)))
        else:
            log = float(np.log(p)) + (e - scale) * _LN2 if p else -math.inf
        return float(np.expm1(max(log, 0.0) / (batch.k + 1.0))) / batch.alpha
    # hi in [1/16, 1), or 0 where a factor is 0: the frexp mantissas
    # multiplied in double-double, and the exponents summed as integers
    mantissas, exponents = np.frexp(batch)
    hi, lo, e = mantissas[0], 0.0, exponents.sum(axis=0)
    for m in mantissas[1:]:
        hi, error = _two_product(hi, m)
        lo = lo * m + error
    # the exponent where ldexp(hi, e) is a normal float, else 0
    scale = np.where(np.abs(e) < 1000, e, 0)
    with np.errstate(divide="ignore"):  # log 0 where v or L is 0: a corner
        p = np.ldexp(hi, scale)
        log = np.log(p) + (e - scale) * _LN2
        # on (0.5, 2), p - 1 is exact (Sterbenz), so log1p also sees lo
        near = (0.5 < p) & (p < 2.0) & (e == scale)
        log = np.where(near, np.log1p((p - 1.0) + np.ldexp(lo, scale)), log)
    # expm1 keeps full precision as the product -> 1 (the corner)
    return np.expm1(np.fmax(log, 0.0) / (batch.k + 1.0)) / batch.alpha


def _two_product(a: ArrayLike, b: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
    """a*b exactly, as the rounded product and its error (Dekker's
    TwoProduct over Veltkamp splits), for factors below 2**995 in size."""
    product = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return product, a2 * b2 - (((product - a1 * b1) - a2 * b1) - a1 * b2)


def _split(a: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
    """``a`` as the sum of two halves of at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def closed_form_optimum(period: PeriodSpec) -> float:
    """Optimal investment of one period: the one-period view of ``z_star``."""
    return float(z_star(PeriodBatch.one(period)))


def golden_section_optimum(period: PeriodSpec, z_max: float, tol: float) -> float:
    """Golden-section maximizer of the per-period net benefit on [0, z_max].

    The class-I objective is concave, hence unimodal on any interval. Stops
    once the bracket is narrower than ``tol``, or at a fixed cap of steps.
    """
    _check("z_max", z_max, "loss")
    _check("tol", tol)
    batch = PeriodBatch.one(period)
    a, b = 0.0, float(z_max)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = ebis(c, batch) - c
    fd = ebis(d, batch) - d
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ebis(c, batch) - c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ebis(d, batch) - d
    mid = 0.5 * (a + b)
    # the corner z=0 can beat the interior midpoint when the optimum is flat
    return 0.0 if ebis(0.0, batch) >= ebis(mid, batch) - mid else mid


def _uniform_grid(z_min: float, z_max: float, steps: int) -> np.ndarray:
    """``steps + 1`` points from ``z_min`` to ``z_max``. Near the float maximum,
    linspace's last step * index may overflow; it then sets that point to z_max."""
    with np.errstate(over="ignore"):
        return np.linspace(float(z_min), float(z_max), int(steps) + 1)


def _grid_points(i: np.ndarray, z_max: float, steps: int, out: np.ndarray | None = None) -> np.ndarray:
    """``_uniform_grid(0.0, z_max, steps)`` at the ascending indices ``i``, as
    linspace forms it, in ``out`` if given: i*step, or i/steps*z_max where
    step underflows to 0; i*step may overflow in the last point, which is z_max."""
    step = z_max / steps
    with np.errstate(over="ignore"):
        if step:
            z = np.multiply(i, step, out=out)
        else:
            z = np.divide(i, steps, out=out)
            z *= z_max
    if i[-1] == steps:
        z[-1] = z_max
    return z


def grid_oracle(period: PeriodSpec, z_max: float, steps: int) -> float:
    """Brute-force maximizer over the uniform grid {0, z_max/steps, ..., z_max}.

    The first maximum of ebis(z) - z over ``_uniform_grid(0.0, z_max, steps)``,
    bit for bit, found by branch and bound on the grid's indices. As ebis
    rises in z, no value on a range [a, b] exceeds (ebis(z_b) + pad) - z_a,
    with ``pad`` for the last-bit wobble of numpy's pow, and a range whose
    ends share one z holds just ebis(z) - z; concavity and the closed form
    are not used. Ranges are split ``_ORACLE_FAN`` ways, depth first and left
    to right, and one whose bound lies strictly below the best value seen is
    dropped, as it holds no maximum. So is one whose bound is not above the
    best value of the leaves scanned: it lies after them, so a tie there is
    not the first maximum. A range is checked when it is visited, against the
    values seen by then, so a flat grid of 10**8 steps takes about 70,000
    points and one of 2**53 steps about 330,000. The points of the leaves
    are scanned in index order, and a later block wins only with a greater
    value, so ties break toward the smallest z. Each call of ebis takes at
    most ``_ORACLE_BLOCK`` points, in buffers allocated once per thread. The
    bound is loose by about a range's width in z, so near a smooth peak 1e6
    steps scan 2.6e3 to 4.1e4 points in 3 or 4 calls, 10**12 steps 7.4e6.
    """
    _check("z_max", z_max, "loss")
    _check("steps", steps)
    z_max, steps = float(z_max), int(steps)
    batch = PeriodBatch.one(period)
    # pow is within an ulp, so ebis may dip by a few ulps of v*L where it
    # should rise; among subnormals, by a unit of 5e-324 in S and in ebis
    pad = (8 * math.ulp(1.0) * batch.v + 1e-322) * batch.loss + 1e-322
    # Near a peak the points scanned grow as sqrt(leaf * steps). Leaves hold
    # steps/8 points up to 2**13 steps, 1024 up to 2**27, 2**37/steps beyond.
    leaf = max(32, min(steps // 8, 2**37 // steps, _ORACLE_LEAF))
    # The search starts from each range of the first level above the leaves
    # whose children's ends fit in one call of ebis (or from the one leaf)
    width = leaf if steps < leaf else leaf * _ORACLE_FAN
    while (steps // width + 1) * _ORACLE_FAN > _ORACLE_BLOCK:
        width *= _ORACLE_FAN
    # A block's indices, points and values are formed in buffers that the
    # thread keeps from its first call: buffers freed at the end of a call go
    # back to the system where glibc trims the heap, and are faulted in again
    if not hasattr(_oracle_buffers, "blocks"):
        _oracle_buffers.blocks = np.empty(_ORACLE_BLOCK, np.int64), np.empty(_ORACLE_BLOCK), np.empty(_ORACLE_BLOCK)
    index, points, values = _oracle_buffers.blocks
    offsets = np.arange(leaf)  # of a leaf's points from its start
    incumbent, best, best_z = -math.inf, -math.inf, 0.0
    # ascending range starts, their bounds and their width
    # np.arange(0, steps + 1, width) would size itself in floats, one start
    # short where steps + 1 rounds (2**53)
    count = steps // width + 1
    live = [(np.arange(count, dtype=np.int64) * width, np.full(count, math.inf), width)]
    while live:
        start, bound, width = live.pop()
        child = width // _ORACLE_FAN if width > leaf else 1
        head = _ORACLE_BLOCK * child // width
        # the ranges of a few calls: checking all that are left on each pop
        # took time quadratic in their number
        cut = _ORACLE_FAN * head
        if start.size > cut:
            live.append((start[cut:], bound[cut:], width))
            start, bound = start[:cut], bound[:cut]
        # a range whose bound lies strictly below the best value seen holds
        # no maximum; the ranges left to visit lie after the leaves scanned,
        # so neither does one that only ties with their best
        keep = (bound >= incumbent) & (bound > best)
        start, bound = start[keep], bound[keep]
        if not start.size:
            continue
        if start.size > head:
            live.append((start[head:], bound[head:], width))
            start = start[:head]
        offset = offsets if child == 1 else np.arange(0, width, child)
        i = index[: start.size * offset.size].reshape(start.size, offset.size)
        i = np.add(start[:, None], offset, out=i).ravel()
        i = i[: np.searchsorted(i, steps, "right")]
        last = np.minimum(i + (child - 1), steps) if child > 1 else i
        z_end = _grid_points(last, z_max, steps, points[: i.size])
        ebis_end = ebis(z_end, batch, values[: i.size])
        if child == 1:  # the points of leaves, in index order
            net = np.subtract(ebis_end, z_end, out=ebis_end)
            j = int(np.argmax(net))
            if net[j] > best:
                best, best_z = float(net[j]), float(z_end[j])
            continue
        incumbent = max(incumbent, float((ebis_end - z_end).max()))
        z_start = _grid_points(i, z_max, steps)
        with np.errstate(over="ignore"):
            # a range whose ends share one z holds one value, without wobble
            bound = (ebis_end + np.where(z_start < z_end, pad, 0.0)) - z_start
        if last[-1] == steps:
            # where step is subnormal, linspace's z_max may lie below the
            # point before it, so the range ending there is never dropped
            bound[-1] = math.inf
        live.append((i.copy(), bound, child))  # i is a view of the index buffer
    return best_z


def _optima(batch: PeriodBatch) -> tuple[np.recarray, ArrayLike]:
    """The closed-form optimum of every period with the curve values there,
    and its net benefit ebis - z*."""
    z = z_star(batch)
    columns = z, breach(z, batch), ebis(z, batch)
    if isinstance(z, float):  # a one-period view: a 0-d row
        table = np.array(columns, _OPTIMUM)
    else:
        table = np.recarray(z.size, _OPTIMUM)
        for name, column in zip(_OPTIMUM.names, columns):
            table[name] = column
    table.flags.writeable = False  # per_period of a frozen result
    return table, columns[2] - z


def optimize_period(period: PeriodSpec) -> np.record:
    """Optimal investment for one period via the closed form: the row of
    ``optimize_scenario``'s ``per_period``."""
    return _optima(PeriodBatch.one(period))[0][()]


def optimize_scenario(scenario: Scenario) -> OptimizationResult:
    """Optimize each period independently; the multi-period sum separates."""
    table, net = _optima(scenario.batch)
    return OptimizationResult(
        plan=InvestmentPlan(tuple(table.z_star.tolist())),
        enbis_total=net_total(net, scenario.label),
        per_period=table,
    )
