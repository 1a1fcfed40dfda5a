"""Optimal per-period and per-scenario investment.

The production path is the closed form obtained from the first-order
condition of the net-benefit objective; golden-section and grid search,
its independent cross-checks, live in ``check`` and are read from there.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ArrayLike, InvestmentPlan, PeriodBatch, PeriodSpec, Scenario, _Frozen
from .model import breach, ebis, net_total

_LN2 = math.log(2.0)
# a row of OptimizationResult.per_period
_OPTIMUM = np.dtype((np.record, [
    ("z_star", float), ("breach_probability_at_optimum", float), ("ebis_at_optimum", float),
]))


class OptimizationResult(_Frozen):
    """``per_period`` is a record array with one row per period and the
    fields ``z_star``, ``breach_probability_at_optimum`` and
    ``ebis_at_optimum``."""

    _fields = "plan", "enbis_total", "per_period"

    def __init__(self, plan: InvestmentPlan, enbis_total: float, per_period: np.recarray) -> None:
        self._set(plan, enbis_total, per_period)


def __getattr__(name: str):  # the cross-checks, which live in check: no subcommand loads it
    if name in ("golden_section_optimum", "grid_oracle"):
        from . import check
        globals()[name] = value = getattr(check, name)  # later reads skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def z_star(batch: PeriodBatch) -> ArrayLike:
    """Unique maximizer of [v - S(z, v)]*L - z over z >= 0, per period; a
    float for a one-period view.

    Setting the derivative to zero gives (alpha*z + 1)**(k+1) = alpha*k*v*L
    with k the technology exponent; when the right-hand side is <= 1 the
    objective is nonincreasing and the corner z = 0 is optimal. The product
    is carried exactly as (hi + lo) * 2**e, so it neither overflows nor loses
    the digits that decide z* near the corner.
    """
    # hi in [1/16, 1), or 0 where a factor is 0: the frexp mantissas
    # multiplied in double-double, and the exponents summed as integers. A
    # one-period view stays on Python floats but for numpy's log, log1p and
    # expm1, where math's may differ in the last bit
    if isinstance(batch.alpha, np.ndarray):
        frexp, ldexp, where, fmax = np.frexp, np.ldexp, np.where, np.fmax
    else:
        frexp, ldexp, where, fmax = math.frexp, math.ldexp, lambda c, a, b: a if c else b, max
    (hi, e), lo = frexp(batch[0]), 0.0
    for factor in batch[1:]:
        m, exponent = frexp(factor)
        hi, error = _two_product(hi, m)
        lo, e = lo * m + error, e + exponent
    # the exponent where ldexp(hi, e) is a normal float, else 0
    scale = where(abs(e) < 1000, e, 0)
    with np.errstate(divide="ignore"):  # log 0 where v or L is 0: a corner
        p = ldexp(hi, scale)
        log = np.log(p) + (e - scale) * _LN2
        # on (0.5, 2), p - 1 is exact (Sterbenz), so log1p also sees lo
        near = (0.5 < p) & (p < 2.0) & (e == scale)
        log = where(near, np.log1p((p - 1.0) + ldexp(lo, scale)), log)
    # expm1 keeps full precision as the product -> 1 (the corner)
    z = np.expm1(fmax(log, 0.0) / (batch.k + 1.0)) / batch.alpha
    return z if frexp is np.frexp else float(z)


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
    return z_star(PeriodBatch.one(period))


def _grid_points(i: np.ndarray, z_min: float, z_max: float, steps: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.linspace(z_min, z_max, steps + 1)`` at the ascending indices ``i``,
    as linspace forms it, in ``out`` if given (a float ``i`` may be its own
    ``out``): i*step + z_min, or i/steps*(z_max - z_min) + z_min where step
    underflows to 0; i*step may overflow in the last point, which is z_max."""
    delta, ends = z_max - z_min, i[-1] == steps
    step = delta / steps
    with np.errstate(over="ignore"):
        if step:
            z = np.multiply(i, step, out=out)
        else:
            z = np.divide(i, steps, out=out)
            z *= delta
        if z_min:  # adding 0 changes no point of a grid from 0
            z += z_min
    if ends:
        z[-1] = z_max
    return z


def _optima(batch: PeriodBatch) -> tuple[np.recarray, ArrayLike]:
    """The closed-form optimum of every period with the curve values there,
    and its net benefit ebis - z*."""
    z = z_star(batch)
    columns = z, breach(z, batch), ebis(z, batch)
    table = np.empty(np.shape(z), _OPTIMUM)  # 0-d for a one-period view
    for name, column in zip(_OPTIMUM.names, columns):
        table[name] = column
    table = table.view(np.recarray)
    table.flags.writeable = False  # per_period of a frozen result
    return table, columns[2] - z


def optimize_period(period: PeriodSpec) -> np.record:
    """Optimal investment for one period via the closed form: the row of
    ``optimize_scenario``'s ``per_period``."""
    return _optima(PeriodBatch.one(period))[0][()]


def optimize_scenario(scenario: Scenario) -> OptimizationResult:
    """Optimize each period independently; the multi-period sum separates."""
    table, net = _optima(scenario.batch)
    plan = InvestmentPlan(tuple(table.z_star.tolist()))
    return OptimizationResult(plan, net_total(net, scenario.label), table)
