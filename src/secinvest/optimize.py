"""Optimal per-period and per-scenario investment.

The production path is the closed form obtained from the first-order
condition of the net-benefit objective; golden-section and grid search
serve as independent cross-checks (and would carry a future non-class-I
breach-probability family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    InvestmentPlan,
    PeriodBatch,
    PeriodSpec,
    Scenario,
    _check,
    breach,
    columns_of,
    ebis,
    ebis_eval,
    net_total,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# each step shrinks the bracket by _INV_PHI, and 3100 steps take even the
# largest float below the smallest one; the cap only ends searches whose tol
# is finer than the float spacing near the optimum
_GOLDEN_MAX_STEPS = 3100


@dataclass(frozen=True)
class OptimizationResult:
    """``per_period`` is a record array with one row per period and the
    fields ``z_star``, ``breach_probability_at_optimum`` and
    ``ebis_at_optimum``."""

    plan: InvestmentPlan
    enbis_total: float
    per_period: np.recarray


def z_star(batch: PeriodBatch) -> np.ndarray:
    """Unique maximizer of [v - S(z, v)]*L - z over z >= 0, per period.

    Setting the derivative to zero gives (alpha*z + 1)**(k+1) = alpha*k*v*L
    with k the technology exponent; when the right-hand side is <= 1 the
    objective is nonincreasing and the corner z = 0 is optimal. The logs and
    expm1 go through ``math``, whose last bit numpy's do not always match.
    """
    alpha, k = batch.alpha, batch.k
    with np.errstate(over="ignore", invalid="ignore"):
        interior = alpha * k * batch.v * batch.loss
    log_interior = _map(_log_above_one, interior)
    over = log_interior == math.inf
    if over.any():
        # a partial product overflowed, so no factor is zero and the true
        # product may still lie at or below 1
        log_interior[over] = [_log_product(*row) for row in zip(*(x[over].tolist() for x in batch))]
    # expm1 keeps full precision as interior -> 1 (the corner); a corner's
    # log is 0, which gives z = 0
    return _map(math.expm1, log_interior / (k + 1.0)) / alpha


def _log_above_one(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0  # nan (inf * 0) is a corner


def _log_product(*factors: float) -> float:
    """``_log_above_one`` of a product of positive floats whose partial
    products overflow. The mantissas are multiplied and the exponents added,
    which rounds as the direct product would; a product beyond the largest
    float is the sum of the logs."""
    mantissa, exponent = 1.0, 0
    for m, e in map(math.frexp, factors):
        mantissa, exponent = mantissa * m, exponent + e
    try:
        return _log_above_one(math.ldexp(mantissa, exponent))
    except OverflowError:
        return sum(map(math.log, factors))


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def closed_form_optimum(period: PeriodSpec) -> float:
    """Optimal investment of one period: the one-period view of ``z_star``."""
    return float(z_star(PeriodBatch.of(columns_of((period,))))[0])


def golden_section_optimum(period: PeriodSpec, z_max: float, tol: float) -> float:
    """Golden-section maximizer of the per-period net benefit on [0, z_max].

    The class-I objective is concave, hence unimodal on any interval. Stops
    once the bracket is narrower than ``tol``, or at a fixed cap of steps.
    """
    _check("z_max", z_max, "loss")
    _check("tol", tol)
    a, b = 0.0, float(z_max)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = ebis_eval(c, period) - c
    fd = ebis_eval(d, period) - d
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ebis_eval(c, period) - c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ebis_eval(d, period) - d
    mid = 0.5 * (a + b)
    # the corner z=0 can beat the interior midpoint when the optimum is flat
    return 0.0 if ebis_eval(0.0, period) >= ebis_eval(mid, period) - mid else mid


def _uniform_grid(z_min: float, z_max: float, steps: int) -> np.ndarray:
    """``steps + 1`` points from ``z_min`` to ``z_max``. Near the float maximum,
    linspace's last step * index may overflow; it then sets that point to z_max."""
    with np.errstate(over="ignore"):
        return np.linspace(float(z_min), float(z_max), int(steps) + 1)


def grid_oracle(period: PeriodSpec, z_max: float, steps: int) -> float:
    """Brute-force maximizer over the uniform grid {0, z_max/steps, ..., z_max}.

    The net benefit is computed in one buffer besides the grid. Ties break
    toward the smallest z (np.argmax returns the first maximum).
    """
    _check("z_max", z_max, "loss")
    _check("steps", steps)
    z = _uniform_grid(0.0, z_max, steps)
    values = ebis(z, PeriodBatch.one(period))
    values -= z
    return float(z[int(np.argmax(values))])


def _optima(batch: PeriodBatch) -> tuple[np.recarray, np.ndarray]:
    """The closed-form optimum of every period with the curve values there,
    and its net benefit ebis - z*."""
    z = z_star(batch)
    table = np.rec.fromarrays(
        (z, breach(z, batch), ebis(z, batch)),
        names="z_star,breach_probability_at_optimum,ebis_at_optimum",
    )
    table.flags.writeable = False  # per_period of a frozen result
    return table, table.ebis_at_optimum - z


def optimize_period(period: PeriodSpec) -> np.record:
    """Optimal investment for one period via the closed form: the row of
    ``optimize_scenario``'s ``per_period``."""
    return _optima(PeriodBatch.of(columns_of((period,))))[0][0]


def optimize_scenario(scenario: Scenario) -> OptimizationResult:
    """Optimize each period independently; the multi-period sum separates."""
    table, net = _optima(scenario.batch)
    return OptimizationResult(
        plan=InvestmentPlan(tuple(table.z_star.tolist())),
        enbis_total=net_total(net, scenario.label),
        per_period=table,
    )
