"""Optimal per-period and per-scenario investment.

The production path is the closed form obtained from the first-order
condition of the net-benefit objective; golden-section and grid search
serve as independent cross-checks (and would carry a future non-class-I
breach-probability family).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    InvestmentPlan,
    PeriodBatch,
    PeriodSpec,
    Scenario,
    breach,
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
class PeriodOptimum:
    """Optimal investment for a single period, with curve values at the optimum."""

    z_star: float
    breach_probability_at_optimum: float
    ebis_at_optimum: float
    method: str  # closed_form | golden_section | grid


@dataclass(frozen=True)
class OptimizationResult:
    plan: InvestmentPlan
    enbis_total: float
    per_period: tuple[PeriodOptimum, ...]


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
        # a partial product overflowed, so no factor is zero: sum the logs,
        # whose total can still put the true product at or below 1
        log_alpha, log_k, log_v, log_loss = (_map(math.log, x[over]) for x in batch)
        total = log_alpha + log_k + log_v + log_loss
        log_interior[over] = np.where(total > 0.0, total, 0.0)
    # expm1 keeps full precision as interior -> 1 (the corner); a corner's
    # log is 0, which gives z = 0
    return _map(math.expm1, log_interior / (k + 1.0)) / alpha


def _log_above_one(x: float) -> float:
    return math.log(x) if x > 1.0 else 0.0  # nan (inf * 0) is a corner


def _map(fn, values: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, values.tolist()), float, values.size)


def closed_form_optimum(period: PeriodSpec) -> float:
    """Optimal investment of one period: the one-period view of ``z_star``."""
    return float(z_star(PeriodBatch.of((period,)))[0])


def golden_section_optimum(period: PeriodSpec, z_max: float, tol: float) -> float:
    """Golden-section maximizer of the per-period net benefit on [0, z_max].

    The class-I objective is concave, hence unimodal on any interval. Stops
    once the bracket is narrower than ``tol``, or at a fixed cap of steps.
    """
    if not (0 <= z_max < math.inf):
        raise DomainError(f"z_max must be finite and >= 0, got {z_max}")
    if not (0 < tol < math.inf):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
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


def grid_oracle(period: PeriodSpec, z_max: float, steps: int) -> float:
    """Brute-force maximizer over the uniform grid {0, z_max/steps, ..., z_max}.

    The net benefit is computed in one buffer besides the grid. Ties break
    toward the smallest z (np.argmax returns the first maximum).
    """
    if not (0 <= z_max < math.inf):
        raise DomainError(f"z_max must be finite and >= 0, got {z_max}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    z = np.linspace(0.0, float(z_max), int(steps) + 1)
    values = ebis(z, PeriodBatch.one(period))
    values -= z
    return float(z[int(np.argmax(values))])


def _optima(batch: PeriodBatch) -> tuple[list[float], tuple[PeriodOptimum, ...], np.ndarray]:
    """z* of every period, its closed-form record, and its net benefit ebis - z*."""
    z = z_star(batch)
    z_list = z.tolist()
    gain = ebis(z, batch)
    records = tuple(map(
        PeriodOptimum,
        z_list,
        breach(z, batch).tolist(),
        gain.tolist(),
        itertools.repeat("closed_form"),
    ))
    gain -= z
    return z_list, records, gain


def optimize_period(period: PeriodSpec) -> PeriodOptimum:
    """Optimal investment for one period via the closed form."""
    return _optima(PeriodBatch.of((period,)))[1][0]


def optimize_scenario(scenario: Scenario) -> OptimizationResult:
    """Optimize each period independently; the multi-period sum separates."""
    z, records, net = _optima(PeriodBatch.of(scenario.periods))
    return OptimizationResult(
        plan=InvestmentPlan(tuple(z)),
        enbis_total=net_total(net, scenario.label),
        per_period=records,
    )
