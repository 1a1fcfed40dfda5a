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

from .errors import DomainError
from .model import (
    InvestmentPlan,
    PeriodSpec,
    Scenario,
    ebis_eval,
    enbis_eval,
    sbpf_eval,
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


def closed_form_optimum(period: PeriodSpec) -> float:
    """Unique maximizer of [v - S(z, v)]*L - z over z >= 0.

    Setting the derivative to zero gives (alpha*z + 1)**(k+1) = alpha*k*v*L
    with k the technology exponent; when the right-hand side is <= 1 the
    objective is nonincreasing and the corner z = 0 is optimal.
    """
    v, loss = period.vulnerability, period.loss
    alpha = period.technology.alpha
    k = period.technology.exponent
    interior = alpha * k * v * loss
    if interior == math.inf:
        # a partial product overflowed, so no factor is zero: sum the logs,
        # whose total can still put the true product at or below 1
        log_interior = sum(math.log(x) for x in (alpha, k, v, loss))
    elif interior > 1.0:
        log_interior = math.log(interior)
    else:  # includes nan, from inf * 0 when v or loss is zero
        return 0.0
    if log_interior <= 0.0:
        return 0.0
    # expm1 keeps full precision as interior -> 1 (the corner)
    return math.expm1(log_interior / (k + 1.0)) / alpha


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

    Ties break toward the smallest z (np.argmax returns the first maximum).
    """
    if not (0 <= z_max < math.inf):
        raise DomainError(f"z_max must be finite and >= 0, got {z_max}")
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    z = np.linspace(0.0, float(z_max), int(steps) + 1)
    values = ebis_eval(z, period) - z
    return float(z[int(np.argmax(values))])


def optimize_period(period: PeriodSpec) -> PeriodOptimum:
    """Optimal investment for one period via the closed form."""
    z_star = closed_form_optimum(period)
    return PeriodOptimum(
        z_star=z_star,
        breach_probability_at_optimum=sbpf_eval(
            z_star, period.vulnerability, period.technology
        ),
        ebis_at_optimum=ebis_eval(z_star, period),
        method="closed_form",
    )


def optimize_scenario(scenario: Scenario) -> OptimizationResult:
    """Optimize each period independently; the multi-period sum separates."""
    records = tuple(optimize_period(p) for p in scenario.periods)
    plan = InvestmentPlan(tuple(r.z_star for r in records))
    return OptimizationResult(
        plan=plan,
        enbis_total=enbis_eval(plan, scenario),
        per_period=records,
    )
