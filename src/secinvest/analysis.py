"""Scenario comparison, disruption classification, and parameter sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericError
from .model import (
    InvestmentPlan,
    PeriodBatch,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    enbis_eval,
    sbpf_eval,
)
from .optimize import z_star

DEFAULT_DISRUPTION_THRESHOLD = 0.10
SHIFT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DeltaZReport:
    """Outcome of comparing two equal-duration scenarios at given plans."""

    delta_z: float
    enbis_a: float
    enbis_b: float
    period_count: int
    classified_disruptive: bool
    threshold_used: float


@dataclass(frozen=True)
class SweepRecord:
    alpha: float
    beta: float
    vulnerability: float
    loss: float
    z_star_baseline: float
    z_star_disrupted: float
    shift_direction: str  # left | right | none


def delta_z(
    scenario_a: Scenario,
    plan_a: InvestmentPlan,
    scenario_b: Scenario,
    plan_b: InvestmentPlan,
    threshold: float = DEFAULT_DISRUPTION_THRESHOLD,
) -> DeltaZReport:
    """Cumulative net-benefit difference ENBIS(A) - ENBIS(B).

    The two scenarios must cover the same number of periods in order to
    proceed to the comparison.
    """
    if scenario_a.horizon != scenario_b.horizon:
        raise ContractError(
            f"scenario horizons must be equal in order to proceed to the "
            f"comparison ({scenario_a.horizon} vs {scenario_b.horizon})"
        )
    enbis_a = enbis_eval(plan_a, scenario_a)
    enbis_b = enbis_eval(plan_b, scenario_b)
    difference = enbis_a - enbis_b
    if not math.isfinite(difference):
        raise NumericError(
            f"net-benefit difference of {scenario_a.label!r} and "
            f"{scenario_b.label!r} overflows a float"
        )
    disruptive = classify_disruptive(enbis_a, enbis_b, threshold)
    return DeltaZReport(
        delta_z=difference,
        enbis_a=enbis_a,
        enbis_b=enbis_b,
        period_count=scenario_a.horizon,
        classified_disruptive=disruptive,
        threshold_used=threshold,
    )


def classify_disruptive(enbis_a: float, enbis_b: float, threshold: float) -> bool:
    """True when scenario B's net benefit exceeds A's by more than the
    relative threshold (an absolute margin when ENBIS(A) <= 0)."""
    if not (0 <= threshold < math.inf):
        raise DomainError(f"threshold must be finite and >= 0, got {threshold}")
    if enbis_a > 0:
        return enbis_b > enbis_a * (1.0 + threshold)
    return enbis_b - enbis_a > threshold * max(1.0, abs(enbis_a))


def productivity_ratio(plan_a: InvestmentPlan, plan_b: InvestmentPlan) -> float:
    """Ratio of total investment in B over total investment in A."""
    total_a = plan_a.total
    if total_a <= 0:
        raise DomainError("plan A must have a positive total investment")
    return plan_b.total / total_a


def dominance_check(
    period_baseline: PeriodSpec,
    period_disrupted: PeriodSpec,
    z_grid: Sequence[float],
) -> bool:
    """Pointwise dominance of the disrupted benefit curve over the baseline.

    The two periods must be identical apart from the disruption dummy.
    Returns True iff the disrupted curve is >= the baseline at every point of
    the array ``z_grid``, strictly above it at every z > 0 (when both v and L
    are positive). EBIS is (v - S)*L, so for L > 0 this compares the breach
    probabilities S, which keep their order where both EBIS round to v*L.
    The strict part is read from the exact ratio S_d/S_0 = 1/(alpha*z + 1),
    which floats keep below 1 where alpha*z + 1 rounds to 1 or both S
    underflow to 0.
    """
    base_t = period_baseline.technology
    twin = replace(period_baseline, technology=replace(base_t, disruptive=1))
    if base_t.disruptive != 0 or period_disrupted != twin:
        raise ContractError(
            "periods must differ only in the disruption flag (baseline 0, disrupted 1)"
        )
    z = np.asarray(z_grid, dtype=float)
    v = period_baseline.vulnerability
    s_base = sbpf_eval(z, v, base_t)
    s_disr = sbpf_eval(z, v, period_disrupted.technology)
    if not np.all(s_disr <= s_base):
        return False
    if v > 0 and period_baseline.loss > 0:
        with np.errstate(over="ignore"):  # alpha*z = inf still gives a log > 0
            return bool(np.all(np.log1p(base_t.alpha * z[z > 0]) > 0))
    return True


def optimum_shift_sweep(
    alphas: Sequence[float],
    betas: Sequence[float],
    vulnerabilities: Sequence[float],
    losses: Sequence[float],
) -> list[SweepRecord]:
    """Optimal investment with and without disruption over a parameter grid.

    Quantifies where the left-shift claim for the argmax actually holds;
    the direction is parameter-dependent. Records come back sorted by the
    parameter tuple (``itertools.product`` of the sorted lists) so the
    output stays deterministic.
    """
    axes = [sorted(values) for values in (alphas, betas, vulnerabilities, losses)]
    if not all(axes):
        return []
    _validate_axes(*axes)
    # meshgrid's "ij" order is the order of itertools.product; a record is
    # the product's tuple of the caller's own values plus the tuple's optima
    rows = map(tuple.__add__, itertools.product(*axes), zip(*_shifts(axes)))
    return list(itertools.starmap(SweepRecord, rows))


def _shifts(axes) -> tuple[list[float], list[float], np.ndarray]:
    """z* without and with the dummy over the grid of the four axes, and
    the shift direction, per tuple in "ij" order. The grid arrays are freed
    on return, before the records are built."""
    grid = np.meshgrid(*(np.array(axis, dtype=float) for axis in axes), indexing="ij")
    alpha, beta, v, loss = (x.ravel() for x in grid)
    z0 = z_star(PeriodBatch(alpha, beta, v, loss))
    zd = z_star(PeriodBatch(alpha, beta + 1.0, v, loss))
    # an object array holds the same three strings, not one copy per tuple
    direction = np.full(z0.size, "none", dtype=object)
    direction[zd > z0 + SHIFT_TOLERANCE] = "right"
    direction[zd < z0 - SHIFT_TOLERANCE] = "left"
    return z0.tolist(), zd.tolist(), direction


def _validate_axes(alphas, betas, vulnerabilities, losses) -> None:
    """Check every axis value through the domain types, raising the error of
    the first invalid tuple in record order."""
    tech = TechnologyProfile(alphas[0], betas[0], 0)
    for loss in losses:
        PeriodSpec(vulnerabilities[0], loss, tech)
    for v in vulnerabilities:
        PeriodSpec(v, losses[0], tech)
    for beta in betas:
        TechnologyProfile(alphas[0], beta, 0)
    for alpha in alphas:
        TechnologyProfile(alpha, betas[0], 0)
