"""Scenario comparison, disruption classification, and parameter sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError
from .model import (
    InvestmentPlan,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    enbis_eval,
    sbpf_eval,
)
from .optimize import closed_form_optimum

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
    disruptive = classify_disruptive(enbis_a, enbis_b, threshold)
    return DeltaZReport(
        delta_z=enbis_a - enbis_b,
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
        return bool(np.all(s_disr[z > 0] < s_base[z > 0]))
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
    parameter tuple so concurrent evaluation stays deterministic.
    """
    records = []
    for alpha, beta, v, loss in itertools.product(
        sorted(alphas), sorted(betas), sorted(vulnerabilities), sorted(losses)
    ):
        z0 = closed_form_optimum(
            PeriodSpec(v, loss, TechnologyProfile(alpha, beta, 0))
        )
        zd = closed_form_optimum(
            PeriodSpec(v, loss, TechnologyProfile(alpha, beta, 1))
        )
        if zd < z0 - SHIFT_TOLERANCE:
            direction = "left"
        elif zd > z0 + SHIFT_TOLERANCE:
            direction = "right"
        else:
            direction = "none"
        records.append(
            SweepRecord(
                alpha=alpha,
                beta=beta,
                vulnerability=v,
                loss=loss,
                z_star_baseline=z0,
                z_star_disrupted=zd,
                shift_direction=direction,
            )
        )
    return records
