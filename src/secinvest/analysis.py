"""Scenario comparison, disruption classification, and parameter sweeps."""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericError
from .model import (
    DEFAULT_DISRUPTION_THRESHOLD,
    MAX_GRID,
    InvestmentPlan,
    PeriodBatch,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    _check,
    _Frozen,
    _first_fault,
    _numbers,
    breach,
    enbis_eval,
)
from .optimize import z_star

SHIFT_TOLERANCE = 1e-9
# one row of optimum_shift_sweep; shift_direction is left, right or none
_SWEEP_DTYPE = np.dtype([
    ("alpha", float), ("beta", float), ("vulnerability", float), ("loss", float),
    ("z_star_baseline", float), ("z_star_disrupted", float), ("shift_direction", "U5"),
])


class DeltaZReport(_Frozen):
    """Outcome of comparing two equal-duration scenarios at given plans."""

    _fields = "delta_z", "enbis_a", "enbis_b", "period_count", "classified_disruptive", "threshold_used"

    def __init__(self, delta_z: float, enbis_a: float, enbis_b: float, period_count: int,
                 classified_disruptive: bool, threshold_used: float) -> None:
        self._set(delta_z, enbis_a, enbis_b, period_count, classified_disruptive, threshold_used)


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
    return DeltaZReport(difference, enbis_a, enbis_b, scenario_a.horizon, disruptive, threshold)


def classify_disruptive(enbis_a: float, enbis_b: float, threshold: float) -> bool:
    """True when scenario B's net benefit exceeds A's by more than the
    relative threshold (an absolute margin when ENBIS(A) <= 0)."""
    _check("enbis_a", enbis_a, "total")
    _check("enbis_b", enbis_b, "total")
    _check("threshold", threshold, "loss")
    if enbis_a > 0:
        return enbis_b > enbis_a * (1.0 + threshold)
    return enbis_b - enbis_a > threshold * max(1.0, abs(enbis_a))


def productivity_ratio(plan_a: InvestmentPlan, plan_b: InvestmentPlan) -> float:
    """Ratio of total investment in B over total investment in A."""
    total_a = plan_a.total
    if total_a <= 0:
        raise DomainError("plan A must have a positive total investment")
    total_b = plan_b.total
    ratio = total_b / total_a
    if not (math.isfinite(total_a) and math.isfinite(ratio)):
        raise NumericError(f"productivity ratio of totals {total_b} and {total_a} overflows a float")
    if total_b > 0 and ratio < sys.float_info.min:  # 0 or a subnormal, short of digits
        raise NumericError(f"productivity ratio of totals {total_b} and {total_a} underflows a float")
    return ratio


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
    Only S_d <= S_0 is tested in floats: the strict part holds exactly for
    every valid alpha, as S_d/S_0 = 1/(alpha*z + 1) < 1 at every z > 0.
    """
    base_t = period_baseline.technology
    twin = PeriodSpec(period_baseline.vulnerability, period_baseline.loss,
                      TechnologyProfile(base_t.alpha, base_t.beta, 1))
    if base_t.disruptive != 0 or period_disrupted != twin:
        raise ContractError(
            "periods must differ only in the disruption flag (baseline 0, disrupted 1)"
        )
    z = _numbers(z_grid)
    s_0 = breach(z, PeriodBatch.one(period_baseline))
    return bool(np.all(breach(z, PeriodBatch.one(period_disrupted)) <= s_0))


def optimum_shift_sweep(
    alphas: Sequence[float],
    betas: Sequence[float],
    vulnerabilities: Sequence[float],
    losses: Sequence[float],
) -> np.recarray:
    """Optimal investment with and without disruption over a parameter grid.

    Quantifies where the left-shift claim for the argmax actually holds;
    the direction is parameter-dependent. Returns a record array with one
    row per parameter tuple, in the order of ``itertools.product`` of the
    sorted lists, so the output stays deterministic.
    """
    axes = [list(values) for values in (alphas, betas, vulnerabilities, losses)]
    count = math.prod(map(len, axes))
    if count > MAX_GRID:
        raise DomainError(f"need at most {MAX_GRID} sweep tuples, got {count}")
    if not count:
        return np.recarray(0, dtype=_SWEEP_DTYPE)
    # before sorting (which a value that is no number fails): tuple 0 through the types, then
    # the loss, v, beta and alpha axes; the first to fail has the first bad tuple's error
    alpha, beta, v, loss = (values[0] for values in axes)
    PeriodSpec(v, loss, TechnologyProfile(alpha, beta, 0))
    for field, values in zip(("loss", "vulnerability", "beta", "alpha"), axes[::-1]):
        bad = _first_fault(values, field)
        if bad < len(values):
            _check(field, values[bad])
    # as floats: an int axis would make an int grid, whose alpha*k*v*L wraps
    axes = [np.array(sorted(values), dtype=float) for values in axes]
    # raveled, the "ij" grid is in the order of itertools.product
    batch = PeriodBatch(*(column.ravel() for column in np.meshgrid(*axes, indexing="ij")))
    z0 = z_star(batch)
    zd = z_star(batch._replace(k=batch.k + 1.0))
    direction = np.select([zd < z0 - SHIFT_TOLERANCE, zd > z0 + SHIFT_TOLERANCE], ["left", "right"], "none")
    return np.rec.fromarrays([*batch, z0, zd, direction], dtype=_SWEEP_DTYPE)
