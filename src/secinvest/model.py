"""Core domain types and evaluation of the breach-probability and benefit curves.

Everything here is a pure function of its inputs; values are immutable and
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ContractError, DomainError, NumericError

ArrayLike = Union[float, np.ndarray]

# largest curve grid (in steps) and sweep grid (in tuples); 10**6 rows
# already print tens of MB of CSV
MAX_GRID = 10**6


def _finite(name: str, value) -> None:
    """Reject anything but a finite real number: bools, non-numbers, nan,
    +-inf and ints too large for a float."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class TechnologyProfile:
    """Productivity parameters of one cyber-security technology.

    ``alpha`` and ``beta`` make the breach probability fall faster in the
    invested amount; ``disruptive`` is a 0/1 dummy that raises the exponent
    by one when a disruptive technology is in force.
    """

    alpha: float
    beta: float
    disruptive: int = 0

    def __post_init__(self) -> None:
        _finite("alpha", self.alpha)
        if self.alpha <= 0:
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        _finite("beta", self.beta)
        if self.beta < 1:
            raise DomainError(f"beta must be >= 1, got {self.beta}")
        d = self.disruptive
        if not (type(d) is int and d in (0, 1)):
            raise DomainError(f"disruptive must be the dummy 0 or 1, got {d!r}")

    @property
    def exponent(self) -> float:
        """Exponent applied to (alpha*z + 1), i.e. beta plus the dummy."""
        return self.beta + self.disruptive


@dataclass(frozen=True)
class PeriodSpec:
    """One period: vulnerability, potential loss, and the technology in force."""

    vulnerability: float
    loss: float
    technology: TechnologyProfile

    def __post_init__(self) -> None:
        _finite("vulnerability", self.vulnerability)
        if not (0.0 <= self.vulnerability <= 1.0):
            raise DomainError(
                f"vulnerability must lie in [0, 1], got {self.vulnerability}"
            )
        _finite("loss", self.loss)
        if self.loss < 0.0:
            raise DomainError(f"loss must be >= 0, got {self.loss}")


@dataclass(frozen=True)
class Scenario:
    """An ordered, nonempty sequence of periods; the unit of optimization."""

    label: str
    periods: tuple[PeriodSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "periods", tuple(self.periods))
        if len(self.periods) == 0:
            raise DomainError("a scenario needs at least one period")

    @property
    def horizon(self) -> int:
        return len(self.periods)


@dataclass(frozen=True)
class InvestmentPlan:
    """One nonnegative investment amount per period of a scenario."""

    amounts: tuple[float, ...]

    def __post_init__(self) -> None:
        amounts = tuple(self.amounts)
        for i, a in enumerate(amounts):
            _finite(f"amounts[{i}]", a)
            if a < 0.0:
                raise DomainError(f"amounts[{i}] must be >= 0, got {a}")
        object.__setattr__(self, "amounts", tuple(float(a) for a in amounts))

    @property
    def total(self) -> float:
        return float(sum(self.amounts))

    def __len__(self) -> int:
        return len(self.amounts)


class PeriodBatch(NamedTuple):
    """The periods of a scenario as a struct of arrays, one entry per period.

    ``k`` is the exponent beta + d. The fields share one shape; the
    one-period views (``PeriodBatch.one``) hold plain floats instead, which
    broadcast the same way.
    """

    alpha: ArrayLike
    k: ArrayLike
    v: ArrayLike
    loss: ArrayLike

    @classmethod
    def of(cls, periods: Sequence[PeriodSpec]) -> "PeriodBatch":
        """Float arrays from already validated periods."""
        techs = [p.technology for p in periods]
        return cls(
            np.array([t.alpha for t in techs], dtype=float),
            np.array([t.exponent for t in techs], dtype=float),
            np.array([p.vulnerability for p in periods], dtype=float),
            np.array([p.loss for p in periods], dtype=float),
        )

    @classmethod
    def one(cls, period: PeriodSpec) -> "PeriodBatch":
        tech = period.technology
        return cls(tech.alpha, tech.exponent, period.vulnerability, period.loss)


# alpha*z + 1 or its power may overflow to inf, which correctly gives S = 0
@np.errstate(over="ignore")
def breach(z: ArrayLike, batch: PeriodBatch) -> np.ndarray:
    """The breach law S = v / (alpha*z + 1)**k with ``z`` broadcast against
    the periods, in one fresh buffer (a 0-d array for scalar inputs)."""
    s = np.asarray(batch.alpha * z)
    s += 1.0
    if isinstance(batch.k, np.ndarray):
        # numpy squares where a scalar exponent is 2, and its pow can differ
        # from that in the last bit; square the same periods here
        square = batch.k == 2.0
        np.power(s, batch.k, out=s, where=~square)
        np.square(s, out=s, where=square)
    else:
        np.power(s, batch.k, out=s)
    return np.divide(batch.v, s, out=s)


def ebis(z: ArrayLike, batch: PeriodBatch) -> np.ndarray:
    """Expected benefit [v - S(z, v)] * L, computed in the buffer of ``breach``."""
    out = breach(z, batch)
    np.subtract(batch.v, out, out=out)
    out *= batch.loss
    return out


def net_total(terms: np.ndarray, label: str) -> float:
    """Left-to-right float sum of the per-period net benefits, as a running
    total from 0.0 would give it; raises NumericError past the float range."""
    with np.errstate(over="ignore"):
        total = float(np.add.accumulate(terms)[-1]) + 0.0
    if not math.isfinite(total):
        raise NumericError(f"net benefit of {label!r} overflows a float")
    return total


def _scalar_or_array(z: ArrayLike, out: np.ndarray) -> ArrayLike:
    return float(out) if np.isscalar(z) or out.ndim == 0 else out


def _nonnegative(z: ArrayLike) -> np.ndarray:
    z_arr = np.asarray(z, dtype=float)
    if not (z_arr >= 0).all():
        raise DomainError(f"z must be >= 0, got {z}")
    return z_arr


def sbpf_eval(z: ArrayLike, v: float, tech: TechnologyProfile) -> ArrayLike:
    """Breach probability v / (alpha*z + 1)**(beta + d); lies in [0, v].

    Takes a scalar or an ndarray ``z`` and returns the same shape, evaluated
    elementwise by ``breach``.
    """
    z_arr = _nonnegative(z)
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"v must lie in [0, 1], got {v}")
    # the loss plays no part in S
    out = breach(z_arr, PeriodBatch(tech.alpha, tech.exponent, v, 0.0))
    return _scalar_or_array(z, out)


def ebis_eval(z: ArrayLike, period: PeriodSpec) -> ArrayLike:
    """Expected benefit [v - S(z, v)] * L; in [0, v*L), nondecreasing in z.

    Takes a scalar or an ndarray ``z`` and returns the same shape.
    """
    return _scalar_or_array(z, ebis(_nonnegative(z), PeriodBatch.one(period)))


def enbis_eval(plan: InvestmentPlan, scenario: Scenario) -> float:
    """Net benefit summed over all periods: sum of [v - S(z, v)]*L - z."""
    if len(plan) != scenario.horizon:
        raise ContractError(
            f"plan has {len(plan)} amounts but scenario "
            f"{scenario.label!r} has {scenario.horizon} periods"
        )
    z = np.array(plan.amounts, dtype=float)
    terms = ebis(z, PeriodBatch.of(scenario.periods))
    terms -= z
    return net_total(terms, scenario.label)


def ebis_mix_curve(
    period_pre: PeriodSpec,
    period_post: PeriodSpec,
    switch_index: int,
    z_grid: Sequence[float],
) -> np.ndarray:
    """EBIS along ``z_grid`` as a float ndarray: the pre-switch technology on
    ``z_grid[:switch_index]`` and the post-switch technology on the rest.

    The post technology must carry the disruption dummy and the pre
    technology must not, unless the two periods are identical (which
    degenerates to a single continuous curve).
    """
    if period_pre != period_post:
        if period_pre.technology.disruptive != 0:
            raise ContractError("pre-switch technology must have disruptive=0")
        if period_post.technology.disruptive != 1:
            raise ContractError("post-switch technology must have disruptive=1")
    if switch_index < 0:
        raise DomainError(f"switch_index must be >= 0, got {switch_index}")
    grid = np.asarray(z_grid, dtype=float)
    return np.concatenate((
        ebis_eval(grid[:switch_index], period_pre),
        ebis_eval(grid[switch_index:], period_post),
    ))


def mix_jump(period_pre: PeriodSpec, period_post: PeriodSpec, z: float) -> float:
    """Size of the curve discontinuity at investment level z: EBIS_post - EBIS_pre."""
    return ebis_eval(z, period_post) - ebis_eval(z, period_pre)
