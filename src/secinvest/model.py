"""Core domain types and evaluation of the breach-probability and benefit curves.

Everything here is a pure function of its inputs; values are immutable and
safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import ContractError, DomainError, NumericError

ArrayLike = Union[float, np.ndarray]

# largest curve grid (in steps) and sweep grid (in tuples); 10**6 rows
# already print tens of MB of CSV
MAX_GRID = 10**6
# the fields of a period, in the order of a scenario's columns
PERIOD_FIELDS = ("vulnerability", "loss", "alpha", "beta", "disruptive")
# The domain of each numeric field and argument: a predicate that holds on a
# finite number (elementwise on a float array, for a field) and its text in
# the error message. The types apply it to one value, parse_scenario and
# InvestmentPlan to a column. z, z_min, z_max and threshold follow "loss", enbis_a/b "total".
_DOMAIN = {
    "vulnerability": (lambda x: (0.0 <= x) & (x <= 1.0), "must lie in [0, 1]"),
    "loss": (lambda x: x >= 0.0, "must be >= 0"),
    "alpha": (lambda x: x > 0, "must be > 0"),
    "beta": (lambda x: x >= 1, "must be >= 1"),
    "tol": (lambda x: x > 0, "must be > 0"),
    "total": (lambda x: True, "may take either sign"),
    # counts; a grid oracle needs one step, a curve grid two
    "switch_index": (lambda x: isinstance(x, Integral) and x >= 0, "must be an integer >= 0"),
    "steps": (lambda x: isinstance(x, Integral) and x >= 1, "must be an integer >= 1"),
    "curve_steps": (lambda x: isinstance(x, Integral) and x >= 2, "must be an integer >= 2"),
}


def _check(name: str, value, field: str | None = None) -> None:
    """Reject anything but a finite real number in the domain of ``field``
    (by default ``name``); bools (``np.bool_`` too), non-numbers, nan, +-inf
    and ints too large for a float are not finite numbers."""
    try:
        finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    holds, text = _DOMAIN[field or name]
    if not holds(value):
        raise DomainError(f"{name} {text}, got {value}")


def _is_dummy(d) -> bool:
    return type(d) is int and d in (0, 1)


def _first_fault(column: Sequence, field: str) -> int:
    """Index of the first value that ``_check`` rejects for ``field``, or the
    length. An int or float ndarray, or plain ints and floats within the
    float range, make one mask; any other column is checked value by value,
    so a bool or a string among numbers is found where numpy would cast it."""
    try:
        numeric = isinstance(column, np.ndarray) and column.dtype.kind in "iuf"
        if numeric or set(map(type, column)) <= {int, float}:  # bool is neither
            x = np.asarray(column, dtype=float)
            ok = np.isfinite(x) & _DOMAIN[field][0](x)
            return len(column) if ok.all() else int(ok.argmin())
    except OverflowError:  # an int beyond the float range
        pass
    for i, value in enumerate(column):
        try:
            _check("", value, field)
        except DomainError:
            return i
    return len(column)


def first_invalid(columns: Sequence[Sequence]) -> int:
    """Index of the first period, given as columns in the order of
    ``PERIOD_FIELDS``, that the types reject; the column length if none."""
    *numbers, dummies = columns
    faults = [_first_fault(c, f) for f, c in zip(PERIOD_FIELDS, numbers)]
    return min(*faults, next((i for i, d in enumerate(dummies) if not _is_dummy(d)), len(dummies)))


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
        _check("alpha", self.alpha)
        _check("beta", self.beta)
        if not _is_dummy(self.disruptive):
            raise DomainError(f"disruptive must be the dummy 0 or 1, got {self.disruptive!r}")

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
        _check("vulnerability", self.vulnerability)
        _check("loss", self.loss)


@dataclass(frozen=True)
class Scenario:
    """An ordered, nonempty sequence of periods; the unit of optimization.

    It is held as ``columns``, one tuple of values per field of
    ``PERIOD_FIELDS``; its float arrays ``batch`` and, for a parsed file, its
    ``periods`` are built from them when first read.
    """

    label: str
    columns: tuple[tuple, ...]

    def __init__(self, label: str, periods: Iterable[PeriodSpec]) -> None:
        periods = tuple(periods)
        if not periods:
            raise DomainError("a scenario needs at least one period")
        rows = ((p.vulnerability, p.loss, p.technology.alpha, p.technology.beta, p.technology.disruptive)
                for p in periods)
        self.__dict__.update(label=label, columns=tuple(zip(*rows)), periods=periods)

    @classmethod
    def of_columns(cls, label: str, columns: tuple[tuple, ...]) -> "Scenario":
        """A scenario of nonempty columns in which ``first_invalid`` finds no fault."""
        scenario = cls.__new__(cls)
        scenario.__dict__.update(label=label, columns=columns)
        return scenario

    @cached_property
    def periods(self) -> tuple[PeriodSpec, ...]:
        rows = zip(*self.columns)
        return tuple(PeriodSpec(v, loss, TechnologyProfile(*tech)) for v, loss, *tech in rows)

    @cached_property
    def batch(self) -> "PeriodBatch":
        return PeriodBatch.of(self.columns)

    @property
    def horizon(self) -> int:
        return len(self.columns[0])


@dataclass(frozen=True)
class InvestmentPlan:
    """One nonnegative investment amount per period of a scenario."""

    amounts: tuple[float, ...]

    def __post_init__(self) -> None:
        amounts = tuple(self.amounts)
        i = _first_fault(amounts, "loss")  # nonnegative, as a loss is
        if i < len(amounts):
            _check(f"amounts[{i}]", amounts[i], "loss")
        object.__setattr__(self, "amounts", tuple(map(float, amounts)))

    @property
    def total(self) -> float:
        return float(sum(self.amounts))

    def __len__(self) -> int:
        return len(self.amounts)


class PeriodBatch(NamedTuple):
    """The periods of a scenario as a struct of arrays, one entry per period.

    ``k`` is the exponent beta + d. The fields are floats of one shape; a
    one-period view (``PeriodBatch.one``, which every per-period function
    reads) holds plain floats instead, which broadcast the same way.
    """

    alpha: ArrayLike
    k: ArrayLike
    v: ArrayLike
    loss: ArrayLike

    @classmethod
    def of(cls, columns: Sequence[Sequence]) -> "PeriodBatch":
        """Float arrays from valid columns, one per field of ``PERIOD_FIELDS``;
        beta + d is summed before rounding, as ``TechnologyProfile.exponent`` is."""
        v, loss, alpha, beta, d = columns
        return cls(
            np.array(alpha, dtype=float),
            np.array(list(map(operator.add, beta, d)), dtype=float),
            np.array(v, dtype=float),
            np.array(loss, dtype=float),
        )

    @classmethod
    def one(cls, period: PeriodSpec) -> "PeriodBatch":
        tech = period.technology
        return cls(*map(float, (tech.alpha, tech.exponent, period.vulnerability, period.loss)))


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


def _nonnegative(z: ArrayLike) -> ArrayLike:
    """``z`` as a float or a float array, once each value passes ``_check``
    as a ``z``; a list is scanned as the values it holds, not as numpy casts them."""
    if isinstance(z, (int, float)):
        _check("z", z, "loss")
        return float(z)
    values = z if isinstance(z, np.ndarray) else np.asarray(z, dtype=object)
    bad = _first_fault(values.reshape(-1), "loss")
    if bad < values.size:
        _check("z", values.reshape(-1).tolist()[bad], "loss")
    return values.astype(float, copy=False)


def sbpf_eval(z: ArrayLike, v: float, tech: TechnologyProfile) -> ArrayLike:
    """Breach probability v / (alpha*z + 1)**(beta + d); lies in [0, v].

    Takes a scalar or an ndarray ``z`` and returns the same shape, evaluated
    elementwise by ``breach``.
    """
    z_arr = _nonnegative(z)
    _check("v", v, "vulnerability")
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
    terms = ebis(z, scenario.batch)
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
    _check("switch_index", switch_index)
    grid = _nonnegative(z_grid)
    if np.ndim(grid) != 1:
        raise DomainError(f"z_grid must be a 1-D sequence of numbers, got {np.ndim(grid)} dimensions")
    return np.concatenate((
        ebis(grid[:switch_index], PeriodBatch.one(period_pre)),
        ebis(grid[switch_index:], PeriodBatch.one(period_post)),
    ))
