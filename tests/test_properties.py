"""Property tests over the whole input domain.

Valid finite inputs give finite results, the closed form matches a 50-digit
reference, the Gordon-Loeb bound z* <= v*L/e holds, the scenario optimum,
scenario total and sweep equal their per-period scalar forms (at and near the
corner and where alpha*k*v*L overflows), every one-period view is bitwise the
row of the batch kernel, the curve grid is np.linspace bit for bit, every
row of the whole-grid curve CSVs equals the one formatted from scalar
evaluations, and every invalid input (nan, +-inf, bools, 400-digit ints,
out-of-range values) fails with a ModelError subclass, in the library and
through the CLI.
The array SVG renderer draws what a per-point reference renderer draws from
the same floats, in the library and through the CLI, the table
writer's lines are those of Python's ``%``, and the columnar scenario parser
gives what a per-period reference parser gives.
"""

import contextlib
import io
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secinvest import (
    DomainError,
    InvestmentPlan,
    ModelError,
    NumericError,
    ParseError,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    closed_form_optimum,
    delta_z,
    ebis_eval,
    ebis_mix_curve,
    emit_curve_csv,
    emit_mix_csv,
    enbis_eval,
    golden_section_optimum,
    optimize_period,
    optimize_scenario,
    optimum_shift_sweep,
    parse_scenario,
    render_curve_svg,
    run_cli,
    sbpf_eval,
)
from secinvest.analysis import SHIFT_TOLERANCE
from secinvest.model import PeriodBatch, breach, ebis
from secinvest.optimize import _grid_points, _optima, z_star
from secinvest.scenario_io import _z_grid, fmt, fmt_rows

PROPERTY = settings(deadline=None, max_examples=150)
CLI_PROPERTY = settings(deadline=None, max_examples=60)

EPS = 2.0**-52
VALID = {"vulnerability": 0.5, "loss": 100.0, "alpha": 1.0, "beta": 1.0, "disruptive": 0}

vulnerabilities = st.floats(0.0, 1.0)
losses = st.floats(min_value=0.0, allow_infinity=False)
alphas = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
betas = st.floats(min_value=1.0, allow_infinity=False)
dummies = st.sampled_from([0, 1])


def make_period(vulnerability, loss, alpha, beta, disruptive):
    return PeriodSpec(vulnerability, loss, TechnologyProfile(alpha, beta, disruptive))


periods = st.builds(make_period, vulnerabilities, losses, alphas, betas, dummies)

NON_FINITE = [math.nan, math.inf, -math.inf, True, False, 10**400, -(10**400)]
OUT_OF_RANGE = {
    "vulnerability": st.one_of(
        st.floats(max_value=-1e-300), st.floats(min_value=1.0, exclude_min=True)
    ),
    "loss": st.floats(max_value=-1e-300),
    "alpha": st.floats(max_value=0.0),
    "beta": st.floats(max_value=1.0, exclude_max=True),
    "disruptive": st.one_of(
        st.integers().filter(lambda d: d not in (0, 1)),
        st.sampled_from([0.0, 1.0, None, "1"]),
    ),
}


@st.composite
def invalid_fields(draw):
    """One period field set to a value outside the model's domain."""
    field = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    value = draw(st.one_of(st.sampled_from(NON_FINITE), OUT_OF_RANGE[field]))
    return field, value


def mp_z_star(p):
    """Exact maximizer from the exact float inputs, at 50 digits."""
    with mpmath.workdps(50):
        alpha = mpmath.mpf(p.technology.alpha)
        k = mpmath.mpf(p.technology.beta) + p.technology.disruptive
        interior = alpha * k * mpmath.mpf(p.vulnerability) * mpmath.mpf(p.loss)
        if interior <= 1:
            return mpmath.mpf(0)
        # interior**(1/(k+1)) - 1 would cancel away most digits for huge k
        return mpmath.expm1(mpmath.log(interior) / (k + 1)) / alpha


@st.composite
def regime_periods(draw):
    """A period at the corner (alpha*k*v*L <= 1), just past it (1 + 1e-10),
    inside it (up to 1e6), with an overflowing product alpha*k*v*L = inf, a
    subnormal v, a zero loss, or anywhere."""
    regime = draw(st.sampled_from(["corner", "near", "interior", "overflow", "subnormal", "zero", "any"]))
    if regime == "any":
        return draw(periods)
    if regime in ("subnormal", "zero"):
        v = draw(st.sampled_from([5e-324, 1e-310, 2.2e-308]) if regime == "subnormal" else vulnerabilities)
        loss = draw(losses) if regime == "subnormal" else 0.0
        return make_period(v, loss, draw(alphas), draw(betas), draw(dummies))
    d = draw(dummies)
    v = draw(st.floats(1e-3, 1.0))
    if regime == "overflow":
        # alpha*k alone overflows; the true product may still lie below 1
        alpha, beta = draw(st.floats(1e300, 1e308)), draw(st.floats(1e10, 1e300))
        loss = draw(st.floats(1e-300, 1e308))
    else:
        # k = 2 (beta 1 with the dummy, or beta 2) is where numpy squares
        beta = draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 10.0)))
        alpha = draw(st.floats(1e-3, 1e3))
        scale = draw({"corner": st.floats(0.0, 1.0), "near": st.just(1.0 + 1e-10),
                      "interior": st.floats(1.0, 1e6)}[regime])
        loss = scale / (alpha * (beta + d) * v)
    return make_period(v, loss, alpha, beta, d)


def left_to_right_net(plan, scenario):
    """The net benefit summed period by period from 0.0, as scalar floats."""
    total = 0.0
    for z, p in zip(plan.amounts, scenario.periods):
        total += ebis_eval(z, p) - z
    return total


@PROPERTY
@given(st.lists(regime_periods(), min_size=1, max_size=12))
def test_scenario_optimum_is_the_per_period_optimum(ps):
    scenario = Scenario("x", tuple(ps))
    expected = left_to_right_net(InvestmentPlan(tuple(map(closed_form_optimum, ps))), scenario)
    if not math.isfinite(expected):
        with pytest.raises(NumericError):
            optimize_scenario(scenario)
        return
    result = optimize_scenario(scenario)
    assert result.per_period.tolist() == [optimize_period(p).item() for p in ps]
    for r, p in zip(result.per_period, ps):
        assert r.breach_probability_at_optimum == sbpf_eval(
            r.z_star, p.vulnerability, p.technology)
        assert r.ebis_at_optimum == ebis_eval(r.z_star, p)
    assert result.plan.amounts == tuple(r.z_star for r in result.per_period)
    assert result.enbis_total == expected


def bits(values):
    """The bit patterns of a float or of a sequence of floats."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def near_the_overflow_test(p, log2_power):
    """``p`` and a z at which k*log2(alpha*z + 1) is about ``log2_power``, or
    the largest float where that z is beyond it."""
    tech = p.technology
    with np.errstate(over="ignore"):
        z = float(np.exp2(log2_power / tech.exponent) / tech.alpha)
    return p, min(z, 1.7976931348623157e308)


@PROPERTY
@given(st.lists(st.one_of(
    st.tuples(regime_periods(), st.floats(0.0, 1e308) | st.floats(0.0, 10.0)),
    # a one-period view enters numpy's errstate only where k*log2(alpha*z + 1) >= 1000
    st.builds(near_the_overflow_test, regime_periods(), st.sampled_from([1000.0, 1024.0]).flatmap(
        lambda at: st.floats(at - 40.0, at + 40.0))),
), min_size=1, max_size=12))
@example([
    (make_period(0.5, 100.0, 1.0, 1.0, 1), 1.0),  # k = 2, where numpy squares
    (make_period(0.5, 1.0, 1.0, 1.0, 0), 0.0),  # the corner
    (make_period(0.5, 1e-300, 1e308, 1e300, 1), 1e308),  # alpha*k overflows
    (make_period(5e-324, 1e308, 1.0, 1.5, 0), 3.0),  # subnormal v
    (make_period(0.5, 0.0, 2.0, 1.0, 0), 2.0),  # zero loss
])
# k*log2(alpha*z + 1) just below 1000, at it, and near 1024 on either side;
# then alpha*z itself overflows
@example([
    (make_period(0.5, 100.0, 1.0, 1.0, 0), 2.0**999),
    (make_period(0.5, 100.0, 1.0, 1.0, 0), 2.0**1000),
    (make_period(0.5, 100.0, 1.0, 1.0, 1), 2.0**499.99),  # k = 2
    (make_period(0.5, 100.0, 1.0, 1.0, 1), 2.0**511.99),
    (make_period(0.5, 100.0, 1.0, 1.0, 1), 2.0**512.01),
    (make_period(0.5, 100.0, 1.0, 1.0, 0), 1.7976931348623157e308),
    (make_period(0.5, 100.0, 2.0, 9.0, 1), 2.0**101),  # k = 10: k*log2 is 1020
    (make_period(0.5, 100.0, 2.0, 9.0, 1), 2.0**104),
    (make_period(1.0, 1e308, 4.0, 1.5, 1), 1e308),  # alpha*z is inf
])
# the steps of z_star's float branch for a view: exponent sums of 2024, 1992
# and -1990, beyond ±1000, where the product's log is log(hi) + e*ln 2 even
# where hi lies in (0.5, 1); zero factors, -0.0 among them, where hi and p
# are 0 or -0.0 and the log is -inf; products in (0.5, 2) where log1p sees
# lo, and exactly 1, where the log is +0.0 (never -0.0, on which max and
# np.fmax could differ); subnormal factors
@example([
    (make_period(1.0, 1e308, 1e300, 1.0, 1), 1.0),
    (make_period(0.84, 1e295, 1e304, 3.39, 0), 1.0),
    (make_period(1e-300, 1e-300, 1.0, 1.0, 0), 1.0),
    (make_period(0.0, 20.0, 1.0, 1.0, 0), 1.0),
    (make_period(-0.0, 20.0, 1.0, 1.0, 0), 1.0),
    (make_period(0.5, -0.0, 1.0, 1.0, 0), 1.0),
    (make_period(0.79, 0.7297490976652409, 0.49, 3.54, 0), 1.0),  # lo moves z* by 2%
    (make_period(0.13, 2.5176436466784224, 2.387, 1.28, 0), 1.0),  # a negative lo
    (make_period(0.5, 2.0000000000000004, 1.0, 1.0, 0), 1.0),  # 1 + 2**-52
    (make_period(0.85, 0.4544397235995441, 0.98, 3.4, 0), 1.0),  # math.log1p is an ulp off
    (make_period(0.5, 2.0, 1.0, 1.0, 0), 1.0),
    (make_period(0.75, 2.0, 1.0, 1.0, 0), 1.0),  # 1.5
    (make_period(5e-324, 5e-324, 1e300, 1.0, 0), 1.0),
    (make_period(1e-310, 1e308, 1e10, 2.0, 1), 1.0),
    (make_period(1.0, 5e-324, 1e308, 1e300, 0), 1.0),
])
def test_one_period_views_are_rows_of_the_batch_call(pairs):
    """Each one-period view gives, bit for bit, row i of the batch kernel
    over the scenario of all periods, at the optimum and at any z, without
    a warning on either side of the view's overflow test."""
    ps = [p for p, _ in pairs]
    z = np.array([z for _, z in pairs])
    batch = Scenario("x", tuple(ps)).batch
    z_rows, table, breach_rows, ebis_rows = z_star(batch), _optima(batch)[0], breach(z, batch), ebis(z, batch)
    for i, p in enumerate(ps):
        assert type(closed_form_optimum(p)) is float
        assert type(z_star(PeriodBatch.one(p))) is float
        assert bits(closed_form_optimum(p)) == bits(z_rows[i])
        view_table = _optima(PeriodBatch.one(p))[0]
        assert view_table.shape == () and not view_table.flags.writeable
        assert bits(optimize_period(p).tolist()) == bits(table[i].tolist())
        at = float(z[i])
        assert bits(ebis_eval(at, p)) == bits(ebis_rows[i])
        assert bits(sbpf_eval(at, p.vulnerability, p.technology)) == bits(breach_rows[i])


@PROPERTY
@given(st.lists(st.tuples(regime_periods(), st.floats(0.0, 1e308)), min_size=1, max_size=12))
def test_enbis_is_the_left_to_right_sum(pairs):
    scenario = Scenario("x", tuple(p for p, _ in pairs))
    plan = InvestmentPlan(tuple(z for _, z in pairs))
    expected = left_to_right_net(plan, scenario)
    if math.isfinite(expected):
        assert enbis_eval(plan, scenario) == expected
    else:
        with pytest.raises(NumericError):
            enbis_eval(plan, scenario)


SWEEP_FIELDS = ("alpha", "beta", "vulnerability", "loss",
                "z_star_baseline", "z_star_disrupted", "shift_direction")


def axis(values):
    return st.lists(values, min_size=1, max_size=3)


@PROPERTY
@given(
    axis(st.one_of(alphas, st.floats(1e300, 1e308))),
    axis(st.one_of(betas, st.sampled_from([1.0, 2.0]))),
    axis(vulnerabilities),
    axis(st.one_of(losses, st.sampled_from([0.0, 2.0, 1e308]))),
)
def test_sweep_records_are_per_tuple_optima(alpha_axis, beta_axis, v_axis, loss_axis):
    rows = []
    for alpha, beta, v, loss in itertools.product(
        sorted(alpha_axis), sorted(beta_axis), sorted(v_axis), sorted(loss_axis)
    ):
        z0 = closed_form_optimum(make_period(v, loss, alpha, beta, 0))
        zd = closed_form_optimum(make_period(v, loss, alpha, beta, 1))
        if zd < z0 - SHIFT_TOLERANCE:
            direction = "left"
        elif zd > z0 + SHIFT_TOLERANCE:
            direction = "right"
        else:
            direction = "none"
        rows.append((alpha, beta, v, loss, z0, zd, direction))
    table = optimum_shift_sweep(alpha_axis, beta_axis, v_axis, loss_axis)
    assert table.dtype.names == SWEEP_FIELDS
    assert len(table) == len(rows)
    for name, column in zip(SWEEP_FIELDS, zip(*rows)):
        assert table[name].tolist() == list(column), name


def shift_rule(alpha, beta, v, loss):
    """The sign of z*_d - z*_0 in exact arithmetic: -1, 0 or 1.

    With P0 = alpha*k*v*L and P1 = alpha*(k+1)*v*L, both optima are 0 where
    P1 <= 1, and only z*_d is positive where P0 <= 1 < P1. Otherwise
    z* = ((alpha*k*v*L)**(1/(k+1)) - 1)/alpha, so z*_d > z*_0 exactly when
    log(P1)/(k+2) > log(P0)/(k+1), that is (k+1)*log((k+1)/k) > log(P0), or
    P0 < (1 + 1/k)**(k+1). The sweep's disrupted exponent is the float
    beta + 1.0; where that sum rounds, the first form is compared instead.
    """
    with mpmath.workdps(80):  # a product of four doubles is exact in 64 digits
        k, kd = mpmath.mpf(beta), mpmath.mpf(beta + 1.0)
        p0 = mpmath.mpf(alpha) * k * mpmath.mpf(v) * mpmath.mpf(loss)
        p1 = p0 * kd / k
        if p1 <= 1:
            return 0
        if p0 <= 1:
            return 1
        if kd == k + 1:
            return int(mpmath.sign((k + 1) * mpmath.log1p(1 / k) - mpmath.log(p0)))
        return int(mpmath.sign(mpmath.log(p1) / (kd + 1) - mpmath.log(p0) / (k + 1)))


def z_star_error_bound(alpha, k, v, loss):
    """The closed form's error bound at the exponent k: 16 (1 + t) 2**-53 of
    z*, with t = log(alpha*k*v*L)/(k+1), plus an ulp of 2**-1074."""
    with mpmath.workdps(50):
        alpha, k = mpmath.mpf(alpha), mpmath.mpf(k)
        t = max(mpmath.log(alpha * k * mpmath.mpf(v) * mpmath.mpf(loss)), 0) / (k + 1)
        return 16 * (1 + t) * mpmath.mpf(2) ** -53 * mpmath.expm1(t) / alpha + mpmath.mpf(2) ** -1074


def _near_the_threshold(alpha, beta, v, side, digits, disrupted_corner):
    """A tuple whose P0 lies a factor 1 +- 10**-digits from (1 + 1/k)**(k+1),
    or whose P1 lies that far from 1."""
    target = 1.0 / (1.0 + 1.0 / beta) if disrupted_corner else math.exp((beta + 1.0) * math.log1p(1.0 / beta))
    return alpha, beta, v, target * (1.0 + side * 10.0**-digits) / (alpha * beta * v)


shift_tuples = st.one_of(
    st.tuples(st.one_of(alphas, st.floats(1e300, 1e308)), st.one_of(betas, st.sampled_from([1.0, 2.0])),
              vulnerabilities, st.one_of(losses, st.sampled_from([0.0, 2.0, 1e308]))),
    st.builds(_near_the_threshold, st.floats(1e-3, 1e3), st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 50.0)),
              st.floats(0.01, 1.0), st.sampled_from([-1.0, 1.0]), st.floats(1.0, 16.0), st.booleans()),
)


@PROPERTY
@given(st.lists(shift_tuples, min_size=1, max_size=6))
def test_sweep_direction_is_the_shift_rule(tuples):
    """Wherever the two optima differ by more than SHIFT_TOLERANCE and their
    error bounds, the sweep's direction is the sign of the exact shift."""
    for alpha, beta, v, loss in tuples:
        row = optimum_shift_sweep([alpha], [beta], [v], [loss])[0]
        z0, zd = row.z_star_baseline, row.z_star_disrupted
        slack = z_star_error_bound(alpha, beta, v, loss) + z_star_error_bound(alpha, beta + 1.0, v, loss)
        if abs(zd - z0) > max(SHIFT_TOLERANCE, slack):
            assert row.shift_direction == ("none", "right", "left")[shift_rule(alpha, beta, v, loss)]


def exact_shift(alpha, beta, v, loss):
    """z*_d - z*_0 and the larger of the two, from the closed form
    ((alpha*k*v*L)**(1/(k+1)) - 1)/alpha (0 at the corner) in 60-digit
    arithmetic, at the sweep's exponents beta and the float beta + 1.0. The
    power less 1 is taken as expm1(log(P)/(k+1)), which keeps its 60 digits
    where a huge k puts the power within 1e-60 of 1."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)

        def optimum(k):
            p = a * k * mpmath.mpf(v) * mpmath.mpf(loss)
            return mpmath.expm1(mpmath.log(p) / (k + 1)) / a if p > 1 else mpmath.mpf(0)

        z0, zd = optimum(mpmath.mpf(beta)), optimum(mpmath.mpf(beta + 1.0))
        return zd - z0, max(z0, zd)


@settings(deadline=None, max_examples=200)
@given(shift_tuples)
def test_shift_rule_is_the_sign_of_the_exact_shift(t):
    """The rule's sign is that of z*_d - z*_0 wherever the 60-digit difference
    exceeds its rounding; draws near the threshold differ by about 1e-16 of z*."""
    shift, scale = exact_shift(*t)
    if scale == 0 or abs(shift) > scale * mpmath.mpf(10) ** -45:
        assert shift_rule(*t) == mpmath.sign(shift)


def sweep_axis(field, valid):
    """Axis values of which about three in four are valid: the others lie out
    of the field's range or are nan, +-inf, bools, ints beyond the float
    range, or no numbers at all."""
    invalid = st.one_of(OUT_OF_RANGE[field], st.sampled_from([*NON_FINITE, "1", None]))
    return axis(st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda values: values))


@PROPERTY
@given(
    sweep_axis("alpha", alphas),
    sweep_axis("beta", betas),
    sweep_axis("vulnerability", vulnerabilities),
    sweep_axis("loss", losses),
)
def test_sweep_raises_the_error_of_the_first_invalid_tuple(alpha_axis, beta_axis, v_axis, loss_axis):
    expected = None
    for alpha, beta, v, loss in itertools.product(alpha_axis, beta_axis, v_axis, loss_axis):
        try:
            make_period(v, loss, alpha, beta, 0)
        except DomainError as exc:
            expected = str(exc)
            break
    if expected is None:
        assert len(optimum_shift_sweep(alpha_axis, beta_axis, v_axis, loss_axis)) > 0
    else:
        with pytest.raises(DomainError) as info:
            optimum_shift_sweep(alpha_axis, beta_axis, v_axis, loss_axis)
        assert str(info.value) == expected


@PROPERTY
@given(periods)
def test_valid_period_gives_finite_optimum(p):
    rec = optimize_period(p)
    enbis = rec.ebis_at_optimum - rec.z_star
    for value in (rec.z_star, rec.breach_probability_at_optimum, rec.ebis_at_optimum, enbis):
        assert math.isfinite(value)
    assert rec.z_star >= 0.0


@PROPERTY
@given(periods)
def test_gordon_loeb_bound(p):
    # for k >= 1 the maximum of z*/(v*L) is about 0.344, below 1/e
    assert closed_form_optimum(p) <= p.vulnerability * p.loss / math.e


@PROPERTY
@given(periods)
def test_closed_form_against_mpmath(p):
    z = closed_form_optimum(p)
    with mpmath.workdps(50):
        exact = mp_z_star(p)
        alpha = mpmath.mpf(p.technology.alpha)
        k = mpmath.mpf(p.technology.beta) + p.technology.disruptive
        # a few ulps of alpha*k*v*L move z* by about eps/(alpha*(k+1)); the
        # rounded exponent 1/(k+1) costs eps per unit of log(alpha*z* + 1);
        # results below the smallest normal float are off by an ulp of 2**-1074
        bound = 16 * EPS * (
            exact * (1 + mpmath.log1p(alpha * exact)) + 1 / (alpha * (k + 1))
        ) + mpmath.mpf(2) ** -1074
        assert abs(z - exact) <= bound


@PROPERTY
@given(
    st.sampled_from([(1.0, 0), (1.0, 1), (2.0, 0), (3.0, 1), (4.0, 0)]),
    st.floats(1e-14, 1e3),
)
def test_closed_form_accurate_near_the_corner(tech, gap):
    beta, d = tech
    k = beta + d
    # v = 0.5 and loss = 2/k make alpha*k*v*loss == alpha exactly
    p = make_period(0.5, 2.0 / k, 1.0 + gap, beta, d)
    exact = mp_z_star(p)
    assert exact > 0
    assert abs(closed_form_optimum(p) - exact) <= 1e-14 * exact


@settings(deadline=None, max_examples=40)
@given(periods, st.floats(0.0, 1e300), st.floats(1e-300, 1e300))
def test_golden_section_terminates_inside_its_bracket(p, z_max, tol):
    assert 0.0 <= golden_section_optimum(p, z_max, tol) <= z_max


def scalar_row(z, *curves):
    """A curve CSV row from scalar evaluations: z, then EBIS and ENBIS per curve."""
    values = [z]
    for p in curves:
        ebis = ebis_eval(z, p)
        values += [ebis, ebis - z]
    return ",".join(fmt(x) for x in values)


@PROPERTY
@given(
    periods,
    st.floats(0.0, 1e6),
    st.floats(1e-6, 1e12),
    st.integers(2, 40),
    st.booleans(),
)
def test_curve_rows_match_scalar_evaluation(p, z_min, width, steps, include_disrupted):
    z_max = z_min + width
    assume(z_min < z_max)
    curves = [p]
    if include_disrupted:
        curves.append(make_period(p.vulnerability, p.loss, p.technology.alpha,
                                  p.technology.beta, 1))
    rows = emit_curve_csv(p, z_min, z_max, steps, include_disrupted).splitlines()
    grid = np.linspace(z_min, z_max, steps + 1).tolist()
    assert rows[1:len(grid) + 1] == [scalar_row(z, *curves) for z in grid]


LARGEST = 1.7976931348623157e308


@PROPERTY
@given(
    st.sampled_from([0.0, 5e-324]) | st.floats(5e-324, 1e-300) | st.floats(0.0, 1e300),
    st.floats(5e-324, LARGEST),
    st.integers(2, 2000),
    st.integers(0, 2**32),
)
@example(0.0, 5e-324, 3, 0)  # a step that underflows to 0
@example(1e-310, 1e-321, 1000, 1)  # and above a z_min
@example(0.0, LARGEST, 3, 2)  # the last step * index overflows
@example(1e300, LARGEST, 10**6, 3)
@example(0.0, 1.0, 10**6, 4)
@example(5e-324, 1e-300, 10**6, 5)
def test_curve_grid_is_numpys_linspace(z_min, span, steps, seed):
    """The curve grid is np.linspace bit for bit, and ``_grid_points``, which
    the grid oracle also forms its points with, gives its points at any
    ascending indices that end at ``steps``."""
    z_max = min(z_min + span, LARGEST)
    assume(z_min < z_max)
    with np.errstate(over="ignore"):
        expected = np.linspace(z_min, z_max, steps + 1)
    assert _z_grid(z_min, z_max, steps).tobytes() == expected.tobytes()
    rng = np.random.default_rng(seed)
    i = np.union1d(rng.choice(steps + 1, min(steps, 100), replace=False), [steps])
    assert _grid_points(i, z_min, z_max, steps).tobytes() == expected[i].tobytes()


@PROPERTY
@given(
    vulnerabilities, losses, alphas, betas, alphas, betas,
    st.lists(st.floats(0.0, 1e12), max_size=30),
    st.integers(0, 40),
)
def test_mix_rows_match_scalar_evaluation(v, loss, alpha, beta, alpha_post, beta_post,
                                          grid, switch_index):
    pre = make_period(v, loss, alpha, beta, 0)
    post = make_period(v, loss, alpha_post, beta_post, 1)
    rows = emit_mix_csv(pre, post, switch_index, grid).splitlines()
    expected = []
    for i, z in enumerate(grid):
        branch, p = ("pre", pre) if i < switch_index else ("post", post)
        expected.append(f"{i},{branch},{fmt(z)},{fmt(ebis_eval(z, p))}")
    assert rows[1:] == expected


def per_point_svg(z, *columns, width=640, height=480):
    """The per-point renderer that ``render_curve_svg`` replaced: every column
    against ``z``, one Python expression per point."""
    xs = [float(x) for x in z]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    margin = 40.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    for col, column in enumerate(columns):
        ys = [float(y) for y in column]
        y_lo, y_hi = min(ys), max(ys)
        y_span = (y_hi - y_lo) or 1.0
        pts = " ".join(
            f"{margin + (x - x_lo) / x_span * (width - 2 * margin):.2f},"
            f"{height - margin - (y - y_lo) / y_span * (height - 2 * margin):.2f}"
            for x, y in zip(xs, ys)
        )
        color = colors[col % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# raw floats: -0.0 and -1e-9 next to 0.0, (k + 0.5) / 1e6 halfway between
# 6-decimal values, and magnitudes up to 1e12
raw_floats = st.one_of(
    st.floats(-1e9, 1e9),
    st.floats(-1e12, 1e12),
    st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, 5e-7, -5e-7]),
)


@st.composite
def svg_column(draw, extent, rows):
    """``rows`` floats: arbitrary ones, one repeated value (span 1.0), or 0,
    ``extent`` and values k/100 + 0.005, which put the plotted coordinate
    next to a rounding boundary of ``%.2f``."""
    kind = draw(st.sampled_from(["floats", "constant", "boundary"]))
    if kind == "floats":
        return draw(st.lists(raw_floats, min_size=rows, max_size=rows))
    if kind == "constant":
        return [draw(raw_floats)] * rows
    ks = draw(st.lists(st.integers(0, extent * 100 - 1), min_size=rows - 2, max_size=rows - 2))
    return [0.0, float(extent), *(k / 100 + 0.005 for k in ks)]


@PROPERTY
@given(st.integers(1, 4), st.integers(2, 30), st.data())
def test_svg_equals_the_per_point_renderer(curves, rows, data):
    # 560 and 400 are the plot's width and height inside the margins
    z, *columns = [data.draw(svg_column(extent, rows)) for extent in [560] + [400] * curves]
    expected = per_point_svg(z, *columns)
    assert render_curve_svg(np.array(z), [np.array(c) for c in columns]) == expected


printed_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # up to the largest float
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.integers(-2**53, 2**53).map(lambda k: (k + 0.5) / 1e6),
    st.integers(-2**62, 2**62).map(lambda k: k * 2.0**-27),
    st.floats(1e9, 1e10) | st.floats(-1e10, -1e9),
    st.integers(-2**24, 2**24).map(lambda k: 2.0**33 + k * 2.0**-20),
    st.floats(-1e-6, 0.0) | st.just(-1e-9),
)


def cycled(values, rows, shift):
    """``values`` repeated to ``rows`` entries, from entry ``shift`` on."""
    return [values[(i + shift) % len(values)] for i in range(rows)]


# no NUL: a label may not hold one (see fmt_rows)
labels = st.text(st.characters(exclude_characters="\0"), max_size=6)
EDGE_FLOATS = [-0.0, -1e-9, 2.0**33, np.nextafter(2.0**33, 0), 123456.5 / 1e6, 1.7976931348623157e308]
ROW = "[%d] %s|%.6f,%.2f;"
# the rows of one fmt_rows block of ROW
BLOCK = next(fmt_rows(ROW, [range(10**5), ["x"] * 10**5, [0.0] * 10**5, [0.0] * 10**5])).count("\n")


@PROPERTY
@given(
    st.sampled_from([-1, 0, 1]),
    st.lists(printed_floats, min_size=1, max_size=40),
    st.lists(printed_floats, min_size=1, max_size=40),
    st.lists(labels, min_size=1, max_size=5),
    st.tuples(*[st.integers(0, 2 * BLOCK)] * 3),
)
@example(1, EDGE_FLOATS, EDGE_FLOATS[::-1], ["pre", "post", "é", "\ud800"], (0, 3, 1))
def test_fmt_rows_lines_are_the_row_format(extra, sixes, twos, names, shifts):
    # one row short of a block, a block, and one row over; each column starts
    # its cycle at its own shift, so every value can sit at a block's edge
    rows = BLOCK + extra
    columns = [
        range(rows),
        cycled(names, rows, shifts[0]),
        np.array(cycled(sixes, rows, shifts[1])),
        cycled(twos, rows, shifts[2]),
    ]
    # fmt's -0.0 normalization, as the writer applies it to every float
    text, at = "".join(fmt_rows(ROW, columns)), 0
    for i, name, a, b in zip(*columns):  # line by line, so a failure shows one line
        line = ROW % (i, name, a + 0.0, b + 0.0) + "\n"
        assert text[at : at + len(line)] == line
        at += len(line)
    assert at == len(text)


@PROPERTY
@given(invalid_fields())
def test_invalid_period_raises_model_error(bad):
    field, value = bad
    kwargs = dict(VALID, **{field: value})
    with pytest.raises(ModelError):
        make_period(**kwargs)


@PROPERTY
@given(st.sampled_from(NON_FINITE) | st.floats(max_value=-1e-300))
def test_invalid_plan_raises_model_error(value):
    with pytest.raises(ModelError):
        InvestmentPlan((1.0, value))


FIELDS = list(VALID)
valid_values = {
    "vulnerability": st.one_of(vulnerabilities, st.sampled_from([0, 1])),
    "loss": st.one_of(losses, st.integers(0, 10**300)),
    # beta = 2**53 + 1 with the dummy sums exactly to 2**53 + 2 before rounding
    "alpha": st.one_of(alphas, st.integers(1, 2**64)),
    "beta": st.one_of(betas, st.integers(1, 2**64), st.just(2**53 + 1)),
    "disruptive": dummies,
}
not_numbers = st.sampled_from(["0.5", None, [1], {}])


@st.composite
def faulty_entry(draw, entry):
    """``entry`` with one or two fields out of the domain, or not an object
    with exactly the period fields."""
    kind = draw(st.sampled_from(["value", "values", "not-object", "missing", "unknown"]))
    if kind == "not-object":
        return draw(st.sampled_from([[], "x", 1, None, [entry]]))
    entry = dict(entry)
    if kind == "missing" or kind == "unknown":
        if kind == "unknown" or draw(st.booleans()):
            entry["discount"] = 0.9
        if kind == "missing" or draw(st.booleans()):
            del entry[draw(st.sampled_from(FIELDS))]
        return entry
    for _ in range(1 if kind == "value" else 2):
        field, value = draw(invalid_fields())
        entry[field] = draw(st.one_of(st.just(value), not_numbers))
    return entry


@st.composite
def scenario_documents(draw):
    """Valid periods (floats and ints), up to three of them made faulty at
    random indices."""
    valid = draw(st.lists(st.fixed_dictionaries(valid_values), min_size=1, max_size=8))
    entries = list(valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = draw(faulty_entry(valid[i]))
    return json.dumps({"label": "x", "periods": entries})


def per_period_parse(document):
    """The per-period parser that ``parse_scenario`` replaced, for documents
    whose top level is valid: every entry built through the domain types."""
    periods = []
    for i, entry in enumerate(json.loads(document)["periods"]):
        where = f"periods[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object")
        unknown = set(entry) - set(FIELDS)
        if unknown:
            raise ParseError(f"{where} has unknown fields: {sorted(unknown)}")
        missing = set(FIELDS) - set(entry)
        if missing:
            raise ParseError(f"{where} is missing fields: {sorted(missing)}")
        try:
            tech = TechnologyProfile(entry["alpha"], entry["beta"], entry["disruptive"])
            periods.append(PeriodSpec(entry["vulnerability"], entry["loss"], tech))
        except ModelError as exc:
            raise ParseError(f"{where}.{exc}") from exc
    return Scenario("x", tuple(periods))


@settings(deadline=None, max_examples=400)
@given(scenario_documents())
def test_columnar_parse_equals_the_per_period_parser(document):
    try:
        expected = per_period_parse(document)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_scenario(document)
        assert str(info.value) == str(exc)
        return
    scenario = parse_scenario(document)
    assert scenario == expected and scenario.periods == expected.periods
    # ints stay ints, and -0.0 stays -0.0
    assert [list(map(type, c)) for c in scenario.columns] == [list(map(type, c)) for c in expected.columns]
    assert json.dumps(scenario.columns) == json.dumps(expected.columns)
    periods = expected.periods
    reference = [
        [p.technology.alpha for p in periods],
        [p.technology.exponent for p in periods],
        [p.vulnerability for p in periods],
        [p.loss for p in periods],
    ]
    for got, values in zip(scenario.batch, reference):
        assert got.tobytes() == np.array(values, dtype=float).tobytes()


@PROPERTY
@given(invalid_fields())
def test_invalid_document_raises_field_addressed_parse_error(bad):
    field, value = bad
    document = json.dumps({"label": "x", "periods": [VALID, dict(VALID, **{field: value})]})
    with pytest.raises(ParseError) as info:
        parse_scenario(document)
    assert str(info.value).startswith(f"periods[1].{field} ")


def run(argv):
    """run_cli with its output captured; an exception from it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def assert_rejected(argv):
    """The call exits 1 with an error and prints no non-finite value; returns its stderr."""
    code, out, err = run(argv)
    assert code == 1, (argv, out, err)
    assert err.startswith("error: "), (argv, err)
    assert "nan" not in out and "inf" not in out
    return err


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenarios")


@pytest.fixture(scope="module")
def valid_scenario(scenario_dir):
    path = scenario_dir / "valid.json"
    path.write_text(json.dumps({"label": "x", "periods": [VALID]}))
    return str(path)


BAD_FLAG_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "9" * 400])
RANGE_FLAGS = {
    "--vulnerability": OUT_OF_RANGE["vulnerability"],
    "--loss": OUT_OF_RANGE["loss"],
    "--alpha": OUT_OF_RANGE["alpha"],
    "--beta": OUT_OF_RANGE["beta"],
}
PERIOD_FLAGS = {"--vulnerability": "0.5", "--loss": "100", "--alpha": "1", "--beta": "1"}


def argv_for(command, flags):
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]


CURVE_FLAGS = [*RANGE_FLAGS, "--z-min", "--z-max"]
CURVE_CASES = [("curve", flag) for flag in CURVE_FLAGS] + [
    ("mix-curve", flag) for flag in [*CURVE_FLAGS, "--alpha-post", "--beta-post"]
]


@CLI_PROPERTY
@given(st.sampled_from(CURVE_CASES), st.data())
def test_cli_rejects_bad_curve_flags(case, data):
    command, flag = case
    out_of_range = RANGE_FLAGS.get(flag.removesuffix("-post"))
    bad = BAD_FLAG_VALUES
    if out_of_range is not None:
        bad = st.one_of(bad, out_of_range.map(repr))
    flags = dict(PERIOD_FLAGS, **{"--steps": "4", flag: data.draw(bad)})
    if command == "mix-curve":
        flags["--switch-index"] = "2"
    err = assert_rejected(argv_for(command, flags))
    if flag.endswith("-post"):  # the error names the flag, not the pre-switch value
        assert err.startswith(f"error: {flag[2:].replace('-', '_')} "), err


@CLI_PROPERTY
@given(st.sampled_from(list(RANGE_FLAGS)), st.data())
def test_cli_rejects_bad_sweep_lists(flag, data):
    value = data.draw(st.one_of(BAD_FLAG_VALUES, RANGE_FLAGS[flag].map(repr)))
    assert_rejected(argv_for("sweep", {flag: f"1,{value}"}))


@CLI_PROPERTY
@given(
    st.sampled_from(["--plan-a", "--plan-b", "--threshold"]),
    st.one_of(BAD_FLAG_VALUES, st.floats(max_value=-1e-300).map(repr)),
)
def test_cli_rejects_bad_delta_z_flags(valid_scenario, flag, value):
    argv = ["delta-z", valid_scenario, valid_scenario, f"{flag}={value}"]
    assert_rejected(argv)


@CLI_PROPERTY
@given(invalid_fields())
def test_cli_rejects_bad_scenario_files(scenario_dir, bad):
    field, value = bad
    path = scenario_dir / "invalid.json"
    path.write_text(json.dumps({"label": "x", "periods": [dict(VALID, **{field: value})]}))
    assert_rejected(["optimize", str(path)])


@CLI_PROPERTY
@given(vulnerabilities, losses, alphas, betas, st.integers(2, 5))
def test_cli_curve_output_is_finite(v, loss, alpha, beta, steps):
    flags = {"--vulnerability": repr(v), "--loss": repr(loss), "--alpha": repr(alpha),
             "--beta": repr(beta), "--steps": str(steps)}
    code, out, err = run(argv_for("curve", flags) + ["--include-disrupted"])
    if code == 0:
        assert "nan" not in out and "inf" not in out
    else:  # only the default grid [0, v*L] can be empty
        assert v * loss == 0.0 and err.startswith("error: ")


# losses up to 1e300 give totals from 2**52 / 1e6 on, which fmt_rows prints by %
delta_z_periods = st.builds(make_period, vulnerabilities, st.one_of(st.floats(0.0, 1e3), st.floats(1e12, 1e300)),
                            st.floats(1e-3, 1e3), st.floats(1.0, 10.0), dummies)


def period_file(path, periods):
    rows = [dict(zip(VALID, row)) for row in zip(*Scenario("x", periods).columns)]
    path.write_text(json.dumps({"label": "x", "periods": rows}))
    return str(path)


@CLI_PROPERTY
@given(
    st.lists(st.tuples(delta_z_periods, delta_z_periods, st.floats(0.0, 1e300), st.floats(0.0, 1e3)),
             min_size=1, max_size=4),
    st.sampled_from(["plans", "twin", "optimize"]),
    st.floats(0.0, 1.0),
)
@example([(make_period(0.5, 1e300, 1.0, 1.0, 0), make_period(0.5, 1e12, 1.0, 1.0, 1), 3e299, 1.0)], "plans", 0.1)
@example([(make_period(0.5, 100.0, 1.0, 1.0, 0), make_period(0.5, 1.0, 1.0, 1.0, 0), 1.0, 1.0)], "twin", 0.1)
def test_delta_z_lines_are_the_report_fields(scenario_dir, rows, mode, threshold):
    periods_a = [a for a, _, _, _ in rows]
    # "twin": B is A with each loss one ulp up, at the same plan, so delta_z is a tiny
    # negative (or zero) that prints as -0.000000
    periods_b = ([PeriodSpec(a.vulnerability, math.nextafter(a.loss, math.inf), a.technology)
                  for a in periods_a] if mode == "twin" else [b for _, b, _, _ in rows])
    plan_a = InvestmentPlan(tuple(z for _, _, z, _ in rows))
    plan_b = plan_a if mode == "twin" else InvestmentPlan(tuple(z for _, _, _, z in rows))
    if mode == "optimize":
        plan_a, plan_b = (optimize_scenario(Scenario("x", ps)).plan for ps in (periods_a, periods_b))
        flags = ["--optimize"]
    else:
        flags = [f"--plan-{n}={','.join(map(repr, plan.amounts))}" for n, plan in zip("ab", (plan_a, plan_b))]
    a, b = period_file(scenario_dir / "a.json", periods_a), period_file(scenario_dir / "b.json", periods_b)
    code, out, err = run(["delta-z", a, b, *flags, f"--threshold={threshold!r}"])
    try:
        report = delta_z(Scenario("x", periods_a), plan_a, Scenario("x", periods_b), plan_b, threshold)
    except ModelError as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
        return
    flag = "true" if report.classified_disruptive else "false"
    assert out == (f"delta_z={fmt(report.delta_z)}\nenbis_a={fmt(report.enbis_a)}\n"
                   f"enbis_b={fmt(report.enbis_b)}\nperiod_count={report.period_count}\n"
                   f"classified_disruptive={flag}\nthreshold={fmt(report.threshold_used)}\n")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["curve", "--include-disrupted"],
    ["curve", "--include-disrupted", "--loss=0", "--z-max=3"],  # constant EBIS columns
    *(["mix-curve", "--alpha-post=2", f"--switch-index={i}"] for i in (0, 5, 50)),
    ["mix-curve", "--switch-index=5", "--loss=0", "--z-max=3"],
])
def test_cli_svg_equals_the_per_point_renderer_of_its_csv(tmp_path, argv):
    svg = tmp_path / "out.svg"
    code, out, err = run(argv_for(argv[0], PERIOD_FLAGS) + argv[1:] + ["--steps=10", f"--svg={svg}"])
    assert (code, err) == (0, "")
    # the arrays behind the CSV's drawn columns, from the library
    flags = dict(PERIOD_FLAGS, **dict(arg.split("=") for arg in argv[1:] if "=" in arg))
    loss = float(flags["--loss"])
    z = np.linspace(0.0, float(flags.get("--z-max", 0.5 * loss)), 11)
    if argv[0] == "curve":  # each curve's ebis and enbis, without and with the dummy
        curves = [ebis_eval(z, make_period(0.5, loss, 1.0, 1.0, d)) for d in (0, 1)]
        columns = [column for curve in curves for column in (curve, curve - z)]
    else:
        pre = make_period(0.5, loss, 1.0, 1.0, 0)
        post = make_period(0.5, loss, float(flags.get("--alpha-post", 1)), 1.0, 1)
        columns = [ebis_mix_curve(pre, post, int(flags["--switch-index"]), z)]
    assert svg.read_text() == per_point_svg(z, *columns)
