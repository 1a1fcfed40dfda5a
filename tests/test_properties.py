"""Property tests over the whole input domain.

Valid finite inputs give finite results, the closed form matches a 50-digit
reference, the Gordon-Loeb bound z* <= v*L/e holds, the scenario optimum,
scenario total and sweep equal their per-period scalar forms (at and near the
corner and where alpha*k*v*L overflows), every row of the whole-grid curve
CSVs equals the one formatted from scalar evaluations, and every invalid
input (nan, +-inf, bools, 400-digit ints, out-of-range values) fails with a
ModelError subclass, in the library and through the CLI.
"""

import contextlib
import io
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secinvest import (
    InvestmentPlan,
    ModelError,
    NumericError,
    ParseError,
    PeriodSpec,
    Scenario,
    SweepRecord,
    TechnologyProfile,
    closed_form_optimum,
    ebis_eval,
    emit_curve_csv,
    emit_mix_csv,
    enbis_eval,
    golden_section_optimum,
    optimize_period,
    optimize_scenario,
    optimum_shift_sweep,
    parse_scenario,
    run_cli,
    sbpf_eval,
)
from secinvest.analysis import SHIFT_TOLERANCE
from secinvest.scenario_io import fmt

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
    with an overflowing product alpha*k*v*L = inf, or anywhere."""
    regime = draw(st.sampled_from(["corner", "near", "overflow", "any"]))
    if regime == "any":
        return draw(periods)
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
        scale = (1.0 + 1e-10) if regime == "near" else draw(st.floats(0.0, 1.0))
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
    assert result.per_period == tuple(map(optimize_period, ps))
    for r, p in zip(result.per_period, ps):
        assert r.breach_probability_at_optimum == sbpf_eval(
            r.z_star, p.vulnerability, p.technology)
        assert r.ebis_at_optimum == ebis_eval(r.z_star, p)
    assert result.plan.amounts == tuple(r.z_star for r in result.per_period)
    assert result.enbis_total == expected


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
    expected = []
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
        expected.append(SweepRecord(alpha, beta, v, loss, z0, zd, direction))
    assert optimum_shift_sweep(alpha_axis, beta_axis, v_axis, loss_axis) == expected


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
    code, out, err = run(argv)
    assert code == 1, (argv, out, err)
    assert err.startswith("error: "), (argv, err)
    assert "nan" not in out and "inf" not in out


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
    assert_rejected(argv_for(command, flags))


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
