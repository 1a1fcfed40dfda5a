"""Property tests over the whole input domain.

Valid finite inputs give finite results, the closed form matches a 50-digit
reference, the Gordon-Loeb bound z* <= v*L/e holds, the scenario optimum,
scenario total and sweep equal their per-period scalar forms (at and near the
corner and where alpha*k*v*L overflows), every row of the whole-grid curve
CSVs equals the one formatted from scalar evaluations, and every invalid
input (nan, +-inf, bools, 400-digit ints, out-of-range values) fails with a
ModelError subclass, in the library and through the CLI.
The array SVG renderer draws what a per-point reference renderer draws from
the CSV of the same floats, in the library and through the CLI, the table
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
    ebis_eval,
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
from secinvest.scenario_io import _as_printed, fmt, fmt_rows

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
    assert result.per_period.tolist() == [optimize_period(p).item() for p in ps]
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


def per_point_svg(csv_text, width=640, height=480):
    """The per-point renderer that ``render_curve_svg`` replaced: every column
    after the first against the first, one Python expression per point."""
    rows = [
        line.split(",")
        for line in csv_text.splitlines()
        if line and not line.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    xs = [float(r[0]) for r in data]
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0
    margin = 40.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    colors = ["#1f77b4", "#2ca02c", "#d62728", "#9467bd"]
    for col in range(1, len(header)):
        ys = [float(r[col]) for r in data]
        y_lo, y_hi = min(ys), max(ys)
        y_span = (y_hi - y_lo) or 1.0
        pts = " ".join(
            f"{margin + (x - x_lo) / x_span * (width - 2 * margin):.2f},"
            f"{height - margin - (y - y_lo) / y_span * (height - 2 * margin):.2f}"
            for x, y in zip(xs, ys)
        )
        color = colors[(col - 1) % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def csv_of(z, columns):
    """The curve CSV that ``fmt`` makes from ``z`` and ``columns``."""
    header = ",".join(["z", *(f"c{i}" for i in range(len(columns)))])
    body = [",".join(map(fmt, row)) for row in zip(z, *columns)]
    return "\n".join([header, *body, "# z_star_0=1.000000"]) + "\n"


# raw floats: -1e-9 prints as -0.000000, (k + 0.5) / 1e6 lies next to a
# half of the sixth decimal, and 1e9-1e12 is where _as_printed falls back
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
    expected = per_point_svg(csv_of(z, columns))
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


@PROPERTY
@given(st.lists(printed_floats, min_size=1, max_size=40))
@example([-0.0, -1e-9, 5e-7, -5e-324, 2.0**33, np.nextafter(2.0**33, 0), 1.7976931348623157e308])
def test_as_printed_is_the_value_its_cell_reads_back(values):
    expected = np.array([float(fmt(v)) for v in values])
    # bitwise, so -0.0 (from -1e-9) and 0.0 (from -0.0) count as different
    assert _as_printed(np.array(values)).view(np.int64).tolist() == expected.view(np.int64).tolist()


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


def csv_cells_from(csv_text, first):
    """The curve CSV with the columns ahead of ``first`` dropped."""
    return "\n".join(",".join(line.split(",")[first:]) for line in csv_text.splitlines()) + "\n"


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
    # index and branch, the columns ahead of a mix CSV's z, are not drawn
    first = 2 if argv[0] == "mix-curve" else 0
    assert svg.read_text() == per_point_svg(csv_cells_from(out, first))
