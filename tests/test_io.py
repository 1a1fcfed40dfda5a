import json
import warnings

import numpy as np
import pytest

from secinvest import (
    ContractError,
    DomainError,
    ParseError,
    PeriodSpec,
    TechnologyProfile,
    ebis_eval,
    ebis_mix_curve,
    emit_curve_csv,
    emit_mix_csv,
    parse_scenario,
    render_curve_svg,
)
from secinvest.model import PERIOD_FIELDS
from secinvest.scenario_io import _curve_table, _z_grid, fmt

MINIMAL = """
{
  "label": "one",
  "periods": [
    {"vulnerability": 0.5, "loss": 100, "alpha": 1, "beta": 1, "disruptive": 0}
  ]
}
"""


def period(d=0, alpha=1.0, beta=1.0):
    return PeriodSpec(0.5, 100.0, TechnologyProfile(alpha, beta, d))


class TestParseScenario:
    def test_minimal_round_trip(self):
        sc = parse_scenario(MINIMAL)
        assert sc.label == "one"
        assert sc.horizon == 1
        p = sc.periods[0]
        assert (p.vulnerability, p.loss) == (0.5, 100)
        assert (p.technology.alpha, p.technology.beta, p.technology.disruptive) == (
            1,
            1,
            0,
        )
        document = {"label": sc.label, "periods": [dict(zip(PERIOD_FIELDS, row)) for row in zip(*sc.columns)]}
        again = parse_scenario(json.dumps(document))
        assert again == sc
        types = [[list(map(type, column)) for column in s.columns] for s in (again, sc)]
        assert types == [[[float], [int], [int], [int], [int]]] * 2  # ints stay ints

    def test_bad_beta_is_field_addressed(self):
        doc = MINIMAL.replace('"beta": 1', '"beta": 0.5')
        with pytest.raises(ParseError, match=r"periods\[0\]\.beta"):
            parse_scenario(doc)

    def test_bad_dummy(self):
        doc = MINIMAL.replace('"disruptive": 0', '"disruptive": 2')
        with pytest.raises(ParseError, match="dummy"):
            parse_scenario(doc)

    def test_unknown_field_rejected(self):
        doc = MINIMAL.replace('"loss": 100', '"loss": 100, "discount": 0.9')
        with pytest.raises(ParseError, match="unknown"):
            parse_scenario(doc)

    def test_syntax_error_is_position_addressed(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario('{"label": "x", }')

    def test_empty_periods_rejected(self):
        with pytest.raises(ParseError, match="at least one"):
            parse_scenario('{"label": "x", "periods": []}')


class TestCurveCsv:
    def test_grid_rows(self):
        out = emit_curve_csv(period(), 0.0, 2.0, 2)
        lines = out.splitlines()
        assert lines[0] == "z,ebis_0,enbis_0"
        assert [ln.split(",")[0] for ln in lines[1:4]] == [
            "0.000000",
            "1.000000",
            "2.000000",
        ]
        assert lines[4].startswith("# z_star_0=")

    def test_zero_row(self):
        out = emit_curve_csv(period(), 0.0, 2.0, 2)
        assert out.splitlines()[1] == "0.000000,0.000000,0.000000"

    def test_disrupted_columns_hand_values(self):
        out = emit_curve_csv(period(), 0.0, 2.0, 2, include_disrupted=True)
        lines = out.splitlines()
        assert lines[0] == "z,ebis_0,enbis_0,ebis_d,enbis_d"
        row = lines[2].split(",")
        assert row[1] == "25.000000"
        assert row[3] == "37.500000"

    def test_byte_stable(self):
        a = emit_curve_csv(period(), 0.0, 5.0, 10, include_disrupted=True)
        b = emit_curve_csv(period(), 0.0, 5.0, 10, include_disrupted=True)
        assert a == b
        assert "\r" not in a

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError, match="z_min"):
            emit_curve_csv(period(), 2.0, 1.0, 10)
        with pytest.raises(DomainError, match="steps"):
            emit_curve_csv(period(), 0.0, 1.0, 1)

    def test_steps_limit_is_one_million(self):
        assert len(_z_grid(0.0, 1.0, 10**6)) == 10**6 + 1
        with pytest.raises(DomainError, match="steps <= 1000000"):
            _z_grid(0.0, 1.0, 10**6 + 1)


class TestMixCsv:
    def test_branch_column(self):
        out = emit_mix_csv(period(), period(d=1), 2, [0.0, 0.5, 1.0, 1.5])
        lines = out.splitlines()
        assert lines[0] == "index,branch,z,ebis"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["pre", "pre", "post", "post"]

    def test_jump_at_switch_matches_dominance_gap(self):
        from secinvest import ebis_eval

        out = emit_mix_csv(period(), period(d=1), 2, [0.0, 1.0, 1.0, 2.0])
        lines = out.splitlines()
        pre_val = float(lines[2].split(",")[3])
        post_val = float(lines[3].split(",")[3])
        gap = ebis_eval(1.0, period(d=1)) - ebis_eval(1.0, period())
        assert post_val - pre_val == pytest.approx(gap, abs=1e-6)


class TestMixCsvEdges:
    @pytest.mark.parametrize(
        "switch_index, grid",
        [(0, [0.0, 0.5, 1.0]), (7, [0.0, 0.5, 1.0]), (0, []), (3, [])],
    )
    def test_rows_equal_per_row_fmt(self, switch_index, grid):
        pre, post = period(), period(d=1)
        expected = ["index,branch,z,ebis"]
        for i, z in enumerate(grid):
            branch, p = ("pre", pre) if i < switch_index else ("post", post)
            expected.append(f"{i},{branch},{fmt(z)},{fmt(ebis_eval(z, p))}")
        assert emit_mix_csv(pre, post, switch_index, grid) == "\n".join(expected) + "\n"


class TestSvg:
    def test_polylines_per_column(self):
        _, _, (grid, *columns), _ = _curve_table(period(), 0.0, 5.0, 10, include_disrupted=True)
        svg = render_curve_svg(grid, columns)
        assert svg.count("<polyline") == 4
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("z, column", [
        ([0.0, 1.0, 2.0], [-1.7e308, 0.0, 1.7e308]),
        ([-1.7e308, 0.0, 1.7e308], [0.0, 1.0, 2.0]),
    ])
    def test_a_span_beyond_the_largest_float_is_drawn(self, z, column):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            svg = render_curve_svg(z, [column])
        assert 'points="40.00,440.00 320.00,240.00 600.00,40.00"' in svg


@pytest.mark.parametrize(
    "z, columns, error, message",
    [
        pytest.param([], [], DomainError, "z must be a nonempty 1-D sequence of numbers, got shape (0,)",
                     id="empty-z"),
        pytest.param(1.0, [], DomainError, "z must be a nonempty 1-D sequence of numbers, got shape ()",
                     id="scalar-z"),
        pytest.param([0.0, 1.0], [[1.0, 2.0], [1.0, 2.0, 3.0]], ContractError,
                     "columns[1] must have the shape of z (2,), got (3,)", id="column-length"),
        pytest.param([0.0, "1"], [[1.0, 2.0]], DomainError, "z must be a finite number, got '1'", id="string-z"),
        pytest.param([0.0, 1.0], [[1.0, "x"]], DomainError, "columns[0] must be a finite number, got 'x'",
                     id="string-column"),
        pytest.param([0.0, 1.0], [[1.0, float("nan")]], DomainError, "columns[0] must be a finite number, got nan",
                     id="nan-column"),
        pytest.param(np.array([0.0, np.inf]), [[1.0, 2.0]], DomainError, "z must be a finite number, got inf",
                     id="inf-z"),
        pytest.param([0.0, 1.0], [np.array([1.0, -np.inf])], DomainError,
                     "columns[0] must be a finite number, got -inf", id="inf-column"),
    ],
)
def test_svg_inputs_are_checked(z, columns, error, message):
    with pytest.raises(error) as info:
        render_curve_svg(z, columns)
    assert str(info.value) == message


VALID_PERIODS = '[{"vulnerability": 0.5, "loss": 1, "alpha": 1, "beta": 1, "disruptive": 0}]'


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: parse_scenario("[]"), ParseError, "top-level value must be an object", id="not-object"),
        pytest.param(lambda: parse_scenario('{"label": "x", "periods": %s, "seed": 1}' % VALID_PERIODS),
                     ParseError, "unknown top-level fields: ['seed']", id="unknown-field"),
        pytest.param(lambda: parse_scenario('{"periods": %s}' % VALID_PERIODS),
                     ParseError, "label must be present and a string", id="label-missing"),
        pytest.param(lambda: parse_scenario('{"label": 1, "periods": %s}' % VALID_PERIODS),
                     ParseError, "label must be present and a string", id="label-not-str"),
        pytest.param(lambda: parse_scenario('{"label": "x"}'),
                     ParseError, "periods must be present and a list", id="periods-missing"),
        pytest.param(lambda: parse_scenario('{"label": "x", "periods": {}}'),
                     ParseError, "periods must be present and a list", id="periods-not-list"),
        pytest.param(lambda: ebis_mix_curve(period(), period(alpha=2.0), 1, [0.0, 1.0]),
                     ContractError, "post-switch technology must have disruptive=1", id="post-not-disruptive"),
    ],
)
def test_document_and_switch_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestParseDomain:
    @pytest.mark.parametrize(
        "field, raw, message",
        [
            ("beta", "0.5", "periods[0].beta must be >= 1, got 0.5"),
            ("alpha", "0", "periods[0].alpha must be > 0, got 0"),
            ("vulnerability", "1.5", "periods[0].vulnerability must lie in [0, 1], got 1.5"),
            ("loss", "-1", "periods[0].loss must be >= 0, got -1"),
            ("disruptive", "2", "periods[0].disruptive must be the dummy 0 or 1, got 2"),
            ("disruptive", "1.0", "periods[0].disruptive must be the dummy 0 or 1, got 1.0"),
            ("disruptive", "true", "periods[0].disruptive must be the dummy 0 or 1, got True"),
            ("loss", "Infinity", "periods[0].loss must be a finite number, got inf"),
            ("alpha", "NaN", "periods[0].alpha must be a finite number, got nan"),
            ("beta", "-Infinity", "periods[0].beta must be a finite number, got -inf"),
            ("vulnerability", "true", "periods[0].vulnerability must be a finite number, got True"),
            ("loss", '"100"', "periods[0].loss must be a finite number, got '100'"),
            pytest.param(
                "loss",
                "9" * 400,
                f"periods[0].loss must be a finite number, got {'9' * 400}",
                id="loss-400-digits",
            ),
        ],
    )
    def test_field_addressed_message(self, field, raw, message):
        value = {"vulnerability": "0.5", "loss": "100", "alpha": "1", "beta": "1",
                 "disruptive": "0", field: raw}
        doc = (
            '{"label": "x", "periods": [{'
            + ", ".join(f'"{k}": {v}' for k, v in value.items())
            + "}]}"
        )
        with pytest.raises(ParseError) as info:
            parse_scenario(doc)
        assert str(info.value) == message

    def test_integer_beyond_digit_limit(self):
        doc = MINIMAL.replace('"loss": 100', '"loss": ' + "9" * 5000)
        with pytest.raises(ParseError, match="invalid number"):
            parse_scenario(doc)

    def test_error_addresses_the_period_index(self):
        doc = MINIMAL.replace("]", ', {"vulnerability": 0.5, "loss": 1, "alpha": 1,'
                              ' "beta": 1, "disruptive": 1.0}]')
        with pytest.raises(ParseError, match=r"^periods\[1\]\.disruptive"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "z_min, z_max", [(0.0, float("nan")), (0.0, float("inf")), (float("nan"), 1.0)]
    )
    def test_non_finite_grid_rejected(self, z_min, z_max):
        with pytest.raises(DomainError, match="finite"):
            emit_curve_csv(period(), z_min, z_max, 10)
