import dataclasses
import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secinvest import (
    ContractError,
    DeltaZReport,
    DomainError,
    InvestmentPlan,
    NumericError,
    OptimizationResult,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    classify_disruptive,
    delta_z,
    ebis_eval,
    ebis_mix_curve,
    emit_curve_csv,
    enbis_eval,
    golden_section_optimum,
    grid_oracle,
    optimize_scenario,
    sbpf_eval,
)

T0 = TechnologyProfile(alpha=1.0, beta=1.0, disruptive=0)
T1 = TechnologyProfile(alpha=1.0, beta=1.0, disruptive=1)


def period(v=0.5, loss=100.0, tech=T0):
    return PeriodSpec(vulnerability=v, loss=loss, technology=tech)


class TestTypeInvariants:
    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError, match="alpha"):
            TechnologyProfile(alpha=0.0, beta=1.0)

    def test_beta_must_be_at_least_one(self):
        with pytest.raises(DomainError, match="beta"):
            TechnologyProfile(alpha=1.0, beta=0.5)

    def test_disruptive_is_a_dummy(self):
        with pytest.raises(DomainError, match="dummy"):
            TechnologyProfile(alpha=1.0, beta=1.0, disruptive=2)

    def test_vulnerability_bounds(self):
        with pytest.raises(DomainError, match="vulnerability"):
            PeriodSpec(vulnerability=1.5, loss=10.0, technology=T0)

    def test_loss_nonnegative(self):
        with pytest.raises(DomainError, match="loss"):
            PeriodSpec(vulnerability=0.5, loss=-1.0, technology=T0)

    def test_scenario_needs_a_period(self):
        with pytest.raises(DomainError, match="at least one"):
            Scenario(label="empty", periods=())

    def test_plan_amounts_nonnegative(self):
        with pytest.raises(DomainError, match=r"amounts\[1\]"):
            InvestmentPlan((1.0, -0.5))

    def test_degenerate_v_and_loss_are_legal(self):
        assert ebis_eval(3.0, period(v=0.0)) == 0.0
        assert ebis_eval(3.0, period(loss=0.0)) == 0.0


class TestSbpf:
    def test_zero_investment_returns_v(self):
        assert sbpf_eval(0.0, 0.7, T0) == 0.7
        assert sbpf_eval(0.0, 0.7, T1) == 0.7

    def test_zero_vulnerability(self):
        assert sbpf_eval(5.0, 0.0, T0) == 0.0

    def test_hand_values(self):
        assert sbpf_eval(1.0, 0.5, T0) == pytest.approx(0.25, abs=1e-12)
        assert sbpf_eval(1.0, 0.5, T1) == pytest.approx(0.125, abs=1e-12)

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError, match="z"):
            sbpf_eval(-1.0, 0.5, T0)

    def test_v_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="v"):
            sbpf_eval(1.0, 1.5, T0)

    def test_bounds_and_strict_decrease(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tech = TechnologyProfile(
                alpha=rng.uniform(0.01, 10),
                beta=rng.uniform(1, 5),
                disruptive=int(rng.integers(0, 2)),
            )
            v = rng.uniform(0.01, 1.0)
            z1, z2 = sorted(rng.uniform(0, 100, size=2))
            if z1 == z2:
                continue
            s1, s2 = sbpf_eval(z1, v, tech), sbpf_eval(z2, v, tech)
            assert 0.0 <= s2 <= s1 <= v
            assert s2 < s1

    def test_nonincreasing_in_alpha_and_exponent(self):
        v, z = 0.6, 2.0
        assert sbpf_eval(z, v, TechnologyProfile(2.0, 1.0)) < sbpf_eval(
            z, v, TechnologyProfile(1.0, 1.0)
        )
        assert sbpf_eval(z, v, TechnologyProfile(1.0, 2.0)) < sbpf_eval(
            z, v, TechnologyProfile(1.0, 1.0)
        )
        # at z=0 the parameters do not matter
        assert sbpf_eval(0.0, v, TechnologyProfile(2.0, 3.0, 1)) == v


class TestEbis:
    def test_zero_investment_gives_zero_benefit(self):
        assert ebis_eval(0.0, period()) == 0.0

    def test_hand_value(self):
        assert ebis_eval(1.0, period()) == pytest.approx(25.0, abs=1e-12)

    def test_approaches_but_never_reaches_expected_loss(self):
        p = period()
        cap = p.vulnerability * p.loss
        val = ebis_eval(1e6, p)
        assert val < cap
        assert val == pytest.approx(cap, rel=1e-4)

    def test_disrupted_curve_dominates_pointwise(self):
        for z in [0.0, 0.1, 1.0, 5.0, 50.0]:
            gap = ebis_eval(z, period(tech=T1)) - ebis_eval(z, period(tech=T0))
            if z == 0.0:
                assert gap == 0.0
            else:
                assert gap > 0.0

    def test_concavity_via_second_differences(self):
        p = period()
        z = np.linspace(0.0, 50.0, 1001)
        vals = np.asarray(ebis_eval(z, p))
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second <= 1e-9)


@pytest.mark.parametrize("z", [2, 2.0, np.float64(2.0), np.int64(2), np.array(2.0)],
                         ids=["int", "float", "float64", "int64", "0-d"])
def test_a_number_or_a_0d_array_gives_a_python_float(z):
    for result, expected in ((sbpf_eval(z, 0.5, T1), 0.5 / 9), (ebis_eval(z, period()), 100.0 / 3)):
        assert type(result) is float
        assert result == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("z", [[0.0, 1, 2.5], [[0.0], [1.0]], np.ones((2, 3))], ids=["list", "nested", "2-d"])
def test_a_list_or_an_array_keeps_its_shape(z):
    for result in (sbpf_eval(z, 0.5, T1), ebis_eval(z, period())):
        assert type(result) is np.ndarray
        assert result.shape == np.shape(z)


class TestEnbis:
    def scenario(self, n=1):
        return Scenario("s", tuple(period() for _ in range(n)))

    def test_all_zero_plan(self):
        assert enbis_eval(InvestmentPlan((0.0,)), self.scenario()) == 0.0

    def test_single_period_hand_value(self):
        assert enbis_eval(InvestmentPlan((1.0,)), self.scenario()) == pytest.approx(
            24.0, abs=1e-12
        )

    def test_two_periods_additive(self):
        assert enbis_eval(
            InvestmentPlan((1.0, 1.0)), self.scenario(2)
        ) == pytest.approx(48.0, abs=1e-12)

    def test_additivity_over_concatenation(self):
        rng = np.random.default_rng(11)
        periods = tuple(
            PeriodSpec(
                rng.uniform(0, 1),
                rng.uniform(0, 1000),
                TechnologyProfile(rng.uniform(0.1, 5), rng.uniform(1, 4)),
            )
            for _ in range(6)
        )
        amounts = tuple(rng.uniform(0, 10, size=6))
        whole = enbis_eval(InvestmentPlan(amounts), Scenario("w", periods))
        first = enbis_eval(InvestmentPlan(amounts[:3]), Scenario("a", periods[:3]))
        second = enbis_eval(InvestmentPlan(amounts[3:]), Scenario("b", periods[3:]))
        assert whole == pytest.approx(first + second, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ContractError, match="periods"):
            enbis_eval(InvestmentPlan((1.0, 2.0)), self.scenario(1))


class TestMixCurve:
    def test_switch_splits_branches(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5])
        ebis = ebis_mix_curve(period(), period(tech=T1), 2, grid)
        assert isinstance(ebis, np.ndarray) and ebis.dtype == float
        assert ebis.tolist() == [
            *ebis_eval(grid[:2], period()), *ebis_eval(grid[2:], period(tech=T1))
        ]

    def test_switch_at_zero_is_all_post(self):
        ebis = ebis_mix_curve(period(), period(tech=T1), 0, [0.0, 1.0])
        assert ebis.tolist() == ebis_eval(np.array([0.0, 1.0]), period(tech=T1)).tolist()

    def test_switch_beyond_end_is_all_pre(self):
        ebis = ebis_mix_curve(period(), period(tech=T1), 99, [0.0, 1.0])
        assert ebis.tolist() == ebis_eval(np.array([0.0, 1.0]), period()).tolist()

    @staticmethod
    def jump(z):
        """The curve's step at the switch, on a grid that repeats ``z`` there."""
        ebis = ebis_mix_curve(period(), period(tech=T1), 2, [0.0, z, z, z + 1.0])
        return float(ebis[2] - ebis[1])

    def test_jump_hand_value(self):
        assert self.jump(1.0) == 12.5

    def test_jump_matches_dummy_toggle_and_is_nonnegative(self):
        for z in [0.0, 0.5, 1.0, 3.0, 10.0]:
            jump = self.jump(z)
            expected = ebis_eval(z, period(tech=T1)) - ebis_eval(z, period(tech=T0))
            assert jump.hex() == expected.hex()
            assert jump >= 0.0

    def test_jump_zero_at_zero_investment(self):
        assert self.jump(0.0) == 0.0

    @pytest.mark.parametrize("z_grid", [0.5, np.float64(0.5), np.array(0.5), [[0.0, 1.0]]])
    def test_grid_must_be_one_dimensional(self, z_grid):
        with pytest.raises(DomainError, match="^z_grid must be a 1-D sequence"):
            ebis_mix_curve(period(), period(tech=T1), 1, z_grid)

    def test_identical_periods_give_zero_jump(self):
        ebis = ebis_mix_curve(period(), period(), 1, [0.0, 1.0, 2.0])
        straight = [ebis_eval(z, period()) for z in [0.0, 1.0, 2.0]]
        assert ebis.tolist() == straight

    def test_wrong_flags_rejected(self):
        with pytest.raises(ContractError, match="disruptive"):
            ebis_mix_curve(period(tech=T1), period(), 1, [0.0, 1.0])


NOT_FINITE = [
    math.nan,
    math.inf,
    -math.inf,
    True,
    pytest.param(np.True_, id="np.True_"),
    pytest.param(10**400, id="400-digits"),
    "1",
    None,
]


class TestFiniteInputs:
    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_technology_rejects(self, field, value):
        kwargs = {"alpha": 1.0, "beta": 1.0, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be a finite number"):
            TechnologyProfile(**kwargs)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("field", ["vulnerability", "loss"])
    def test_period_rejects(self, field, value):
        kwargs = {"vulnerability": 0.5, "loss": 10.0, "technology": T0, field: value}
        with pytest.raises(DomainError, match=f"^{field} must be a finite number"):
            PeriodSpec(**kwargs)

    @pytest.mark.parametrize("value", NOT_FINITE)
    def test_plan_rejects(self, value):
        with pytest.raises(DomainError, match=r"^amounts\[1\] must be a finite"):
            InvestmentPlan((1.0, value))

    @pytest.mark.parametrize("dummy", [1.0, 0.0, True, False, np.int64(1), 2])
    def test_dummy_must_be_a_plain_int(self, dummy):
        with pytest.raises(DomainError, match=r"^disruptive must be the dummy"):
            TechnologyProfile(alpha=1.0, beta=1.0, disruptive=dummy)

    def test_range_messages_name_the_bare_field(self):
        with pytest.raises(DomainError) as info:
            TechnologyProfile(alpha=1.0, beta=0.5)
        assert str(info.value) == "beta must be >= 1, got 0.5"

    @pytest.mark.parametrize(
        "amounts, message",
        [
            ((1.0, 2.0, -0.5, math.nan), "amounts[2] must be >= 0, got -0.5"),
            ((1.0, math.inf, -1.0), "amounts[1] must be a finite number, got inf"),
            ((0, 1, True), "amounts[2] must be a finite number, got True"),
            ((0.5, "1", -1.0), "amounts[1] must be a finite number, got '1'"),
            ((0.5, -(10**400)), f"amounts[1] must be a finite number, got {-(10**400)}"),
            ((np.float64(0.5), np.float64(-2.0)), "amounts[1] must be >= 0, got -2.0"),
        ],
    )
    def test_plan_reports_the_first_bad_amount(self, amounts, message):
        with pytest.raises(DomainError) as info:
            InvestmentPlan(amounts)
        assert str(info.value) == message

    def test_plan_accepts_a_generator(self):
        assert InvestmentPlan(a for a in (1, 2.5)).amounts == (1.0, 2.5)

    def test_nan_z_rejected(self):
        with pytest.raises(DomainError, match="z"):
            sbpf_eval(np.array([0.0, math.nan]), 0.5, T0)

    def test_negative_switch_index_rejected(self):
        with pytest.raises(DomainError, match="switch_index"):
            ebis_mix_curve(period(), period(tech=T1), -5, [0.0, 1.0])

    def test_overflowing_total_raises(self):
        big = period(v=1.0, loss=1.7e308)
        with pytest.raises(NumericError, match="overflows"):
            enbis_eval(InvestmentPlan((1e6, 1e6)), Scenario("big", (big, big)))


class TestLibraryArguments:
    """The library's own arguments follow the rule table of the fields."""

    @pytest.mark.parametrize("name, call", [
        ("v", lambda: sbpf_eval(1.0, True, T0)),
        ("z", lambda: ebis_eval(True, period())),
        ("z", lambda: ebis_eval(math.inf, period())),
        ("z_max", lambda: golden_section_optimum(period(), True, 1e-9)),
        ("steps", lambda: grid_oracle(period(), 10.0, 2.5)),
        # beyond 2**53, float indices are no longer distinct
        ("steps", lambda: grid_oracle(period(), 10.0, 2**53 + 1)),
        ("steps", lambda: grid_oracle(period(), 10.0, 2**64)),
        ("steps", lambda: emit_curve_csv(period(), 0, 1, 2.7)),
        ("threshold", lambda: classify_disruptive(1, 2, True)),
        ("switch_index", lambda: ebis_mix_curve(period(), period(tech=T1), 1.5, [0.0, 1.0])),
        ("z", lambda: ebis_eval(np.True_, period())),
        # a list is checked value by value, not as numpy casts it
        ("z", lambda: ebis_eval([True, 0.5], period())),
        ("z", lambda: sbpf_eval([0.5, True], 0.5, T0)),
        ("z", lambda: ebis_mix_curve(period(), period(tech=T1), 1, [0.0, True])),
        ("z", lambda: ebis_eval([[0.5], [True]], period())),
        ("enbis_a", lambda: classify_disruptive(math.nan, 1.0, 0.1)),
        ("enbis_b", lambda: classify_disruptive(1.0, math.inf, 0.1)),
    ])
    def test_rejected_naming_the_argument(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            call()

    @pytest.mark.parametrize("name, call", [
        ("v", lambda: sbpf_eval(1.0, Decimal("0.1"), T0)),
        ("enbis_a", lambda: classify_disruptive(Decimal("1"), 1.0, 0.1)),
        ("threshold", lambda: delta_z(Scenario("a", (period(),)), InvestmentPlan((1.0,)),
                                      Scenario("b", (period(),)), InvestmentPlan((1.0,)),
                                      threshold=Decimal("0.1"))),
        ("alpha", lambda: TechnologyProfile(Decimal("1.5"), 1.0, 0)),
    ])
    def test_numbers_that_are_not_real_are_rejected(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be a finite number, got Decimal"):
            call()

    def test_other_real_numbers_are_accepted(self):
        tech = TechnologyProfile(Fraction(3, 2), np.float32(2.0), 0)
        assert sbpf_eval(1.0, Fraction(1, 2), tech) == sbpf_eval(1.0, 0.5, TechnologyProfile(1.5, 2.0, 0))

    def test_numpy_integer_counts_are_accepted(self):
        p = period()
        assert grid_oracle(p, 10.0, np.int64(10)) == grid_oracle(p, 10.0, 10)
        assert emit_curve_csv(p, 0.0, 1.0, np.int64(4)) == emit_curve_csv(p, 0.0, 1.0, 4)
        mix = ebis_mix_curve(p, period(tech=T1), np.int64(1), [0.0, 1.0])
        assert mix.tolist() == ebis_mix_curve(p, period(tech=T1), 1, [0.0, 1.0]).tolist()


# Instances of each value type, drawn from small pools so that equal pairs are common.
techs = st.builds(TechnologyProfile, *map(st.sampled_from, ([0.5, 2.0], [1, 3.5], [0, 1])))
periods = st.builds(PeriodSpec, st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 1e6]), techs)
scenarios = st.builds(Scenario, st.sampled_from(["a", "b"]), st.lists(periods, min_size=1, max_size=2))
VALUES = {
    TechnologyProfile: techs,
    PeriodSpec: periods,
    Scenario: scenarios,
    InvestmentPlan: st.builds(InvestmentPlan, st.lists(st.sampled_from([0, 1.5, 2.0]), min_size=1, max_size=2)),
    DeltaZReport: st.builds(DeltaZReport, *[st.sampled_from([-0.0, 0.0, 1.5])] * 3, st.sampled_from([1, 2]),
                            st.booleans(), st.sampled_from([0.1, 0.2])),
    # per_period is a record array: unhashable, and == on two of them is elementwise
    OptimizationResult: scenarios.map(optimize_scenario),
}


@functools.cache
def _reference(cls):
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)


@functools.cache
def _subclass(cls):
    return type(cls.__name__, (cls,), {})


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared with the reference's outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_value_types_behave_as_frozen_dataclasses(cls, data):
    """Each value type against a frozen dataclass of its name and fields that
    holds the same values: ==, !=, hash, repr and refused assignment agree."""
    names = cls._fields
    reference = _reference(cls)
    a, b = data.draw(VALUES[cls]), data.draw(VALUES[cls])
    ref_a, ref_b = (reference(**{f: getattr(x, f) for f in names}) for x in (a, b))
    assert repr(a) == repr(ref_a)
    assert outcome(lambda: a == b) == outcome(lambda: ref_a == ref_b)
    assert outcome(lambda: a != b) == outcome(lambda: ref_a != ref_b)
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(ref_a))
    assert a != ref_a and ref_a != a
    # an instance of a subclass, with the same values, is not equal
    twin = object.__new__(_subclass(cls))
    twin.__dict__.update(a.__dict__)
    ref_twin = _subclass(reference)(**{f: getattr(a, f) for f in names})
    assert outcome(lambda: a == twin) == outcome(lambda: ref_a == ref_twin)
    for name in (*names, "other"):
        before = getattr(a, name, None)
        for change in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as ours:
                change(a)
            with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
                change(ref_a)
            assert str(ours.value) == str(theirs.value)
            assert getattr(a, name, None) is before


def test_the_default_dummy_is_a_dataclass_default():
    assert TechnologyProfile(1.5, 2.0) == TechnologyProfile(1.5, 2.0, 0)
    assert repr(TechnologyProfile(alpha=1.5, beta=2.0)) == "TechnologyProfile(alpha=1.5, beta=2.0, disruptive=0)"
