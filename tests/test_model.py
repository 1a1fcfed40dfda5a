import math

import numpy as np
import pytest

from secinvest import (
    ContractError,
    DomainError,
    InvestmentPlan,
    NumericError,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    classify_disruptive,
    ebis_eval,
    ebis_mix_curve,
    emit_curve_csv,
    enbis_eval,
    golden_section_optimum,
    grid_oracle,
    mix_jump,
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

    def test_jump_hand_value(self):
        assert mix_jump(period(), period(tech=T1), 1.0) == pytest.approx(
            12.5, abs=1e-12
        )

    def test_jump_matches_dummy_toggle_and_is_nonnegative(self):
        for z in [0.0, 0.5, 1.0, 3.0, 10.0]:
            jump = mix_jump(period(), period(tech=T1), z)
            expected = ebis_eval(z, period(tech=T1)) - ebis_eval(z, period(tech=T0))
            assert jump == expected
            assert jump >= 0.0

    def test_jump_zero_at_zero_investment(self):
        assert mix_jump(period(), period(tech=T1), 0.0) == 0.0

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
        ("steps", lambda: emit_curve_csv(period(), 0, 1, 2.7)),
        ("threshold", lambda: classify_disruptive(1, 2, True)),
        ("switch_index", lambda: ebis_mix_curve(period(), period(tech=T1), 1.5, [0.0, 1.0])),
    ])
    def test_rejected_naming_the_argument(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be "):
            call()

    def test_numpy_integer_counts_are_accepted(self):
        p = period()
        assert grid_oracle(p, 10.0, np.int64(10)) == grid_oracle(p, 10.0, 10)
        assert emit_curve_csv(p, 0.0, 1.0, np.int64(4)) == emit_curve_csv(p, 0.0, 1.0, 4)
        mix = ebis_mix_curve(p, period(tech=T1), np.int64(1), [0.0, 1.0])
        assert mix.tolist() == ebis_mix_curve(p, period(tech=T1), 1, [0.0, 1.0]).tolist()
