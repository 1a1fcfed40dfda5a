import dataclasses
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
    delta_z,
    dominance_check,
    ebis_eval,
    optimize_scenario,
    productivity_ratio,
    optimum_shift_sweep,
    sbpf_eval,
)


def period(v=0.5, loss=100.0, alpha=1.0, beta=1.0, d=0):
    return PeriodSpec(v, loss, TechnologyProfile(alpha, beta, d))


def scenario(label="s", *periods):
    return Scenario(label, tuple(periods) or (period(),))


class TestDeltaZ:
    def test_identical_inputs_give_zero(self):
        a = scenario("a")
        plan = InvestmentPlan((1.0,))
        report = delta_z(a, plan, a, plan)
        assert report.delta_z == 0.0
        assert report.classified_disruptive is False

    def test_antisymmetry(self):
        a = scenario("a", period())
        b = scenario("b", period(d=1))
        plan = InvestmentPlan((1.0,))
        fwd = delta_z(a, plan, b, plan)
        back = delta_z(b, plan, a, plan)
        assert fwd.delta_z == -back.delta_z

    def test_hand_value(self):
        a = scenario("a", period())
        b = scenario("b", period(d=1))
        plan = InvestmentPlan((1.0,))
        report = delta_z(a, plan, b, plan)
        assert report.enbis_a == pytest.approx(24.0, abs=1e-12)
        assert report.enbis_b == pytest.approx(36.5, abs=1e-12)
        assert report.delta_z == pytest.approx(-12.5, abs=1e-12)

    def test_overflowing_difference_raises(self):
        # both totals are finite, about +1.7e308 and -1.7e308
        a = scenario("a", period(1.0, 1.7e308))
        b = scenario("b", period(0.0, 0.0))
        with pytest.raises(NumericError, match="difference of 'a' and 'b' overflows"):
            delta_z(a, InvestmentPlan((1e10,)), b, InvestmentPlan((1.7e308,)))

    def test_unequal_horizons_rejected(self):
        a = scenario("a", period())
        b = scenario("b", period(), period())
        with pytest.raises(ContractError, match="must be equal in order to proceed"):
            delta_z(a, InvestmentPlan((1.0,)), b, InvestmentPlan((1.0, 1.0)))


class TestClassifyDisruptive:
    def test_equal_benefits_not_disruptive(self):
        assert classify_disruptive(24.0, 24.0, 0.10) is False

    def test_clearly_above_threshold(self):
        assert classify_disruptive(24.0, 36.5, 0.10) is True

    def test_below_threshold(self):
        assert classify_disruptive(24.0, 25.0, 0.10) is False

    def test_nonpositive_baseline_uses_absolute_margin(self):
        assert classify_disruptive(0.0, 0.05, 0.10) is False
        assert classify_disruptive(0.0, 0.2, 0.10) is True

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError, match="threshold"):
            classify_disruptive(1.0, 2.0, -0.1)

    def test_monotone_in_enbis_b(self):
        values = np.linspace(20.0, 40.0, 21)
        flags = [classify_disruptive(24.0, b, 0.10) for b in values]
        assert flags == sorted(flags)

    def test_report_is_frozen(self):
        a = scenario("a")
        plan = InvestmentPlan((1.0,))
        report = delta_z(a, plan, a, plan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.classified_disruptive = True


class TestProductivityRatio:
    def test_identical_plans(self):
        plan = InvestmentPlan((2.0, 3.0))
        assert productivity_ratio(plan, plan) == 1.0

    def test_direct_ratio(self):
        assert productivity_ratio(
            InvestmentPlan((10.0,)), InvestmentPlan((5.0,))
        ) == pytest.approx(0.5)

    def test_optimal_plans_ratio(self):
        # grid-oracle frozen values: sqrt(10)-1 vs 20**(1/3)-1
        a = optimize_scenario(scenario("a", period(loss=20.0))).plan
        b = optimize_scenario(scenario("b", period(loss=20.0, d=1))).plan
        ratio = productivity_ratio(a, b)
        assert ratio == pytest.approx(
            (20 ** (1 / 3) - 1) / (math.sqrt(10) - 1), abs=1e-9
        )
        assert ratio == pytest.approx(0.7929, abs=1e-4)

    def test_zero_total_rejected(self):
        with pytest.raises(DomainError, match="positive total"):
            productivity_ratio(InvestmentPlan((0.0,)), InvestmentPlan((1.0,)))

    @pytest.mark.parametrize(
        "amounts_a, amounts_b",
        [
            pytest.param((1.0,), (1e308, 1e308), id="total-b-overflows"),  # gave inf
            pytest.param((1e308, 1e308), (1.0,), id="total-a-overflows"),  # gave 0.0
            pytest.param((1e-300,), (1e300,), id="ratio-overflows"),  # gave inf
        ],
    )
    def test_overflow_raises(self, amounts_a, amounts_b):
        with pytest.raises(NumericError, match="overflows a float"):
            productivity_ratio(InvestmentPlan(amounts_a), InvestmentPlan(amounts_b))


class TestDominanceCheck:
    def test_zero_vulnerability_vacuously_true(self):
        assert dominance_check(
            period(v=0.0), period(v=0.0, d=1), [0.0, 1.0, 2.0]
        )

    def test_hand_gaps(self):
        base, disr = period(), period(d=1)
        assert dominance_check(base, disr, [0.0, 1.0, 2.0])
        from secinvest import ebis_eval

        assert ebis_eval(1.0, disr) - ebis_eval(1.0, base) == pytest.approx(12.5)
        assert ebis_eval(2.0, disr) - ebis_eval(2.0, base) == pytest.approx(
            100 * (0.5 / 3 - 0.5 / 9), abs=1e-9
        )

    def test_grid_of_only_zero(self):
        assert dominance_check(period(), period(d=1), [0.0])

    def test_other_field_differences_rejected(self):
        with pytest.raises(ContractError, match="disruption flag"):
            dominance_check(period(alpha=1.0), period(alpha=2.0, d=1), [0.0])

    def test_holds_across_random_parameters(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(0.0, 50.0, 26)
        for _ in range(100):
            v = rng.uniform(0.01, 1.0)
            loss = rng.uniform(0.01, 1e4)
            alpha = rng.uniform(0.01, 10.0)
            beta = rng.uniform(1.0, 5.0)
            assert dominance_check(
                period(v, loss, alpha, beta, 0), period(v, loss, alpha, beta, 1), grid
            )

    def test_holds_where_both_benefits_round_to_v_times_loss(self):
        # far above z*, both EBIS values round to v*L = 1e6, while the
        # breach probabilities (about 1e-18 and 1e-24) keep their order
        base, disr = period(1.0, 1e6, 1.0, 3.0, 0), period(1.0, 1e6, 1.0, 3.0, 1)
        assert ebis_eval(1e6, base) == ebis_eval(1e6, disr)
        assert dominance_check(base, disr, [0.0, 1e6])

    def test_holds_where_alpha_z_plus_one_rounds_to_one(self):
        # at z = 1e-20 both breach probabilities equal v in floats
        assert sbpf_eval(1e-20, 0.5, period().technology) == 0.5
        assert dominance_check(period(), period(d=1), [0.0, 1e-20])

    def test_holds_where_alpha_z_underflows(self):
        # alpha*z = 1e-330 is below the smallest subnormal and rounds to 0
        base, disr = period(alpha=1e-300), period(alpha=1e-300, d=1)
        assert base.technology.alpha * 1e-30 == 0.0
        assert dominance_check(base, disr, [0.0, 1e-30])

    def test_holds_where_both_breach_probabilities_underflow(self):
        base, disr = period(beta=5.0), period(beta=5.0, d=1)
        assert sbpf_eval(1e300, 0.5, base.technology) == 0.0
        assert dominance_check(base, disr, [0.0, 1e300])

    # at z = 1e-20 the curves are equal (alpha*z + 1 rounds to 1), so a
    # point-by-point check could stop there before reaching the negative z
    @pytest.mark.parametrize("grid", [[0.0, 1e-20, -1.0], [-1.0, 0.0]])
    def test_negative_z_anywhere_raises(self, grid):
        with pytest.raises(DomainError, match="z must be >= 0"):
            dominance_check(period(), period(d=1), grid)


class TestOptimumShiftSweep:
    def test_left_and_right_both_occur(self):
        records = optimum_shift_sweep([1.0], [1.0], [0.5], [4.0, 20.0])
        directions = {r.loss: r.shift_direction for r in records}
        assert directions == {4.0: "right", 20.0: "left"}

    def test_frozen_optima(self):
        records = optimum_shift_sweep([1.0], [1.0], [0.5], [4.0, 20.0])
        by_loss = {r.loss: r for r in records}
        assert by_loss[4.0].z_star_baseline == pytest.approx(0.41421, abs=1e-4)
        assert by_loss[4.0].z_star_disrupted == pytest.approx(0.58740, abs=1e-4)
        assert by_loss[20.0].z_star_baseline == pytest.approx(2.16228, abs=1e-4)
        assert by_loss[20.0].z_star_disrupted == pytest.approx(1.71442, abs=1e-4)

    def test_zero_vulnerability_is_none(self):
        records = optimum_shift_sweep([1.0], [1.0], [0.0], [20.0])
        assert records[0].shift_direction == "none"

    def test_sorted_by_parameter_tuple(self):
        records = optimum_shift_sweep([2.0, 1.0], [1.0, 3.0], [0.5], [10.0])
        keys = [(r.alpha, r.beta, r.vulnerability, r.loss) for r in records]
        assert keys == sorted(keys)

    def test_integer_axes_equal_their_float_twin(self):
        ints = optimum_shift_sweep([10**5], [10**5], [1], [10**10])
        assert ints.tolist() == optimum_shift_sweep([1e5], [1e5], [1.0], [1e10]).tolist()

    # a non-number is rejected through the types before the axes are sorted
    @pytest.mark.parametrize("bad", ["a", None])
    @pytest.mark.parametrize("axis, name", enumerate(["alpha", "beta", "vulnerability", "loss"]))
    def test_non_number_raises_domain_error(self, axis, name, bad):
        axes = [[1.0], [1.0], [0.5], [4.0]]
        axes[axis] = [axes[axis][0], bad]
        with pytest.raises(DomainError) as info:
            optimum_shift_sweep(*axes)
        assert str(info.value) == f"{name} must be a finite number, got {bad!r}"

    # an empty axis gives no tuples, whatever the other axes hold
    @pytest.mark.parametrize("axes", [
        ([], [1.0], [0.5], [4.0]),
        ([1.0], [1.0], [math.nan], []),
        ([2.0, 1.0], [1.0, 3.0, 2.0], [0.5], [4.0, 20.0]),
    ])
    def test_len_is_the_tuple_count(self, axes):
        table = optimum_shift_sweep(*axes)
        assert table.dtype.names == (
            "alpha", "beta", "vulnerability", "loss",
            "z_star_baseline", "z_star_disrupted", "shift_direction",
        )
        assert len(table) == math.prod(map(len, axes))


class TestThresholdDomain:
    @pytest.mark.parametrize("threshold", [-0.1, math.nan, math.inf])
    def test_classify_rejects(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            classify_disruptive(1.0, 2.0, threshold)

    def test_delta_z_rejects_nan_threshold(self):
        a = scenario("a")
        plan = InvestmentPlan((1.0,))
        with pytest.raises(DomainError, match="threshold"):
            delta_z(a, plan, a, plan, threshold=math.nan)
