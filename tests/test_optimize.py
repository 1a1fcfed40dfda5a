import math

import numpy as np
import pytest

from secinvest import (
    DomainError,
    PeriodSpec,
    Scenario,
    TechnologyProfile,
    closed_form_optimum,
    ebis_eval,
    enbis_eval,
    golden_section_optimum,
    grid_oracle,
    optimize_period,
    optimize_scenario,
    sbpf_eval,
)
from secinvest.model import PeriodBatch, ebis


def period(v=0.5, loss=20.0, alpha=1.0, beta=1.0, d=0):
    return PeriodSpec(v, loss, TechnologyProfile(alpha, beta, d))


def random_period(rng):
    return PeriodSpec(
        rng.uniform(0.0, 1.0),
        rng.uniform(0.0, 1e6),
        TechnologyProfile(
            rng.uniform(0.01, 10.0),
            rng.uniform(1.0, 5.0),
            int(rng.integers(0, 2)),
        ),
    )


class TestClosedForm:
    def test_vl_ten_matches_sqrt(self):
        # grid-oracle frozen value: sqrt(10) - 1
        assert closed_form_optimum(period()) == pytest.approx(
            math.sqrt(10) - 1, abs=1e-12
        )

    def test_corner_when_interior_condition_fails(self):
        assert closed_form_optimum(period(v=0.5, loss=1.0)) == 0.0

    def test_zero_vulnerability(self):
        assert closed_form_optimum(period(v=0.0, loss=100.0)) == 0.0

    def test_disrupted_hand_value(self):
        assert closed_form_optimum(period(v=0.5, loss=100.0, d=1)) == pytest.approx(
            100 ** (1 / 3) - 1, abs=1e-12
        )

    def test_agrees_with_grid_oracle_spot_checks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_period(rng)
            z_max = p.vulnerability * p.loss + 1.0
            steps = 10**5
            z_star = closed_form_optimum(p)
            z_grid = grid_oracle(p, z_max, steps)
            assert abs(z_star - z_grid) <= 2 * z_max / steps

    def test_local_optimality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_period(rng)
            z_star = closed_form_optimum(p)
            eps = 1e-6 * max(1.0, z_star)
            best = ebis_eval(z_star, p) - z_star
            # 1e-12 absolute is below float64 resolution for large objectives;
            # allow a few ulps of the objective on top
            tol = 1e-12 + 8 * np.spacing(abs(best))
            assert ebis_eval(z_star + eps, p) - (z_star + eps) <= best + tol
            if z_star - eps >= 0:
                assert ebis_eval(z_star - eps, p) - (z_star - eps) <= best + tol

    def test_bounded_by_expected_loss(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_period(rng)
            assert closed_form_optimum(p) <= p.vulnerability * p.loss


class TestGoldenSection:
    def test_agrees_with_closed_form(self):
        p = period()
        assert golden_section_optimum(p, z_max=10.0, tol=1e-8) == pytest.approx(
            closed_form_optimum(p), abs=1e-6
        )

    def test_zero_vulnerability(self):
        assert golden_section_optimum(period(v=0.0), 10.0, 1e-8) == 0.0

    def test_corner_case(self):
        assert golden_section_optimum(period(loss=1.0), 0.5, 1e-8) == pytest.approx(
            0.0, abs=1e-8
        )


class TestGridOracle:
    def test_fine_grid_near_analytic(self):
        z = grid_oracle(period(), z_max=10.0, steps=10**6)
        assert z == pytest.approx(math.sqrt(10) - 1, abs=2 * 10.0 / 10**6)

    def test_flat_objective_picks_smallest_z(self):
        assert grid_oracle(period(v=0.0), z_max=5.0, steps=100) == 0.0

    def test_steps_two_exhaustive(self):
        p = period()
        z = grid_oracle(p, z_max=4.0, steps=2)
        candidates = [0.0, 2.0, 4.0]
        best = max(candidates, key=lambda c: ebis_eval(c, p) - c)
        assert z == best

    def test_grid_ending_at_the_largest_float_does_not_warn(self):
        # linspace's step * index overflows in the last point, which it then
        # sets to z_max; an overflow warning fails the test
        assert grid_oracle(period(), z_max=1.7976931348623157e308, steps=3) == 0.0


    def test_values_equal_the_unfused_expression(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_period(rng)
            z_max = p.vulnerability * p.loss + 1.0
            z = np.linspace(0.0, z_max, 10**4 + 1)
            v, alpha, k = p.vulnerability, p.technology.alpha, p.technology.exponent
            unfused = (v - v / np.power(alpha * z + 1.0, k)) * p.loss - z
            fused = ebis(z, PeriodBatch.one(p))
            fused -= z
            assert fused.tobytes() == unfused.tobytes()
            assert grid_oracle(p, z_max, 10**4) == z[np.argmax(unfused)]


class TestOptimizeScenario:
    def test_single_period_matches_optimize_period(self):
        p = period()
        result = optimize_scenario(Scenario("one", (p,)))
        rec = optimize_period(p)
        assert result.plan.amounts == (rec.z_star,)
        assert result.per_period[0] == rec
        assert result.per_period.dtype.names == (
            "z_star", "breach_probability_at_optimum", "ebis_at_optimum")

    def test_optima_are_read_only(self):
        result = optimize_scenario(Scenario("one", (period(),)))
        with pytest.raises(ValueError, match="read-only"):
            result.per_period.z_star[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            optimize_period(period()).z_star = 0.0

    def test_two_identical_periods_double_the_total(self):
        p = period()
        one = optimize_scenario(Scenario("one", (p,)))
        two = optimize_scenario(Scenario("two", (p, p)))
        assert two.enbis_total == pytest.approx(2 * one.enbis_total, abs=1e-9)
        assert two.plan.amounts[0] == pytest.approx(math.sqrt(10) - 1, abs=1e-9)

    def test_all_zero_vulnerability(self):
        sc = Scenario("z", tuple(period(v=0.0) for _ in range(3)))
        result = optimize_scenario(sc)
        assert result.plan.amounts == (0.0, 0.0, 0.0)
        assert result.enbis_total == 0.0

    def test_zero_loss_period(self):
        rec = optimize_period(period(loss=0.0))
        assert rec.z_star == 0.0
        assert rec.ebis_at_optimum == 0.0

    @pytest.mark.parametrize("beta, d", [(1.0, 1), (2.0, 0), (2.5, 1)])
    def test_records_equal_scalar_evaluation(self, beta, d):
        rng = np.random.default_rng(41)
        ps = [period(rng.uniform(0.1, 1.0), rng.uniform(1.0, 1e6),
                     rng.uniform(0.01, 10.0), beta, d) for _ in range(200)]
        for r, p in zip(optimize_scenario(Scenario("s", tuple(ps))).per_period, ps):
            # the closed form on Python floats, without overflow
            alpha, k = p.technology.alpha, p.technology.exponent
            interior = alpha * k * p.vulnerability * p.loss
            z = math.expm1(math.log(interior) / (k + 1.0)) / alpha if interior > 1.0 else 0.0
            assert r.z_star == closed_form_optimum(p) == z
            assert r.breach_probability_at_optimum == sbpf_eval(
                r.z_star, p.vulnerability, p.technology)
            assert r.ebis_at_optimum == ebis_eval(r.z_star, p)

    def test_total_consistent_with_enbis_eval(self):
        rng = np.random.default_rng(21)
        periods = tuple(random_period(rng) for _ in range(5))
        sc = Scenario("r", periods)
        result = optimize_scenario(sc)
        assert result.enbis_total == pytest.approx(
            enbis_eval(result.plan, sc), abs=1e-9
        )

    def test_beats_sampled_alternative_plans(self):
        rng = np.random.default_rng(23)
        periods = tuple(random_period(rng) for _ in range(3))
        sc = Scenario("r", periods)
        result = optimize_scenario(sc)
        from secinvest import InvestmentPlan

        for _ in range(50):
            alt = InvestmentPlan(
                tuple(
                    rng.uniform(0, max(p.vulnerability * p.loss, 1.0))
                    for p in periods
                )
            )
            assert enbis_eval(alt, sc) <= result.enbis_total + 1e-9


def mp_z_star(p):
    """50-digit reference for the closed form, from the exact float inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        alpha = mpmath.mpf(p.technology.alpha)
        k = mpmath.mpf(p.technology.beta) + p.technology.disruptive
        interior = alpha * k * mpmath.mpf(p.vulnerability) * mpmath.mpf(p.loss)
        if interior <= 1:
            return mpmath.mpf(0)
        return (interior ** (1 / (k + 1)) - 1) / alpha


class TestClosedFormPrecision:
    # v = 0.5 and loss = 2/k make alpha*k*v*loss == alpha exactly, so the
    # distance to the corner is set by alpha alone
    @pytest.mark.parametrize("beta, d", [(1.0, 0), (1.0, 1), (2.0, 0), (3.0, 1)])
    @pytest.mark.parametrize("gap", [1e-14, 1e-12, 1e-10, 1e-7, 1e-4, 1e-1, 10.0, 1e3])
    def test_near_corner_against_mpmath(self, beta, d, gap):
        k = beta + d
        p = period(v=0.5, loss=2.0 / k, alpha=1.0 + gap, beta=beta, d=d)
        assert p.technology.alpha * k * p.vulnerability * p.loss == 1.0 + gap
        exact = mp_z_star(p)
        assert exact > 0
        assert abs((closed_form_optimum(p) - exact) / exact) <= 1e-14

    @pytest.mark.parametrize(
        "alpha, loss, beta", [(1e300, 1e300, 1.0), (1.7e308, 1.7e308, 1.0), (1e-3, 1e308, 1e308)]
    )
    def test_overflowing_product_stays_finite(self, alpha, loss, beta):
        p = period(v=1.0, loss=loss, alpha=alpha, beta=beta)
        z = closed_form_optimum(p)
        assert math.isfinite(z)
        assert z == pytest.approx(float(mp_z_star(p)), rel=1e-12)

    @pytest.mark.parametrize("alpha, k", [(9.994025736157873e307, 2.0), (1.5e308, 3.0), (1.7e308, 2.0)])
    def test_overflowing_partial_product_keeps_the_product_rounding(self, alpha, k):
        # alpha*k overflows though alpha*k*v*L is 3; summing the four logs
        # instead was off by about 6e-14
        v = math.sqrt(3.0 / alpha / k)
        p = period(v=v, loss=v, alpha=alpha, beta=k - 1, d=1)
        exact = mp_z_star(p)
        assert abs((closed_form_optimum(p) - exact) / exact) <= 1e-14

    def test_overflowing_partial_product_at_the_corner(self):
        # alpha*k overflows, yet alpha*k*v*L = 1e310 * 1e-320 is below 1
        p = period(v=1e-300, loss=1e-20, alpha=1e10, beta=1e300)
        assert closed_form_optimum(p) == 0.0


class TestSearchArguments:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_golden_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol"):
            golden_section_optimum(period(), 50.0, tol)

    @pytest.mark.parametrize("z_max", [-1.9, math.nan, math.inf])
    def test_search_rejects_bad_z_max(self, z_max):
        with pytest.raises(DomainError, match="z_max"):
            golden_section_optimum(period(), z_max, 1e-8)
        with pytest.raises(DomainError, match="z_max"):
            grid_oracle(period(), z_max, 10)

    @pytest.mark.parametrize("z_max", [50.0, 1e300])
    def test_golden_terminates_below_float_resolution(self, z_max):
        p = period()
        assert golden_section_optimum(p, z_max, 1e-300) == pytest.approx(
            closed_form_optimum(p), rel=1e-6
        )

    @pytest.mark.parametrize("steps", [0, -3])
    def test_grid_rejects_bad_steps(self, steps):
        with pytest.raises(DomainError, match="steps"):
            grid_oracle(period(), 10.0, steps)
