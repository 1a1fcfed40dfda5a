import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from secinvest import check
from secinvest.check import _GOLDEN_MAX_STEPS, _INV_PHI, _ORACLE_BLOCK
from secinvest.model import PeriodBatch, ebis
from secinvest.optimize import _grid_points

LARGEST = 1.7976931348623157e308


def linspace_grid(z_max, steps):
    """numpy's own grid of the oracle: its last step * index may overflow near
    the float maximum, and linspace then sets that point to z_max."""
    with np.errstate(over="ignore"):
        return np.linspace(0.0, z_max, steps + 1)


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


def _with_product(product, v, alpha, beta, d):
    """The period whose loss makes alpha*k*v*L about ``product``, rounded."""
    return period(v, product / (alpha * (beta + d) * v), alpha, beta, d)


_technology = (st.floats(0.1, 1.0), st.floats(0.01, 10.0), st.floats(1.0, 5.0), st.sampled_from([0, 1]))
# alpha*k*v*L within 1e-15 to 1e-2 of the corner on either side, where the
# float product is rounded; above it up to 1e30; and factors from 1e-300 to 1e308
_near_corner = st.builds(
    _with_product, st.builds(lambda s, x: 1.0 + s * 10.0**x, st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -2.0)),
    *_technology)
_interior = st.builds(_with_product, st.floats(-2.0, 30.0).map(lambda x: 1.0 + 10.0**x), *_technology)
_powers = st.floats(-300.0, 308.0).map(lambda x: 10.0**x)
_extreme = st.builds(period, st.floats(-300.0, 0.0).map(lambda x: 10.0**x), _powers, _powers,
                     st.floats(0.0, 308.0).map(lambda x: 10.0**x), st.sampled_from([0, 1]))


def _assert_records_within_the_error_bound(ps):
    """Each record of ``optimize_scenario`` is the one-period view of its
    period, within the kernel's error bound of 50-digit mpmath, and its
    breach probability and EBIS are the scalar evaluations at its z*."""
    mpmath = pytest.importorskip("mpmath")
    for r, p in zip(optimize_scenario(Scenario("s", tuple(ps))).per_period, ps):
        with mpmath.workdps(50):
            # at the kernel's own exponent, so that only the kernel's error counts
            alpha, k = mpmath.mpf(p.technology.alpha), mpmath.mpf(p.technology.exponent)
            t = max(mpmath.log(alpha * k * mpmath.mpf(p.vulnerability) * mpmath.mpf(p.loss)), 0) / (k + 1)
            exact = mpmath.expm1(t) / alpha
            # exp of the rounded t costs about t ulps; a subnormal z an ulp of 2**-1074
            bound = 16 * (1 + t) * mpmath.mpf(2) ** -53 * exact + mpmath.mpf(2) ** -1074
            assert abs(r.z_star - exact) <= bound
        assert r.z_star == closed_form_optimum(p)
        assert r.breach_probability_at_optimum == sbpf_eval(
            r.z_star, p.vulnerability, p.technology)
        assert r.ebis_at_optimum == ebis_eval(r.z_star, p)


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


def test_optimize_forwards_the_cross_checks_to_check():
    import secinvest.optimize as optimize
    assert optimize.grid_oracle is check.grid_oracle
    assert optimize.golden_section_optimum is check.golden_section_optimum
    with pytest.raises(AttributeError, match="_ORACLE_LEAF"):
        optimize._ORACLE_LEAF


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

    def test_memory_stays_within_a_few_blocks(self):
        # on a fresh thread, whose first call allocates the oracle's block
        # buffers inside the traced window
        tracemalloc.start()
        try:
            with ThreadPoolExecutor(1) as pool:
                pool.submit(grid_oracle, period(), 10.0, 10**6).result(timeout=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid alone would take 8 MB, and its values 8 MB more; the
        # buffers of a block's indices, points and values, and the offsets
        # of a leaf's points, take 1 MB
        assert 3 * 8 * _ORACLE_BLOCK < peak < 1.3e6

    def test_threads_give_the_serial_results(self):
        rng = np.random.default_rng(24)
        cases = []
        for _ in range(32):
            p = random_period(rng)
            cases.append((p, p.vulnerability * p.loss + 1.0, int(rng.integers(10**5, 10**6, endpoint=True))))
        serial = [grid_oracle(*case).hex() for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads take turns often
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(grid_oracle, *case) for case in cases]
                assert [f.result(timeout=60).hex() for f in futures] == serial
        finally:
            sys.setswitchinterval(interval)

    def test_each_thread_reuses_buffers_of_its_own(self, monkeypatch):
        # the arrays whose slices each call hands to ebis as out, kept alive
        # so that a freed buffer cannot come back under the same identity
        bases = []

        def spy(z, batch, out=None):
            bases.append(out.base)
            return ebis(z, batch, out)

        monkeypatch.setattr("secinvest.check.ebis", spy)

        def two_calls():
            first = grid_oracle(period(), 10.0, 10**6)
            calls = len(bases)
            assert grid_oracle(period(), 10.0, 10**6) == first
            return bases[:calls], bases[calls:]

        first, second = two_calls()
        assert all(b is first[0] for b in first + second)
        with ThreadPoolExecutor(1) as pool:
            bases.clear()
            other, again = pool.submit(two_calls).result(timeout=60)
        assert all(b is other[0] for b in other + again)
        assert not np.shares_memory(other[0], first[0])


def test_leaves_fit_in_a_block():
    # a leaf larger than a block makes head, the ranges of one call, 0, and
    # grid_oracle's search loops forever (grid_oracle(p, 51.0, 10**6) hangs
    # with leaves of 65536)
    assert check._ORACLE_LEAF <= check._ORACLE_BLOCK


_B = _ORACLE_BLOCK


# linspace forms i/steps*z_max where z_max/steps underflows to 0: at 5e-324
# and 3 steps its points are 0, 0, 5e-324, 5e-324, not 0, 0, 0, 5e-324
@pytest.mark.parametrize("z_max, steps", [
    (0.0, 1), (5e-324, 3), (5e-320, _B + 1), (10.0, 3 * _B + 7), (10.0, 2 * _B), (LARGEST, 3), (LARGEST, _B + 1),
    # leaves of 1024 points: at 10**6 steps the last one is cut short by
    # steps; 1024 divides 2**20, so there the last leaf holds only the point
    # at steps, where the maximum lies
    (10.0, 10**6), (1.0, 2**20),
])
def test_blocks_are_the_uniform_grid(monkeypatch, z_max, steps):
    """Each array handed to ebis is the grid at the indices it stands for,
    and each index is scanned or lies in a range whose bound, ebis at the
    range's end minus z at its start, lies below the maximum found."""
    # [indices, points, ebis there or None, the array of points handed on],
    # one per set of points formed; copies, as the oracle reuses its buffers
    calls = []

    def recording_points(i, *args):
        z = _grid_points(i, *args)
        calls.append([i.copy(), z.copy(), None, z])
        return z

    def recording_ebis(z, batch, out=None):
        values = ebis(z, batch, out)
        next(call for call in reversed(calls) if call[3] is z)[2] = values.copy()
        return values

    monkeypatch.setattr("secinvest.check._grid_points", recording_points)
    monkeypatch.setattr("secinvest.check.ebis", recording_ebis)
    grid_oracle(period(), z_max, steps)
    grid = linspace_grid(z_max, steps)
    best = max(float((values - z).max()) for _, z, values, _ in calls if values is not None)
    covered = np.zeros(steps + 1, bool)
    for k, (i, z, values, _) in enumerate(calls):
        if values is None:
            continue  # the starts of the ranges that the call before ends
        assert len(z) <= _B
        assert z.tobytes() == grid[i].tobytes()
        if k + 1 < len(calls) and calls[k + 1][2] is None:
            for start, end, at_end in zip(calls[k + 1][0].tolist(), i.tolist(), values.tolist()):
                if at_end - grid[start] < best:
                    covered[start:end + 1] = True
        else:  # a scan
            covered[i] = True
    assert covered.all()


# leaves of 1024 points at 10**8 steps (2**37/steps is 1374) and of 32 at
# 10**12 (2**37/steps is 0); the budgets are the measured 362,618 and 7.3
# million points of ebis and peaks of 0.98 and 2.8 MB, with some room: a
# few blocks per level
@pytest.mark.parametrize("steps, points, memory", [(10**8, 4 * 10**5, 1.3e6), (10**12, 8 * 10**6, 8e6)],
                         ids=["1e8", "1e12"])
def test_huge_grid_in_bounded_work(monkeypatch, steps, points, memory):
    """A grid of 10**8 or 10**12 steps takes a bounded number of points of
    ebis, not all of them, and the exact first maximum."""
    sizes = []

    def counting_ebis(z, batch, out=None):
        sizes.append(z.size)
        return ebis(z, batch, out)

    monkeypatch.setattr("secinvest.check.ebis", counting_ebis)
    p, z_max = period(), 10.0
    tracemalloc.start()
    try:
        best_z = grid_oracle(p, z_max, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) <= points
    assert peak < memory
    # at 10**12 steps ebis - z is flat to its rounding over some 6000 steps
    # either side of z*, so the first maximum lies there, not within 2 steps;
    # as the objective is concave, a full scan of 2*10**5 points around z*
    # holds it
    centre = round(closed_form_optimum(p) / (z_max / steps))
    window = np.arange(centre - 10**5, centre + 10**5, dtype=float) * (z_max / steps)
    values = ebis(window, PeriodBatch.one(p))
    values -= window
    first = int(np.argmax(values))
    assert max(values[0], values[-1]) < values[first]
    assert best_z == window[first]


def count_ebis(monkeypatch, budget):
    """Make the oracle's ebis raise once it has taken more than ``budget`` points."""
    left = [budget]

    def counting_ebis(z, batch, out=None):
        left[0] -= z.size
        if left[0] < 0:
            raise RuntimeError(f"more than {budget} points of ebis")
        return ebis(z, batch, out)

    monkeypatch.setattr("secinvest.check.ebis", counting_ebis)


@pytest.mark.parametrize("steps", [10**6, 2**20])
def test_leaves_near_a_peak_keep_the_scan_narrow(monkeypatch, steps):
    """Near a smooth peak the points scanned grow as sqrt(leaf * steps):
    leaves of 1024 points take about 37,000 points of ebis at 10**6 and 2**20
    steps, where leaves of 32768 took about 250,000 and 200,000."""
    count_ebis(monkeypatch, 60_000)
    assert grid_oracle(period(), 10.0, steps) == pytest.approx(math.sqrt(10) - 1, abs=2 * 10.0 / steps)


@pytest.mark.parametrize("z_max", [0.0, 5e-324])
def test_flat_huge_grid_in_bounded_work(monkeypatch, z_max):
    """On a grid of one or two values of z, ranges that tie with the best
    value scanned are dropped: 2**53 steps take about 330,000 points of ebis."""
    count_ebis(monkeypatch, 8 * 10**6)
    assert grid_oracle(period(), z_max, 2**53) == 0.0


@pytest.mark.parametrize("steps", [2**53, 2**53 - 1, 10**12 + 1])
def test_the_first_level_reaches_the_last_point(monkeypatch, steps):
    """The search starts from the ranges of a whole level, the one that holds
    only the point at steps among them: on a grid of the integers up to
    steps, where ebis(z) - z is z, the last point is the first maximum."""
    monkeypatch.setattr("secinvest.check.ebis", lambda z, batch, out=None: np.multiply(z, 2.0, out=out))
    assert grid_oracle(period(), float(steps), steps) == float(steps)


@pytest.mark.parametrize("z_max", [0.0, 5e-324])
def test_ranges_queued_before_the_first_scan_are_bounded_again(monkeypatch, z_max):
    """The first descent queues whole blocks of ranges while no value has been
    scanned; they are checked against the best value when popped, so 10**8
    steps take about 70,000 points, not 45 million."""
    count_ebis(monkeypatch, 10**6)
    assert grid_oracle(period(), z_max, 10**8) == 0.0


_periods = st.builds(
    period,
    v=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310])),
    loss=st.one_of(st.floats(0.0, 1e30), st.floats(0.0, 100.0)),
    alpha=st.floats(0.01, 100.0),
    beta=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1.0, 5.0)),
    d=st.integers(0, 1),
)


_z_maxes = st.one_of(
    st.sampled_from([0.0, 5e-324, LARGEST]),
    st.floats(0.0, 1e-300),  # subnormal steps, or ones that underflow to 0
    st.floats(0.0, LARGEST),
    st.floats(0.0, 100.0),  # an interior peak, for a loss up to 100
)
_steps = st.one_of(
    st.sampled_from([1, 2, _B - 1, _B, _B + 1, 3 * _B + 7, 2 * 10**5]), st.integers(1, 2 * 10**5)
)


@settings(deadline=None, max_examples=60)
@given(p=_periods, z_max=_z_maxes, steps=_steps)
@example(period(v=0.0), 0.0, 3 * _B + 7)  # flat: every value ties at z = 0
@example(period(v=0.0), 5e-324, 3 * _B + 7)
@example(period(v=0.0), 5e-324, 3)  # i/steps*z_max differs from i*step here
@example(period(), LARGEST, _B + 1)
# ebis - z rounds to one value on either side of the end of the first block
# scanned; the first block holds the first of them
@example(period(v=1.0, loss=1e30), 2e15, 4 * _B)
# interior peaks, pruned on several levels; k = 2 takes the squaring path
@example(period(), 20.0, 2 * 10**5)
@example(period(beta=1.0, d=1), 20.0, 2 * 10**5)
@example(period(beta=2.0, d=0), 20.0, 2 * 10**5)
@example(period(v=1e-310, loss=1e300, alpha=1e12), 1e-10, 2 * 10**5)  # subnormal v
# leaves of 1024 points at 10**6 and 2**20 steps; 1024 divides 2**20, so
# there the last leaf holds only the point at steps, here the maximum
@example(period(), 20.0, 10**6)
@example(period(beta=2.0, d=0), 1.0, 2**20)
# a subnormal step: linspace's last point, z_max, lies below the one before
# it, where ebis - z still rises
@example(period(v=1.0, loss=1.0, alpha=1e308), 1600 * 5e-324, 1000)
def test_blocks_give_the_first_argmax_over_the_whole_grid(p, z_max, steps):
    z = linspace_grid(z_max, steps)
    values = ebis(z, PeriodBatch.one(p))
    values -= z
    expected = float(z[int(np.argmax(values))])
    assert grid_oracle(p, z_max, steps).hex() == expected.hex()


@settings(deadline=None, max_examples=40)
@given(p=_periods, z_max=_z_maxes, steps=_steps)
@example(period(), 20.0, 10**6)
@example(period(beta=2.0, d=0), 1.0, 2**20)  # the last leaf of 1024 points is one point
@example(period(v=1.0, loss=1e30), 2e15, 4 * _B)  # a plateau of ties across leaves
def test_leaf_size_does_not_change_the_result(p, z_max, steps):
    """Leaves of 32, 1024 or 32768 points give the same first maximum: the
    leaf only decides how far ranges are split before their points are scanned."""
    results = set()
    for leaf in (32, 1024, 32768):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("secinvest.check._ORACLE_LEAF", leaf)
            results.add(grid_oracle(p, z_max, steps).hex())
    assert len(results) == 1


_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, for a hash of z's bits


def _dipped_ebis(z, batch, out=None):
    """ebis minus 0 to 3 ulps of v*L, picked by the bits of each z: an ebis
    that falls between rising points, as a pow that is not monotone would."""
    values = ebis(z, batch, out)
    values -= (z.view(np.uint64) * _MIX >> np.uint64(62)) * math.ulp(batch.v * batch.loss)
    return values


@settings(deadline=None, max_examples=40)
@given(p=_periods, scale=st.floats(1.0, 3.0), steps=st.integers(1, 2 * 10**5))
# ebis rounds to steps of an ulp of v*L that span many grid points, so the
# dips decide the maximum; a bound without the pad drops the range that holds it
@example(period(v=1.0, loss=1e30), 1.5, 4 * _B)
@example(period(v=1.0, loss=1e30, beta=2.0), 2.0, 1000)
@example(period(v=1.0, loss=1e25, beta=2.0), 3.0, 2 * 10**5)
def test_pad_covers_an_ebis_that_is_not_monotone(p, scale, steps):
    z_max = closed_form_optimum(p) * scale + 1.0  # a peak inside the grid
    z = linspace_grid(z_max, steps)
    values = _dipped_ebis(z, PeriodBatch.one(p))
    values -= z
    expected = float(z[int(np.argmax(values))])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("secinvest.check.ebis", _dipped_ebis)
        assert grid_oracle(p, z_max, steps).hex() == expected.hex()


def _golden_section_on_arrays(p, z_max, tol):
    """golden_section_optimum's bracket loop, with each value of ebis taken
    from the batch kernel on a 1-element array."""
    batch = PeriodBatch.one(p)

    def value(z):
        return float(ebis(np.array([z]), batch)[0])

    a, b = 0.0, z_max
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = value(c) - c, value(d) - d
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = value(c) - c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = value(d) - d
    mid = 0.5 * (a + b)
    return 0.0 if value(0.0) >= value(mid) - mid else mid


@settings(deadline=None, max_examples=60)
@given(p=_periods, z_max=_z_maxes, tol=st.floats(-300.0, 2.0).map(lambda x: 10.0**x))
@example(period(), 20.0, 1e-9)
@example(period(v=1.0, loss=1e30, beta=2.0, d=1), LARGEST, 1e-300)  # the power overflows early on
@example(period(v=1e-310, loss=1e300, alpha=1e12), 1e-10, 1e-300)  # subnormal v
# searches that end elsewhere if a step's power is Python's ** instead of np.power
@example(period(v=0.11305837096076943, loss=0.6251881458762321, alpha=15.935403413508439, beta=2.0, d=1),
         64.50109800186267, 6.062977412254436e-54)
@example(period(v=0.6159471154181675, loss=2.620463362819536, alpha=45.526467452419745, beta=2.186336515407986, d=1),
         4.5172631104753584e+91, 1.0454347401546828e-66)
def test_golden_section_steps_are_rows_of_the_batch_kernel(p, z_max, tol):
    """Each step of golden section on floats takes the value that the batch
    kernel gives on a 1-element array, so the whole search ends on the same float."""
    assert golden_section_optimum(p, z_max, tol).hex() == _golden_section_on_arrays(p, z_max, tol).hex()


class TestOptimizeScenario:
    def test_single_period_matches_optimize_period(self):
        p = period()
        result = optimize_scenario(Scenario("one", (p,)))
        rec = optimize_period(p)
        assert result.plan.amounts == (rec.z_star,)
        assert result.per_period[0] == rec
        assert result.per_period.dtype.names == (
            "z_star", "breach_probability_at_optimum", "ebis_at_optimum")

    def test_integer_inputs_equal_their_float_twin(self):
        # alpha*k*v*L = 10**20 lies beyond int64, so the product must be formed in floats
        ints = PeriodSpec(1, 10**10, TechnologyProfile(10**5, 10**5, 0))
        floats = PeriodSpec(1.0, 1e10, TechnologyProfile(1e5, 1e5, 0))
        assert closed_form_optimum(ints) == closed_form_optimum(floats) > 0.0
        assert optimize_period(ints).item() == optimize_period(floats).item()

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
        _assert_records_within_the_error_bound(ps)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.one_of(_near_corner, _interior, _extreme), min_size=1, max_size=20))
    def test_records_within_the_error_bound(self, ps):
        _assert_records_within_the_error_bound(ps)

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
