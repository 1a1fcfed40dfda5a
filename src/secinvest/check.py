"""Cross-checks of the closed-form optimum: golden-section search and a grid
oracle maximize one period's net benefit without the first-order condition
(and would carry a future non-class-I breach-probability family). No CLI
subcommand runs them, so no CLI call loads this module."""

from __future__ import annotations

import math
import threading

import numpy as np

from .model import PeriodBatch, PeriodSpec, _check, ebis
from .optimize import _grid_points

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# each step shrinks the bracket by _INV_PHI, and 3100 steps take even the
# largest float below the smallest one; the cap only ends searches whose tol
# is finer than the float spacing near the optimum
_GOLDEN_MAX_STEPS = 3100
# grid points per block of grid_oracle: 256 KiB of floats, so a block and its
# values stay in a 4 MiB L2 cache; 32768 and 65536 ran equally fast
_ORACLE_BLOCK = 32768
# points of a grid_oracle leaf at most, and ranges of its first level: a
# level's ranges go to ebis in one call, so smaller leaves scan fewer points
# near a peak in as many calls; at most _ORACLE_BLOCK, or a block holds no
# whole leaf (head is 0) and the search loops forever
_ORACLE_LEAF = 128
# grid_oracle splits ranges 16 ways; smaller fans take more levels of calls
_ORACLE_FAN = 16
_oracle_buffers = threading.local()  # grid_oracle's block buffers, per thread


def golden_section_optimum(period: PeriodSpec, z_max: float, tol: float) -> float:
    """Golden-section maximizer of the per-period net benefit on [0, z_max].

    The class-I objective is concave, hence unimodal on any interval. Stops
    once the bracket is narrower than ``tol``, or at a fixed cap of steps.
    """
    _check("z_max", z_max, "loss")
    _check("tol", tol)
    batch = PeriodBatch.one(period)
    a, b = 0.0, float(z_max)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = ebis(c, batch) - c
    fd = ebis(d, batch) - d
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ebis(c, batch) - c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ebis(d, batch) - d
    mid = 0.5 * (a + b)
    # the corner z=0, where S = v and so ebis is 0, can beat the interior
    # midpoint when the optimum is flat
    return 0.0 if 0.0 >= ebis(mid, batch) - mid else mid


def grid_oracle(period: PeriodSpec, z_max: float, steps: int) -> float:
    """Brute-force maximizer over the uniform grid {0, z_max/steps, ..., z_max}.

    The first maximum of ebis(z) - z over ``np.linspace(0.0, z_max, steps + 1)``,
    bit for bit, found by branch and bound on the grid's indices. As ebis
    rises in z, no value on a range [a, b] exceeds (ebis(z_b) + pad) - z_a,
    with ``pad`` for the last-bit wobble of numpy's pow, and a range whose
    ends share one z holds just ebis(z) - z; concavity and the closed form
    are not used. Ranges are split ``_ORACLE_FAN`` ways, depth first and left
    to right, and one whose bound lies strictly below the best value seen is
    dropped, as it holds no maximum. So is one whose bound is not above the
    best value of the leaves scanned: it lies after them, so a tie there is
    not the first maximum. A range is checked when it is visited, against the
    values seen by then, so a flat grid of 10**8 steps takes about 100,000
    points and one of 2**53 steps about 330,000. The points of the leaves
    are scanned in index order, and a later block wins only with a greater
    value, so ties break toward the smallest z. Each call of ebis takes at
    most ``_ORACLE_BLOCK`` points, in buffers allocated once per thread. The
    bound is loose by about a range's width in z, so near a smooth peak 1e6
    steps scan 6.3e2 to 1.6e4 points in 3 calls, 10**12 steps 7.3e6.
    """
    _check("z_max", z_max, "loss")
    _check("steps", steps)
    z_max, steps = float(z_max), int(steps)
    batch = PeriodBatch.one(period)
    # pow is within an ulp, so ebis may dip by a few ulps of v*L where it
    # should rise; among subnormals, by a unit of 5e-324 in S and in ebis
    pad = (8 * math.ulp(1.0) * batch.v + 1e-322) * batch.loss + 1e-322
    # Near a peak the points scanned grow as sqrt(leaf * steps). Leaves hold
    # steps/8 points up to 2**10 steps, 128 up to 2**30, 2**37/steps beyond.
    leaf = max(32, min(steps // 8, 2**37 // steps, _ORACLE_LEAF))
    # The search starts from each range of the first level above the leaves
    # with at most _ORACLE_LEAF ranges, 16 ends each (or from the one leaf)
    width = leaf if steps < leaf else leaf * _ORACLE_FAN
    while steps // width >= _ORACLE_LEAF:
        width *= _ORACLE_FAN
    # A block's indices, points and values are formed in buffers that the
    # thread keeps from its first call: buffers freed at the end of a call go
    # back to the system where glibc trims the heap, and are faulted in again
    if not hasattr(_oracle_buffers, "blocks"):
        _oracle_buffers.blocks = np.empty(_ORACLE_BLOCK, np.int64), np.empty(_ORACLE_BLOCK), np.empty(_ORACLE_BLOCK)
    index, points, values = _oracle_buffers.blocks
    offsets = np.arange(leaf)  # of a leaf's points from its start
    # only a subnormal step puts the point at steps - 1 above z_max; ebis at
    # z_max then bounds no range ending there, so that range is never dropped
    above = _grid_points(np.array([steps - 1]), 0.0, z_max, steps)[0] > z_max
    incumbent, best, best_z = -math.inf, -math.inf, 0.0
    # ascending range starts, their bounds and their width
    # np.arange(0, steps + 1, width) would size itself in floats, one start
    # short where steps + 1 rounds (2**53)
    count = steps // width + 1
    live = [(np.arange(count, dtype=np.int64) * width, np.full(count, math.inf), width)]
    while live:
        start, bound, width = live.pop()
        child = width // _ORACLE_FAN if width > leaf else 1
        head = _ORACLE_BLOCK * child // width
        # the ranges of a few calls: checking all that are left on each pop
        # took time quadratic in their number
        cut = _ORACLE_FAN * head
        if start.size > cut:
            live.append((start[cut:], bound[cut:], width))
            start, bound = start[:cut], bound[:cut]
        # a range whose bound lies strictly below the best value seen holds
        # no maximum; the ranges left to visit lie after the leaves scanned,
        # so neither does one that only ties with their best
        keep = bound > best if best >= incumbent else bound >= incumbent
        start, bound = start[keep], bound[keep]
        if not start.size:
            continue
        if start.size > head:
            live.append((start[head:], bound[head:], width))
            start = start[:head]
        offset = offsets if child == 1 else np.arange(0, width, child)
        i = index[: start.size * offset.size].reshape(start.size, offset.size)
        i = np.add(start[:, None], offset, out=i).ravel()
        if start[-1] + offset[-1] > steps:  # only the last range may go past it
            i = i[: np.searchsorted(i, steps, "right")]
        last = np.minimum(i + (child - 1), steps) if child > 1 else i
        z_end = _grid_points(last, 0.0, z_max, steps, points[: i.size])
        ebis_end = ebis(z_end, batch, values[: i.size])
        if child == 1:  # the points of leaves, in index order
            net = np.subtract(ebis_end, z_end, out=ebis_end)
            j = int(net.argmax())
            if net[j] > best:
                best, best_z = float(net[j]), float(z_end[j])
            continue
        incumbent = max(incumbent, float((ebis_end - z_end).max()))
        z_start = _grid_points(i, 0.0, z_max, steps)
        with np.errstate(over="ignore"):
            # a range whose ends share one z holds one value, without wobble
            bound = (ebis_end + np.where(z_start < z_end, pad, 0.0)) - z_start
        if last[-1] == steps and above:
            bound[-1] = math.inf
        live.append((i.copy(), bound, child))  # i is a view of the index buffer
    return best_z
