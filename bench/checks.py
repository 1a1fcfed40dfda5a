"""Output checker: golden bytes, and 50-digit mpmath recomputation.

Printed numbers are accepted within one unit of the 6th decimal of the
exact value. A printed total over n periods may also carry the rounding
error of summing n doubles in order, bounded by (n + 8) * u * sum|term|
with u = 2**-53 (recursive summation, Higham 2002, section 4.2, plus a few
ulps per term). Long CSVs are checked at seeded sample rows. Each checker
returns a list of mismatch messages; an empty list means the output is right.
"""

from __future__ import annotations

import random
import re

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 50
U = 2.0**-53
UNIT = 1e-6  # one unit of the 6th decimal
SHIFT_TOLERANCE = 1e-9  # the program's left/right/none band for the sweep
SAMPLE_ROWS = 24

_KV = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=(\S+)")


def exact_z_star(v, loss, alpha, k):
    """Closed-form maximizer of [v - S(z)]*L - z at 50 digits."""
    v, loss, alpha, k = MP.mpf(v), MP.mpf(loss), MP.mpf(alpha), MP.mpf(k)
    x = alpha * k * v * loss
    if x <= 1:
        return MP.mpf(0)
    return (x ** (1 / (k + 1)) - 1) / alpha


def exact_breach(v, alpha, k, z):
    return MP.mpf(v) / (MP.mpf(alpha) * MP.mpf(z) + 1) ** MP.mpf(k)


def exact_ebis(v, loss, alpha, k, z):
    return (MP.mpf(v) - exact_breach(v, alpha, k, z)) * MP.mpf(loss)


def _k(beta, d):
    return MP.mpf(beta) + d


def period_reference(period):
    """(z*, S(z*), EBIS(z*)) of one period as floats, from 50-digit values."""
    v, loss, alpha, beta, d = period
    k = _k(beta, d)
    z = exact_z_star(v, loss, alpha, k)
    return (float(z), float(exact_breach(v, alpha, k, z)), float(exact_ebis(v, loss, alpha, k, z)))


class ScenarioReference:
    """Exact per-period optimum of a scenario and its summed net benefit."""

    def __init__(self, spec):
        self.label = spec["label"]
        self.periods = spec["periods"]
        self.rows = [period_reference(p) for p in self.periods]
        self.enbis_total = float(
            MP.fsum(MP.mpf(ebis) - MP.mpf(z) for z, _, ebis in self.rows)
        )
        self.magnitude = sum(v * loss + z for (v, loss, *_), (z, _, _) in zip(self.periods, self.rows))

    def total_tol(self):
        return sum_tolerance(len(self.periods), self.magnitude)


def sum_tolerance(n, magnitude):
    return UNIT + (n + 8) * U * magnitude


def _close(printed, exact, tol=UNIT):
    try:
        value = float(printed)
    except ValueError:
        return False
    return abs(value - exact) <= tol


def _fields(line):
    return dict(_KV.findall(line))


def _sample(n, rng, count=SAMPLE_ROWS):
    if n <= count + 2:
        return list(range(n))
    return sorted({0, n - 1, *rng.sample(range(n), count)})


def check_golden(stdout: str, expected: bytes) -> list[str]:
    if stdout.encode() != expected:
        return ["stdout differs from the golden file"]
    return []


def check_optimize(stdout: str, ref: ScenarioReference, rng: random.Random) -> list[str]:
    lines = stdout.splitlines()
    errors = []
    if not lines or lines[0] != f"scenario={ref.label}":
        errors.append("missing scenario line")
    if len(lines) < 2 or lines[1] != f"periods={len(ref.periods)}":
        errors.append("missing or wrong periods line")
    rows = [ln for ln in lines if ln.startswith("period ")]
    if len(rows) != len(ref.periods):
        return errors + [f"{len(rows)} period lines for {len(ref.periods)} periods"]
    for i in _sample(len(rows), rng):
        f = _fields(rows[i])
        z, s, ebis = ref.rows[i]
        expect = {"z_star": z, "breach_probability": s, "ebis": ebis, "enbis": ebis - z}
        for key, value in expect.items():
            if key not in f or not _close(f[key], value):
                errors.append(f"period {i + 1}: {key}={f.get(key)} != {value:.9f}")
    total = _fields(lines[-1]).get("enbis_total")
    if total is None or not _close(total, ref.enbis_total, ref.total_tol()):
        errors.append(f"enbis_total={total} != {ref.enbis_total:.9f}")
    return errors


def _enbis_at(periods, plan):
    terms = [exact_ebis(v, loss, a, _k(b, d), z) - MP.mpf(z)
             for (v, loss, a, b, d), z in zip(periods, plan)]
    magnitude = sum(v * loss + z for (v, loss, *_), z in zip(periods, plan))
    return float(MP.fsum(terms)), sum_tolerance(len(periods), magnitude)


def delta_reference(spec, refs):
    """Exact (enbis_a, tol_a, enbis_b, tol_b) at the given or optimal plans."""
    if spec["plans"] is None:
        ref_a, ref_b = refs.scenario(spec["a"]), refs.scenario(spec["b"])
        return (ref_a.enbis_total, ref_a.total_tol(), ref_b.enbis_total, ref_b.total_tol())
    plan_a, plan_b = spec["plans"]
    ea, ta = _enbis_at(spec["a"]["periods"], plan_a)
    eb, tb = _enbis_at(spec["b"]["periods"], plan_b)
    return ea, ta, eb, tb


def check_delta(stdout: str, spec, reference) -> list[str]:
    ea, ta, eb, tb = reference
    threshold = spec["threshold"]
    f = {}
    for line in stdout.splitlines():
        f.update(_fields(line))
    errors = []
    for key, value, tol in (("delta_z", ea - eb, ta + tb), ("enbis_a", ea, ta),
                            ("enbis_b", eb, tb), ("threshold", threshold, UNIT)):
        if key not in f or not _close(f[key], value, tol):
            errors.append(f"{key}={f.get(key)} != {value:.9f}")
    if f.get("period_count") != str(len(spec["a"]["periods"])):
        errors.append(f"period_count={f.get('period_count')}")
    allowed = _classifications(ea, ta, eb, tb, threshold)
    if f.get("classified_disruptive") not in allowed:
        errors.append(f"classified_disruptive={f.get('classified_disruptive')}"
                      f" not in {sorted(allowed)}")
    return errors


def _classifications(ea, ta, eb, tb, threshold):
    """Values classify_disruptive may print for exact totals ea and eb
    known to within ta and tb.

    The rule is relative (B > A * (1 + threshold)) when ENBIS(A) > 0 and
    absolute otherwise, so it jumps at ENBIS(A) = 0. A total within its
    summation error of 0 (periods at or just past the corner, where
    ebis(z*) - z* cancels to below a double's resolution) may land on
    either side of 0 when summed in doubles, and then either rule is a
    faithful result.
    """
    rounding = ta - UNIT  # the summation error alone; no printing involved
    allowed = set()
    for relative in {ea > rounding, ea > -rounding}:
        if relative:
            margin, band = eb - ea * (1.0 + threshold), tb + ta * (1.0 + threshold)
        else:
            margin, band = eb - ea - threshold * max(1.0, abs(ea)), ta + tb
        if margin > band:
            allowed.add("true")
        elif margin < -band:
            allowed.add("false")
        else:
            allowed |= {"true", "false"}
    return allowed


def _shift_directions(z0, zd):
    """Directions the program may print for exact optima z0 and zd: every
    label whose band meets [diff - err, diff + err], err being the rounding
    of two doubles of that size."""
    err = 1e-12 + 8 * U * max(z0, zd)
    order = ("left", "none", "right")

    def label(diff):
        return 0 if diff < -SHIFT_TOLERANCE else 2 if diff > SHIFT_TOLERANCE else 1

    diff = zd - z0
    return set(order[label(diff - err): label(diff + err) + 1])


def check_sweep(stdout: str, spec, rng: random.Random) -> list[str]:
    alphas, betas, vs, losses = spec["grid"]
    lines = stdout.splitlines()
    n = len(alphas) * len(betas) * len(vs) * len(losses)
    if not lines or lines[0] != ("alpha,beta,vulnerability,loss,"
                                 "z_star_baseline,z_star_disrupted,shift_direction"):
        return ["missing sweep header"]
    rows = lines[1:]
    if len(rows) != n:
        return [f"{len(rows)} sweep rows for {n} tuples"]
    errors = []
    for i in _sample(n, rng):
        ia, rest = divmod(i, len(betas) * len(vs) * len(losses))
        ib, rest = divmod(rest, len(vs) * len(losses))
        iv, il = divmod(rest, len(losses))
        a, b, v, loss = alphas[ia], betas[ib], vs[iv], losses[il]
        z0 = float(exact_z_star(v, loss, a, _k(b, 0)))
        zd = float(exact_z_star(v, loss, a, _k(b, 1)))
        cells = rows[i].split(",")
        if len(cells) != 7:
            errors.append(f"sweep row {i}: {len(cells)} cells")
            continue
        for cell, value in zip(cells[:6], (a, b, v, loss, z0, zd)):
            if not _close(cell, value):
                errors.append(f"sweep row {i}: {cell} != {value:.9f}")
        if cells[6] not in _shift_directions(z0, zd):
            errors.append(f"sweep row {i}: direction {cells[6]} for z0={z0}, zd={zd}")
    return errors


def _rows(stdout: str, header: str, count: int):
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return None, [f"missing header {header!r}"]
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    footer = [ln for ln in lines[1:] if ln.startswith("#")]
    if len(rows) != count:
        return None, [f"{len(rows)} rows for {count} grid points"]
    return (rows, footer), []


def _grid(spec):
    return np.linspace(spec["z_min"], spec["z_max"], spec["steps"] + 1)


def check_curve(stdout: str, spec, rng: random.Random) -> list[str]:
    header = "z,ebis_0,enbis_0" + (",ebis_d,enbis_d" if spec["disrupted"] else "")
    grid = _grid(spec)
    parsed, errors = _rows(stdout, header, len(grid))
    if errors:
        return errors
    rows, footer = parsed
    v, loss, alpha, beta = spec["v"], spec["loss"], spec["alpha"], spec["beta"]
    dummies = (0, 1) if spec["disrupted"] else (0,)
    for i in _sample(len(grid), rng):
        z = float(grid[i])
        expect = [z]
        for d in dummies:
            ebis = float(exact_ebis(v, loss, alpha, _k(beta, d), z))
            expect += [ebis, ebis - z]
        cells = rows[i].split(",")
        if len(cells) != len(expect) or not all(map(_close, cells, expect)):
            errors.append(f"curve row {i}: {rows[i]} != {expect}")
    expect_footer = {f"z_star_{'d' if d else 0}": float(exact_z_star(v, loss, alpha, _k(beta, d)))
                     for d in dummies}
    got = {}
    for line in footer:
        got.update(_fields(line))
    for key, value in expect_footer.items():
        if key not in got or not _close(got[key], value):
            errors.append(f"footer {key}={got.get(key)} != {value:.9f}")
    return errors


def check_mix(stdout: str, spec, rng: random.Random) -> list[str]:
    grid = _grid(spec)
    parsed, errors = _rows(stdout, "index,branch,z,ebis", len(grid))
    if errors:
        return errors
    rows, _ = parsed
    v, loss, switch = spec["v"], spec["loss"], spec["switch"]
    for i in _sample(len(grid), rng):
        z = float(grid[i])
        branch = "pre" if i < switch else "post"
        alpha, beta = spec[branch]
        ebis = float(exact_ebis(v, loss, alpha, _k(beta, branch == "post"), z))
        cells = rows[i].split(",")
        if (len(cells) != 4 or cells[0] != str(i) or cells[1] != branch
                or not _close(cells[2], z) or not _close(cells[3], ebis)):
            errors.append(f"mix row {i}: {rows[i]} != {i},{branch},{z},{ebis}")
    return errors


def check_svg(text: str, polylines: int, points: int) -> list[str]:
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        return ["svg is not a closed <svg> document"]
    lines = re.findall(r'<polyline [^>]*points="([^"]*)"', text)
    if len(lines) != polylines:
        return [f"svg has {len(lines)} polylines, expected {polylines}"]
    counts = {len(pts.split(" ")) for pts in lines}
    if counts != {points}:
        return [f"svg polylines have {sorted(counts)} points, expected {points}"]
    return []


def check_call(call, stdout: str, rng: random.Random, refs) -> list[str]:
    """Check the stdout of one CLI call (and its SVG, if it wrote one).

    ``refs`` caches ScenarioReference objects by scenario label, so a large
    scenario is recomputed at 50 digits once per run.
    """
    spec = call.spec
    if call.kind == "golden":
        return check_golden(stdout, spec["expected"])
    if call.kind == "optimize":
        return check_optimize(stdout, refs.scenario(spec), rng)
    if call.kind == "delta":
        return check_delta(stdout, spec, delta_reference(spec, refs))
    if call.kind == "sweep":
        return check_sweep(stdout, spec, rng)
    if call.kind == "curve":
        errors = check_curve(stdout, spec, rng)
        if spec["svg"] is not None:
            columns = 4 if spec["disrupted"] else 2
            errors += check_svg(spec["svg"].read_text(), columns, spec["steps"] + 1)
        return errors
    if call.kind == "mix":
        errors = check_mix(stdout, spec, rng)
        if spec["svg"] is not None:
            errors += check_svg(spec["svg"].read_text(), 1, spec["steps"] + 1)
        return errors
    raise ValueError(f"unknown call kind {call.kind}")


class References:
    """Per-run cache of exact scenario references, keyed by label."""

    def __init__(self):
        self._by_label = {}

    def scenario(self, spec) -> ScenarioReference:
        ref = self._by_label.get(spec["label"])
        if ref is None or ref.periods != spec["periods"]:
            ref = self._by_label[spec["label"]] = ScenarioReference(spec)
        return ref


def check_verify(period, results, oracle_steps) -> list[str]:
    """Cross-check one verify op: closed form, grid oracle, golden section
    and dominance of the disrupted twin."""
    v, loss, alpha, beta, d = period
    optimum, grid_z, golden_z, dominant = results
    z_exact, s_exact, ebis_exact = period_reference(period)
    errors = []
    for name, got, want in (("z_star", optimum.z_star, z_exact),
                            ("breach_probability", optimum.breach_probability_at_optimum, s_exact),
                            ("ebis", optimum.ebis_at_optimum, ebis_exact)):
        if not abs(got - want) <= UNIT:
            errors.append(f"optimize_period {name}={got!r} != {want!r}")
    z_max = v * loss + 1.0
    if not abs(grid_z - z_exact) <= 2 * z_max / oracle_steps:
        errors.append(f"grid_oracle {grid_z!r} is more than 2 steps from {z_exact!r}")
    k = _k(beta, d)
    best = exact_ebis(v, loss, alpha, k, z_exact) - MP.mpf(z_exact)
    found = exact_ebis(v, loss, alpha, k, golden_z) - MP.mpf(golden_z)
    if not best - found <= UNIT * max(1.0, v * loss):
        errors.append(f"golden_section {golden_z!r} objective short by {float(best - found)}")
    if dominant is not True:
        errors.append("dominance_check rejected the disrupted twin")
    return errors
