"""Secular solver tests: certificates, error paths, and the scalar reference."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from mws import _kernels
from mws.errors import BracketError
from mws.model import build_spec
from mws.spectra import solve_spectrum


def random_table(rng, p_count, *, gap_lo=0.1, gap_hi=10.0, w_lo=0.05, w_hi=20.0):
    # cumulative gaps guarantee strictly separated poles without rejection
    gaps = rng.uniform(gap_lo, gap_hi, size=p_count)
    poles = rng.uniform(-50.0, 0.0) + np.cumsum(gaps)
    weights = rng.uniform(w_lo, w_hi, size=p_count)
    eps0 = rng.uniform(-60.0, 60.0)
    return poles, weights, float(eps0)


def wide_weight_table(rng, p_count):
    poles, _, eps0 = random_table(rng, p_count)
    return poles, 10.0 ** rng.uniform(-12.0, 1.7, size=p_count), eps0


def assert_certified(poles, result):
    roots, lo, hi, flo, fhi = result[:5]
    assert len(roots) == len(poles) + 1
    merged = np.empty(2 * len(poles) + 1)
    merged[0::2] = roots
    merged[1::2] = poles
    assert np.all(np.diff(merged) > 0.0)
    assert np.all(flo > 0.0)
    assert np.all(fhi < 0.0)
    assert np.all((lo <= roots) & (roots <= hi))


# ----------------------------------------------------- scalar reference solver
# The scalar bisection/secant solver the batched one replaced, kept verbatim
# in behaviour: compensated sum, near-pole search, 1e-10 bisection, secant.

def ref_secular_sum(poles, weights, x):
    s = 0.0
    c = 0.0
    for j in range(len(poles)):
        term = weights[j] / (x - poles[j])
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
    return s + c


def ref_residual(poles, weights, eps0, x):
    return ref_secular_sum(poles, weights, x) + (eps0 - x)


def _ref_near_pole(poles, weights, eps0, pole, delta, sign):
    # sign +1: right of the pole, need f > 0; sign -1: left of it, need f < 0
    while True:
        x = pole + sign * delta
        if (x - pole) * sign > 0 and ref_residual(poles, weights, eps0, x) * sign > 0:
            return x
        delta *= 0.25
        if (pole + sign * delta - pole) * sign <= 0:
            raise BracketError("no representable point near the pole")


def _ref_expand(poles, weights, eps0, pole, step, sign):
    # sign -1: left of the first pole, need f > 0; +1: right of the last, f < 0
    x = pole + sign * step
    for _ in range(400):
        if ref_residual(poles, weights, eps0, x) * sign < 0:
            return x
        x = pole + 2.0 * (x - pole)
        if not np.isfinite(x):
            break
    raise BracketError("expansion failed")


def _ref_refine(poles, weights, eps0, lo, hi, flo, fhi):
    target = 1e-10 * (hi - lo)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        fm = ref_residual(poles, weights, eps0, mid)
        if fm > 0.0:
            lo, flo = mid, fm
        elif fm < 0.0:
            hi, fhi = mid, fm
        else:
            return mid
    x0, f0, x1, f1 = lo, flo, hi, fhi
    best_x, best_f = (x0, f0) if abs(f0) < abs(f1) else (x1, f1)
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo < x2 < hi):
            x2 = 0.5 * (lo + hi)
        if x2 == x1 or x2 == x0 or not (lo < x2 < hi):
            break
        f2 = ref_residual(poles, weights, eps0, x2)
        if abs(f2) < abs(best_f):
            best_x, best_f = x2, f2
        if f2 > 0.0:
            lo, flo = x2, f2
        elif f2 < 0.0:
            hi, fhi = x2, f2
        else:
            return x2
        if abs(f2) <= 1e-12 * max(1.0, abs(x2), abs(eps0)):
            break
        if hi - lo <= 5e-16 * max(abs(lo), abs(hi)):
            break
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


def ref_solve_secular(poles, weights, eps0):
    pl, wl = [float(p) for p in poles], [float(w) for w in weights]
    n = len(pl)
    ref = max(pl[-1] - pl[0], 1.0)
    roots = []
    for i in range(n + 1):
        if i == 0:
            hi = _ref_near_pole(pl, wl, eps0, pl[0], 1e-8 * ref, -1)
            lo = _ref_expand(pl, wl, eps0, pl[0], ref, -1)
        elif i == n:
            lo = _ref_near_pole(pl, wl, eps0, pl[-1], 1e-8 * ref, +1)
            hi = _ref_expand(pl, wl, eps0, pl[-1], ref, +1)
        else:
            gap = pl[i] - pl[i - 1]
            lo = _ref_near_pole(pl, wl, eps0, pl[i - 1], 1e-8 * gap, +1)
            hi = _ref_near_pole(pl, wl, eps0, pl[i], 1e-8 * gap, -1)
        flo = ref_residual(pl, wl, eps0, lo)
        fhi = ref_residual(pl, wl, eps0, hi)
        roots.append(_ref_refine(pl, wl, eps0, lo, hi, flo, fhi))
    return np.array(roots)


# ------------------------------------------------------------------- tests

def test_secular_sum_matches_fsum():
    rng = np.random.default_rng(7)
    poles, weights, _ = random_table(rng, 9)
    x = poles[-1] + 3.0
    expected = math.fsum(w / (x - p) for p, w in zip(poles, weights))
    got = _kernels._pole_sums(poles, weights, np.array([x]))[0][0]
    assert got == pytest.approx(expected, rel=1e-15, abs=1e-300)


def test_secular_residual_is_sum_plus_line():
    rng = np.random.default_rng(8)
    poles, weights, eps0 = random_table(rng, 5)
    x = poles[0] - 2.5
    s = _kernels._pole_sums(poles, weights, np.array([x]))[0][0]
    r = _kernels._residual(poles, weights, eps0, np.array([x]))[0]
    assert r == pytest.approx(s + (eps0 - x), rel=1e-14, abs=1e-14)


def test_batched_sums_bitwise_equal_scalar_loop():
    # the solver's array evaluator against the scalar compensated loop
    rng = np.random.default_rng(12)
    checked = 0
    for p_count in range(1, 65):
        poles, weights, eps0 = wide_weight_table(rng, p_count)
        xs = np.concatenate([
            rng.uniform(poles[0] - 20.0, poles[-1] + 20.0, size=10),
            np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf),
        ])
        sums = _kernels._pole_sums(poles, weights, xs)[0]
        residuals = _kernels._residual(poles, weights, eps0, xs)
        for x, got_sum, got_res in zip(xs.tolist(), sums.tolist(), residuals.tolist()):
            want = ref_secular_sum(poles, weights, x)
            assert got_sum == want
            assert got_res == ref_residual(poles, weights, eps0, x)
            checked += 1
    assert checked > 4000


def test_single_pole_analytic_roots():
    # w/(x-p) = x - eps0 with p = eps0 = 0, w = 1: roots are -1 and +1
    poles = np.array([0.0])
    weights = np.array([1.0])
    roots, lo, hi, flo, fhi = _kernels.solve_secular(poles, weights, 0.0)
    assert np.allclose(roots, [-1.0, 1.0], rtol=0.0, atol=1e-14)
    assert np.all(flo > 0.0)
    assert np.all(fhi < 0.0)
    assert np.all(lo <= roots) and np.all(roots <= hi)


def test_certificates_and_alternation_random():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p_count = int(rng.integers(1, 13))
        poles, weights, eps0 = random_table(rng, p_count)
        assert_certified(poles, _kernels.solve_secular(poles, weights, eps0))


def test_matches_scalar_reference_on_wide_weights():
    """Roots agree with the scalar solver; never raises where it succeeds."""
    rng = np.random.default_rng(13)
    compared = 0
    for p_count in range(1, 65):
        poles, weights, eps0 = wide_weight_table(rng, p_count)
        try:
            want = ref_solve_secular(poles, weights, eps0)
        except BracketError:
            continue
        result = _kernels.solve_secular_batch([(poles, weights, eps0)])[0]
        assert_certified(poles, result)
        roots, residuals = result[0], result[5]
        assert np.all(np.abs(roots - want) <= 1e-13 * np.maximum(1.0, np.abs(roots)))
        assert residuals.tolist() == [abs(ref_residual(poles, weights, eps0, r))
                                      for r in roots.tolist()]
        compared += 1
    assert compared >= 32


def test_batch_over_mixed_sizes_equals_single_calls():
    rng = np.random.default_rng(14)
    tables = [random_table(rng, p) for p in (3, 0, 12, 1, 3, 7, 0, 12, 64)]
    batch = _kernels.solve_secular_batch(tables)
    assert len(batch) == len(tables)
    for table, got in zip(tables, batch):
        single = _kernels.solve_secular_batch([table])[0]
        assert len(got) == 6
        for a, b in zip(got, single):
            assert np.array_equal(a, b)
        assert len(got[0]) == len(table[0]) + 1


def test_poor_seeds_widen_to_the_same_certified_roots(monkeypatch):
    # seeds 1e-6 off need more rounds (Newton steps, x4 widenings of a side
    # still unknown) before the certificate holds; they must still land on
    # the same certified roots.
    rng = np.random.default_rng(15)
    tables = [random_table(rng, p) for p in (1, 5, 12)] + \
        [wide_weight_table(rng, p) for p in (3, 8)]
    want = _kernels.solve_secular_batch(tables)
    seeds = _kernels._arrowhead_eigenvalues
    for shift in (1e-6, -1e-6):
        monkeypatch.setattr(_kernels, "_arrowhead_eigenvalues",
                            lambda p, w, e0, s=shift: seeds(p, w, e0) * (1.0 + s) + s)
        for (poles, _, eps0), good, got in zip(tables, want,
                                               _kernels.solve_secular_batch(tables)):
            assert_certified(poles, got)
            tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(good[0]), abs(eps0)))
            assert np.all(np.abs(got[0] - good[0]) <= 2.0 * tol)


def test_batch_rejects_mismatched_table():
    with pytest.raises(ValueError):
        _kernels.solve_secular_batch([(np.array([0.0, 1.0]), np.array([1.0]), 0.0)])


def test_vanishing_weight_raises_bracket_error():
    # a weight at the underflow floor cannot support a bracket near its pole
    poles = np.array([0.0, 1.0])
    weights = np.array([1.0, 5e-324])
    with pytest.raises(BracketError, match=r"left of pole 1\.0 .*interval 1\b"):
        _kernels.solve_secular(poles, weights, 0.5)
    # in a batch the message names the table's position in it
    fine = (poles, np.array([1.0, 1.0]), 0.5)
    with pytest.raises(BracketError, match=r"\(table 2, interval 1\); weight 5e-324"):
        _kernels.solve_secular_batch([(poles[:1], weights[:1], 0.0), fine,
                                      (poles, weights, 0.5)])


def test_tight_cluster_still_certified():
    # two poles separated by ~1e-7 with ordinary weights
    poles = np.array([1.0, 1.0 + 1e-7])
    weights = np.array([0.5, 0.5])
    assert_certified(poles, _kernels.solve_secular(poles, weights, 0.0))


def test_wide_dynamic_range_weights():
    rng = np.random.default_rng(11)
    poles = np.sort(rng.uniform(-20.0, 20.0, size=6))
    poles += np.arange(6) * 1.0  # enforce gaps
    weights = 10.0 ** rng.uniform(-3, 2, size=6)
    assert_certified(poles, _kernels.solve_secular(poles, weights, 3.0))


def test_brackets_are_adjacent_floats_or_at_resolution():
    # the certificate on the float grid: each root is the better end of a
    # bracket f_lo > 0 > f_hi whose ends are adjacent floats (1 ulp, so at
    # most 2), unless f cannot tell the floats between them apart. That is
    # where its rounding floor 4u|eps0 - x| moves x by more than one float
    # (roots much closer to 0 than eps0): there the ends are at most two
    # resolutions 4u|eps0 - x|/|f'| apart, so (as |f'| >= 1) within
    # 8u max(|eps0 - lo|, |eps0 - hi|). A row may also end on an exact zero
    # between its ends, where a run of floats that all evaluate to 0 can
    # keep the signs further apart.
    rng = np.random.default_rng(16)
    rows = wide = 0
    for p_count in range(1, 65):
        for draw in (random_table, wide_weight_table):
            poles, weights, eps0 = draw(rng, p_count)
            try:
                result = _kernels.solve_secular(poles, weights, eps0)
            except BracketError:
                continue
            assert_certified(poles, result)
            roots, lo, hi, flo, fhi = result
            f_root = np.abs(_kernels._residual(poles, weights, eps0, roots))
            assert np.all(f_root <= np.minimum(np.abs(flo), -fhi))
            adjacent = hi == np.nextafter(lo, np.inf)
            resolved = hi - lo <= 8.0 * _kernels._U * np.maximum(np.abs(eps0 - lo),
                                                                 np.abs(eps0 - hi))
            assert np.all(adjacent | resolved | (f_root == 0.0))
            rows += len(roots)
            wide += int(np.sum(hi > np.nextafter(np.nextafter(lo, np.inf), np.inf)))
    assert rows > 3000
    assert wide <= rows // 50


@pytest.mark.parametrize("config", ("doc_spatial.json", "doc_temporal.json"))
def test_two_residual_rounds_per_doc_spectrum(monkeypatch, config):
    # f and f' at the seeds, then one round of Newton point and neighbours
    # certifies every root of the documented examples
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / config
    spec = build_spec(json.loads(path.read_text()))
    calls = []
    residual = _kernels._residual

    def counted(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(_kernels, "_residual", counted)
    solve_spectrum(spec)
    assert len(calls) == 2


def test_wide_pole_sums_bitwise_equal_scalar_loop():
    # past `_WIDE` points the sums go pole by pole; both layouts must give
    # the scalar loop's sums, and the same slope sums as the block form
    rng = np.random.default_rng(17)
    for p_count in (1, 7, 33):
        tables = [wide_weight_table(rng, p_count) for _ in range(3)]
        p = np.array([t[0] for t in tables]).T          # poles first, one table per column
        w = np.array([t[1] for t in tables]).T
        x = rng.uniform(-60.0, 60.0, size=(_kernels._WIDE // 2, 3))
        assert x.size >= _kernels._WIDE
        sums, squares = _kernels._pole_sums(p, w, x, slope=slice(None))
        for col, (poles, weights, _) in enumerate(tables):
            block_sums, block_squares = _kernels._pole_sums(
                poles, weights, x[:8, col], slope=slice(None))
            assert np.array_equal(sums[:8, col], block_sums)
            assert np.array_equal(squares[:8, col], block_squares)
            assert [ref_secular_sum(poles, weights, v) for v in x[:40, col].tolist()] == \
                sums[:40, col].tolist()
