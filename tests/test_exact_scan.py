"""V_nn and the exact-mode roots, each against an independent scalar reference.

`reference_vnn` is the one-energy-at-a-time V_nn: the array V_nn must equal
it bit for bit, NaN where it raises, in exact and approx mode alike.
`reference_scan` is the sample-and-refine scan that exact mode used before
its roots came from one eigenvalue problem in the Bloch wavenumber K; with
`reference_refine` (which mirrors `_refine` step for step) or
`reference_bisect` it is the oracle for `find_roots_exact`. A root counts
when it has the window certificate (`reference_certified`): within
1e-9*max(1,|r|) of it no member's denominator changes sign and the exact
relation does.
"""

import dataclasses
import functools
import importlib.util
import math
import re
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from conftest import fig_anchor_harmonics, gaussian, spatial_config, temporal_config, \
    weak_harmonics
from mws.effpot import _VNN_CHUNK, Members, PoleMember, PoleWeightTable, _vnn, build_bases, \
    build_pole_weight_table, exact_pole_general, exact_pole_pair, vnn_eval
from mws.errors import PoleProximityError, SolverError
from mws.model import build_spec
import mws.spectra
from mws.spectra import _k_companion, _refine, curve_edges, find_roots_exact


def reference_vnn(table, epsilon, proximity=True):
    """Scalar V_nn with per-term compensated summation: over the poles in
    approx mode and for temporal drives, over the exact denominators else.
    `proximity=False` skips the band of `proximity_tol()` around each pole."""
    if not table.entries:
        return 0.0
    poles = np.array([e.pole for e in table.entries])
    tol = table.proximity_tol()
    nearest = int(np.argmin(np.abs(poles - epsilon)))
    if proximity and abs(poles[nearest] - epsilon) <= tol:
        raise PoleProximityError(
            f"epsilon {epsilon!r} is within {tol!r} of pole {poles[nearest]!r}"
        )
    if not table.exact_spatial:
        terms = [e.weight / (epsilon - e.pole) for e in table.entries]
    else:
        e = table.total_energy
        if epsilon > e:
            raise SolverError(f"exact mode requires epsilon <= E, got {epsilon!r} > {e!r}")
        terms = []
        for entry in table.entries:
            for m in entry.members:
                d = epsilon - m.eps0_aux - m.eps_p \
                    - 2.0 * m.cos_alpha * math.sqrt((e - epsilon) * m.eps_p)
                if d == 0.0:
                    raise PoleProximityError(
                        f"exact denominator vanished at epsilon {epsilon!r} "
                        f"(channel {m.channel}, n'={m.n_prime})"
                    )
                terms.append(m.weight / d)
    total = 0.0
    comp = 0.0
    for term in terms:
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
    return total + comp


def reference_bisect(f, a, fa, b, fb):
    """Scalar bisection; f returns None where it is undefined."""
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm is None:
            break
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a <= 1e-13 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def reference_refine(f, a, fa, b, fb):
    """Scalar safeguarded regula falsi, step for step as `_refine`; f returns
    None where it is undefined."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if b - a <= 1e-13 * max(1.0, abs(a)):
        return 0.5 * (a + b)
    neg_a = fa < 0.0
    kept = 0                    # 1: a kept last round, 2: b kept
    undefined = False
    widths = [math.inf] * 4
    for r in range(200):
        width = b - a
        stalled = width > 0.5 * widths[r % 4]
        widths[r % 4] = width
        step = 0.25 * (1e-13 * max(1.0, abs(a)))
        x_rf = (a * fb - b * fa) / (fb - fa)
        x = min(max(x_rf, a + step), b - step)
        interp = a <= x_rf <= b and a < x < b and not undefined and not stalled
        if not interp:
            x = 0.5 * (a + b)
        fx = f(x)
        undefined = fx is None
        if undefined:
            if not interp:
                return x
            continue
        if fx == 0.0:
            return x
        if (fx < 0.0) != neg_a:           # the root is in (a, x): b moves
            if kept == 1:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, kept = x, fx, 1
        else:
            if kept == 2:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, kept = x, fx, 2
        if b - a <= 1e-13 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


@functools.cache
def reference_sign_changes(table, epsilon0, n_samples=4001):
    """Scalar sampling of the exact relation: (f, roots on samples, sign
    changes (x1, f1, x2, f2)), f returning None where it is undefined."""
    e = table.total_energy
    poles = [float(p) for p in table.poles if p < e]
    if poles:
        spread = poles[-1] - poles[0] if len(poles) > 1 else 0.0
        lo = min(poles[0], epsilon0) - (spread + 1.0)
    else:
        lo = epsilon0 - 1.0
    hi = e
    if hi <= lo:
        lo = hi - max(1.0, abs(hi))
    edges = [lo] + [p for p in poles if lo < p < hi] + [hi]

    def f(eps):
        try:
            return reference_vnn(table, eps) - eps + epsilon0
        except SolverError:
            return None

    per = max(16, n_samples // max(1, len(edges) - 1))
    on_sample, changes = [], []
    for a, b in zip(edges, edges[1:]):
        gap = b - a
        if gap <= 0.0:
            continue
        offs = [gap * 10.0 ** (-j) for j in range(12, 0, -1)]
        xs = sorted(
            {a + d for d in offs if a < a + d < b}
            | {b - d for d in offs if a < b - d < b}
            | set(np.linspace(a + 0.1 * gap, b - 0.1 * gap, per).tolist())
        )
        vals = [f(x) for x in xs]
        for (x1, f1), (x2, f2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
            if f1 is None or f2 is None:
                continue
            if f1 == 0.0:
                on_sample.append(x1)
            elif f1 * f2 < 0.0:
                changes.append((x1, f1, x2, f2))
    if f(hi) == 0.0:
        on_sample.append(hi)
    return f, on_sample, changes


def reference_scan(table, epsilon0, refine=reference_refine):
    """Scalar sample-and-refine scan of the exact relation; `refine(f, a, fa,
    b, fb)` finds the root of each sign change."""
    f, on_sample, changes = reference_sign_changes(table, epsilon0)
    return np.array(sorted(on_sample + [refine(f, *change) for change in changes]))


def counted(f, calls):
    """f, appending 1 to `calls` per evaluation."""
    def wrapper(x):
        calls.append(1)
        return f(x)
    return wrapper


def harmonics(n_p):
    bump = gaussian(0.4, 0.45, 0.2)
    if n_p == 1:
        return [{"index": 1, "amplitude": bump}]
    if n_p == 2:
        return [{"index": 1, "amplitude": bump}, {"index": -1, "amplitude": dict(bump)}]
    return fig_anchor_harmonics()


def spec_tables():
    """(label, table, eps0) over a grid of spatial exact-mode specs."""
    out = []
    for n_p in (1, 2, 4):
        for n_prime in (1, 2, 4):
            for n_s in (1, 2):
                for energy in (9.0, 14.5, 23.0):
                    cfg = spatial_config(harmonics(n_p), energy=energy, n_base=n_s,
                                         n_prime=n_prime, denominator="exact")
                    spec = build_spec(cfg)
                    bases = build_bases(spec)
                    for n in range(1, n_s + 1):
                        out.append((f"Np={n_p} n'={n_prime} Ns={n_s} E={energy} n={n}",
                                    build_pole_weight_table(spec, bases, n),
                                    float(bases.base.eigenvalues[n - 1])))
    return out


def synthetic(members, poles, energy):
    """Exact table from explicit members; entry i holds member i at poles[i]."""
    columns = Members(*map(np.array, zip(*map(astuple, members))))
    spread = poles[-1] - poles[0] if len(poles) > 1 else 0.0
    return PoleWeightTable(base_state=1, poles=np.array(poles), weights=columns.weight.copy(),
                           starts=np.arange(len(poles) + 1), members=columns,
                           merge_tol=1e-9 * spread, exact_spatial=True, total_energy=energy)


def synthetic_tables():
    # every pole above E: the scan takes its no-pole branch
    above = synthetic([PoleMember(1, 1, 0.05, 0.5, 0.5, 1.0),
                       PoleMember(-1, 1, 0.07, 2.0, 0.5, -1.0)], [7.5, 9.0], 6.0)
    # general angle: cos(alpha) = +-0.3, poles from the general-angle form
    angle = sorted(((exact_pole_general(0.5 * n * n, 0.8, 12.0, c),
                     PoleMember(1, n, 0.02 * n, 0.5 * n * n, 0.8, c))
                    for n in (1, 2, 3) for c in (0.3, -0.3)), key=lambda t: t[0])
    # one pole at 0 with intervals wider than 1000: samples next to the pole
    # lie outside proximity_tol (1e-9) on both sides, with opposite signs
    wide = synthetic([PoleMember(1, 1, 0.5, 0.0, 0.0, 1.0)], [0.0], 5000.0)
    return [("no poles below E", above, 1.25),
            ("wide intervals", wide, -5000.0),
            ("cos alpha = +-0.3",
             synthetic([m for _, m in angle], [p for p, _ in angle], 12.0), 2.0)]


def approx_tables():
    """(label, table, eps0) of rational tables: spatial approx mode and temporal."""
    configs = [(f"approx Np={n_p} n'={n_prime}",
                spatial_config(harmonics(n_p), energy=14.5, n_base=2, n_prime=n_prime))
               for n_p in (1, 2, 4) for n_prime in (1, 4)]
    configs += [(f"temporal n'={n_prime}", temporal_config(weak_harmonics(), n_prime=n_prime))
                for n_prime in (1, 4)]
    out = []
    for label, cfg in configs:
        spec = build_spec(cfg)
        bases = build_bases(spec)
        out += [(f"{label} n={n}", build_pole_weight_table(spec, bases, n),
                 float(bases.base.eigenvalues[n - 1])) for n in (1, 2)]
    return out


CASES = spec_tables() + synthetic_tables()
VNN_CASES = CASES + approx_tables()


def probe_points(table, eps0):
    """Energies across the scan range, at and next to every pole, and above E."""
    e = table.total_energy
    xs = list(np.linspace(min(eps0, *table.poles) - 3.0, e + 1.0, 101))
    for p in table.poles:
        tol = table.proximity_tol()
        xs += [p, p - 0.5 * tol, p + tol, p - tol, p - 2.0 * tol,
               np.nextafter(p + tol, np.inf)]
    return np.array(xs + [e, np.nextafter(e, np.inf)], dtype=float)


def reference_denominators(table, epsilon):
    """Scalar exact denominators of every member, in table order."""
    e = table.total_energy
    return [epsilon - m.eps0_aux - m.eps_p - 2.0 * m.cos_alpha * math.sqrt((e - epsilon) * m.eps_p)
            for entry in table.entries for m in entry.members]


def reference_certified(table, epsilon0, r):
    """The window certificate of a root r, in scalar arithmetic: on
    [r - h, min(r + h, E)], h = 1e-9*max(1,|r|), no member's denominator
    changes sign and f = V_nn - eps + eps0 does (or is 0 at an end)."""
    h = 1e-9 * max(1.0, abs(r))
    lo, hi = r - h, min(r + h, table.total_energy)
    signs = [[d > 0.0 for d in reference_denominators(table, x)] for x in (lo, hi)]
    if signs[0] != signs[1]:
        return False
    try:
        f_lo, f_hi = (reference_vnn(table, x, proximity=False) - x + epsilon0 for x in (lo, hi))
    except SolverError:     # a denominator vanished at an end
        return False
    return f_lo * f_hi <= 0.0


def assert_matches_oracle(label, table, eps0, want, got, same_count):
    """Every certified oracle root is returned within 1e-13*max(1,|r|), every
    returned root is certified, and (for `same_count`) the counts agree."""
    for r in want.tolist():
        if reference_certified(table, eps0, r):
            assert np.min(np.abs(got - r), initial=np.inf) <= 1e-13 * max(1.0, abs(r)), \
                (label, r)
    for r in got.tolist():
        assert reference_certified(table, eps0, r), (label, r)
    assert np.all(np.diff(got) > 0.0) and np.all(got <= table.total_energy), label
    if same_count:
        assert len(got) == len(want), (label, got, want)


SPEC_LABELS = {label for label, _, _ in spec_tables()}


# The ids below are kept from when these tests pinned the scan bit for bit;
# they now check the K-eigenvalue roots against the scan as an oracle.
@pytest.mark.parametrize("label,table,eps0", CASES, ids=[c[0] for c in CASES])
def test_scan_roots_bitwise_equal_to_scalar_scan(label, table, eps0):
    want = reference_scan(table, eps0)
    got = find_roots_exact(table, eps0)
    assert got.dtype == want.dtype
    assert_matches_oracle(label, table, eps0, want, got, label in SPEC_LABELS)


@pytest.mark.parametrize("label,table,eps0", CASES, ids=[c[0] for c in CASES])
def test_scan_roots_match_bisection(label, table, eps0):
    want = reference_scan(table, eps0, refine=reference_bisect)
    got = find_roots_exact(table, eps0)
    assert_matches_oracle(label, table, eps0, want, got, label in SPEC_LABELS)


def test_no_poles_below_e_table_keeps_only_certified_roots():
    label, table, eps0 = synthetic_tables()[0]
    assert label == "no poles below E"
    want = reference_scan(table, eps0)
    got = find_roots_exact(table, eps0)
    # the scan reports a root at a singularity that no table pole lists:
    # member (1, 1)'s denominator changes sign there and f jumps through it
    singular = 3.316624790355256
    assert singular in want.tolist()
    assert not reference_certified(table, eps0, singular)
    h = 1e-9 * singular
    d_lo, d_hi = (reference_denominators(table, x)[0] for x in (singular - h, singular + h))
    assert d_lo < 0.0 < d_hi
    f_lo, f_hi = (reference_vnn(table, x) - x + eps0 for x in (singular - h, singular + h))
    assert f_lo < -1e6 and f_hi > 1e6
    assert np.min(np.abs(got - singular)) > 1e-3
    # a root below the scan's lower edge (eps0 - 1) is found, and certified
    low = got[np.abs(got + 1.36476) < 1e-5]
    assert len(low) == 1 and low[0] < eps0 - 1.0
    assert reference_certified(table, eps0, float(low[0]))


def test_refinement_needs_at_most_half_the_bisection_rounds(monkeypatch):
    rounds = []

    def counting_refine(f, *brackets):
        calls = []
        roots = _refine(counted(f, calls), *brackets)
        rounds.append(len(calls))
        return roots

    monkeypatch.setattr(mws.spectra, "_refine", counting_refine)
    bisection = 0
    for _, table, eps0 in CASES:
        find_roots_exact(table, eps0)
        f, _, changes = reference_sign_changes(table, eps0)
        per_bracket = [0]
        for change in changes:
            calls = []
            reference_bisect(counted(f, calls), *change)
            per_bracket.append(len(calls))
        bisection += max(per_bracket)   # an array bisection runs until its last bracket stops
    assert max(rounds) <= 200
    assert sum(rounds) <= 0.5 * bisection, (sum(rounds), bisection)


def scalar_of(f):
    """The scalar form of an array function, None where it is NaN."""
    def scalar(x):
        v = float(f(np.array([x]))[0])
        return None if math.isnan(v) else v
    return scalar


def nan_band(center, half, g):
    return lambda x: np.where(np.abs(x - center) < half, np.nan, g(x))


@pytest.mark.parametrize("f,a,b,root,rounds", [
    # the first regula falsi point is the root
    (lambda x: x, -1.0, 3.0, 0.0, 1),
    # NaN at the first interpolant (0.75); the midpoint 0.5 moves b, and the
    # next interpolant is the root 3/8
    (nan_band(0.75, 0.01, lambda x: np.where(x <= 0.5, 3.0 - 8.0 * x, -1.0)),
     0.0, 1.0, 0.375, 3),
    # NaN at the interpolant 0.5, then at the midpoint 0.5: the midpoint is the root
    (nan_band(0.5, 0.1, lambda x: 1.0 - 2.0 * x), 0.0, 1.0, 0.5, 2),
    # the root 1e-17 above a: the interpolant rounds onto a, and the minimum
    # step a + 2.5e-14 closes the bracket to within the stop width
    (lambda x: 1e-17 - (x - 0.5), 0.5, 1.0, 0.5 * (0.5 + (0.5 + 2.5e-14)), 1),
    # the interpolant 1e-13 leaves b - a == 1e-13: the stop width, not one round more
    (lambda x: np.where(x > 0.5e-13, 1.0, -1.0), 0.0, 2e-13, 0.5e-13, 1),
    # an infinite f leaves no interpolant: 200 midpoints of a 1e300-wide
    # bracket fall short of the stop width at 1e250, so the cap ends the search
    (lambda x: np.where(x < 1e250, np.inf, -1.0), 0.0, 1e300, None, 200),
], ids=["zero", "undefined-interpolant", "undefined-midpoint", "end", "width", "cap"])
def test_refine_exits_match_scalar(f, a, b, root, rounds):
    fa, fb = float(f(np.array([a]))[0]), float(f(np.array([b]))[0])
    want = reference_refine(scalar_of(f), a, fa, b, fb)
    calls = []
    got = _refine(counted(f, calls), np.array([a, a]), np.array([fa, fa]),
                  np.array([b, b]), np.array([fb, fb]))
    assert got.tolist() == [want, want]
    assert len(calls) == rounds
    if root is not None:
        assert want == root


def test_refine_finishes_zero_end_and_narrow_brackets_without_evaluating():
    # an f == 0 end (a, then b), and a bracket 1.5e-13 wide at |a| = 2,
    # inside the stop width 2e-13
    a = np.array([0.0, 1.0, 2.0])
    fa = np.array([0.0, 1.0, 1.0])
    b = np.array([1.0, 2.0, 2.0 + 1.5e-13])
    fb = np.array([-1.0, 0.0, -1.0])
    calls = []
    got = _refine(counted(lambda x: 1.0 - x, calls), a, fa, b, fb)
    assert calls == []
    assert got.tolist() == [reference_refine(None, *bracket)
                            for bracket in zip(a.tolist(), fa.tolist(), b.tolist(),
                                               fb.tolist())]
    assert got.tolist() == [0.0, 2.0, 0.5 * (2.0 + (2.0 + 1.5e-13))]


@pytest.mark.parametrize("f,a,b", [
    # a steep 1/(x - p) side with the root 1e-6 from the pole p = 0
    (lambda x: 1e-6 / x - 1.0, 1e-12, 10.0),
    # the same, seen from the other side of the root
    (lambda x: 1.0 - 1e-6 / x, 1e-12, 10.0),
    # an infinite slope at the end E = 4: sqrt(E - x) - c, root 1e-8 below E
    (lambda x: np.sqrt(4.0 - x) - 1e-4, -10.0, 4.0),
    # a step function, its jump at 1/3
    (lambda x: np.where(x < 1.0 / 3.0, 1.0, -1.0), 0.0, 1.0),
], ids=["pole-side", "pole-side-flipped", "sqrt-end", "step"])
def test_refine_certifies_adversarial_brackets(f, a, b):
    fa, fb = float(f(np.array([a]))[0]), float(f(np.array([b]))[0])
    calls = []
    root = float(_refine(counted(f, calls), np.array([a]), np.array([fa]),
                         np.array([b]), np.array([fb]))[0])
    assert root == reference_refine(scalar_of(f), a, fa, b, fb)
    bisect_calls = []
    reference_bisect(counted(scalar_of(f), bisect_calls), a, fa, b, fb)
    # the 4-round halving rule: never slower than a quarter of bisection's rate
    assert len(calls) <= min(200, 4 * len(bisect_calls) + 4)
    width = 1e-13 * max(1.0, abs(root))
    lo, hi = np.array([root - width]), np.array([min(root + width, b)])
    assert f(lo)[0] * f(hi)[0] <= 0.0


def recording_refine(monkeypatch, wide):
    """Patch `_refine` to append, per call, whether each bracket handed to it
    is wider than its stop width (so it takes rounds)."""
    refine = mws.spectra._refine

    def recording(f, a, fa, b, fb):
        wide.append(b - a > 1e-13 * np.maximum(1.0, np.abs(a)))
        return refine(f, a, fa, b, fb)

    monkeypatch.setattr(mws.spectra, "_refine", recording)


def counting_exact_vnn(monkeypatch, calls):
    vnn = mws.spectra._exact_vnn

    def counting(*args):
        calls.append(1)
        return vnn(*args)

    monkeypatch.setattr(mws.spectra, "_exact_vnn", counting)


def test_exact_vnn_calls_per_table(monkeypatch):
    calls, wide = [], []
    counting_exact_vnn(monkeypatch, calls)
    recording_refine(monkeypatch, wide)
    # every candidate of this table certifies inside eps -+ delta: the one
    # f call of the window check is all it takes
    (_, table, eps0), = [c for c in CASES if c[0] == "Np=4 n'=4 Ns=1 E=9.0 n=1"]
    assert len(find_roots_exact(table, eps0)) == 17
    assert len(calls) == 1 and not np.any(wide)
    calls.clear()
    spec = [(table, eps0) for label, table, eps0 in CASES if label in SPEC_LABELS]
    assert len(spec) == 81
    for table, eps0 in spec:
        find_roots_exact(table, eps0)
    assert len(calls) <= 2 * len(spec), len(calls)


def test_moved_eigenvalues_still_give_every_root_through_refine(monkeypatch):
    # every companion eigenvalue moved by 1e-11 relative moves each candidate
    # by about K^2 1e-11 in eps, off its inner window eps -+ delta but inside
    # its window (h = 1e-9 max(1, |eps|)); on "wide intervals" (E = 5000)
    # that move, about 1e-7, leaves the window, so that table is not used
    cases = [c for c in CASES if c[0] != "wide intervals"]
    want = {label: exact_roots(table, eps0) for label, table, eps0 in cases}
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda mat: eigvals(mat) * (1.0 + 1e-11))
    wide = []
    recording_refine(monkeypatch, wide)
    for label, table, eps0 in cases:
        wide.clear()
        got, messages = exact_roots(table, eps0)
        roots, unpatched_messages = want[label]
        assert messages == unpatched_messages, label
        assert len(got) == len(roots), label
        assert np.all(np.abs(got - roots) <= 1e-13 * np.maximum(1.0, np.abs(roots))), label
        # no inner window certified: every root took _refine's rounds
        assert len(wide) == 1 and np.all(wide[0]), label


def raises(table, x):
    """Whether the scalar V_nn raises at x."""
    try:
        reference_vnn(table, x)
    except SolverError:
        return True
    return False


CHUNK_CASES = [c for c in VNN_CASES if c[0] in ("Np=4 n'=4 Ns=2 E=14.5 n=1",
                                                "approx Np=4 n'=4 n=1", "temporal n'=4 n=2")]


@pytest.mark.parametrize("label,table,eps0", CHUNK_CASES, ids=[c[0] for c in CHUNK_CASES])
def test_chunked_vnn_matches_one_energy_evaluation(label, table, eps0):
    # 2 _VNN_CHUNK + 3 energies: the probe points (poles, pole bands, E and
    # above) shuffled among evenly spaced ones, each block led by an energy
    # where the scalar V_nn raises
    probes = probe_points(table, eps0)
    undefined = np.array([raises(table, x) for x in probes.tolist()])
    fill = np.linspace(min(eps0, *table.poles) - 3.0, table.total_energy + 1.0,
                       2 * _VNN_CHUNK + 3 - len(probes))
    rest = np.concatenate([probes[undefined][3:], probes[~undefined], fill])
    xs = np.insert(np.random.default_rng(5).permutation(rest),
                   [0, _VNN_CHUNK - 1, 2 * _VNN_CHUNK - 2], probes[undefined][:3])
    got = _vnn(table, xs)
    one = np.array([_vnn(table, xs[i:i + 1])[0] for i in range(len(xs))])
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(one))
    assert len(xs) == 2 * _VNN_CHUNK + 3 and nan[[0, _VNN_CHUNK, 2 * _VNN_CHUNK]].all()
    assert got[~nan].tobytes() == one[~nan].tobytes()
    defined = xs[~nan]
    assert vnn_eval(table, defined).tobytes() == \
        np.array([vnn_eval(table, float(x)) for x in defined]).tobytes()


@pytest.mark.parametrize("label,table,eps0", VNN_CASES, ids=[c[0] for c in VNN_CASES])
def test_array_vnn_matches_scalar_elementwise(label, table, eps0):
    xs = probe_points(table, eps0)
    got = _vnn(table, xs)
    errors = []
    for x, g in zip(xs.tolist(), got.tolist()):
        try:
            want = reference_vnn(table, x)
        except SolverError as err:
            errors.append(err)
            assert math.isnan(g), (label, x)
            for arg in (x, np.array([x])):
                with pytest.raises(type(err), match=re.escape(str(err))):
                    vnn_eval(table, arg)
            continue
        assert np.float64(g).tobytes() == np.float64(want).tobytes(), (label, x)
        assert vnn_eval(table, x) == want, (label, x)
    defined = ~np.isnan(got)
    assert vnn_eval(table, xs[defined]).tobytes() == got[defined].tobytes()
    # an array call raises what its first undefined energy raises
    with pytest.raises(type(errors[0]), match=re.escape(str(errors[0]))):
        vnn_eval(table, xs)
    exact = table.exact_spatial
    assert len(errors) >= len(table.poles) + exact   # every pole, and E + 1 if exact


def test_scan_cuts_at_unlisted_plus_branch_singularity():
    # one cos(alpha) = -1 harmonic, n' = 4 level with 0 <= E - eps0' < eps_p:
    # its denominator also vanishes at the plus branch of exact_pole_pair,
    # which no table pole lists; the root just below it must not be missed
    bump = {"kind": "gaussian", "height": 0.5, "center": 1.2, "width": 0.6}
    cfg = spatial_config([{"index": -1, "amplitude": bump}], energy=8.3, period=6.5,
                         n_prime=4, denominator="exact")
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    eps0 = float(bases.base.eigenvalues[0])
    m = table.members
    hidden = exact_pole_pair(float(m.eps0_aux[-1]), float(m.eps_p[-1]), 8.3)[0]
    assert hidden not in table.poles and hidden < 8.3

    roots = find_roots_exact(table, eps0)
    assert len(roots) == 6
    near = roots[-1]
    assert hidden - 1e-3 < near < hidden
    # an independent sign change of the relation on both sides of the root
    f = [reference_vnn(table, x) - x + eps0 for x in (near - 1e-9, near + 1e-9)]
    assert f[0] < 0.0 < f[1]


def test_vanishing_denominator_is_nan_and_named_error():
    # eps_p = 0 leaves d = eps - eps0': zero at eps = 1.0, far from both poles
    table = synthetic([PoleMember(1, 1, 0.2, -3.0, 0.5, 1.0),
                       PoleMember(3, 2, 0.1, 1.0, 0.0, 1.0)], [-2.0, 5.0], 10.0)
    assert math.isnan(_vnn(table, np.array([1.0]))[0])
    with pytest.raises(PoleProximityError,
                       match=r"exact denominator vanished at epsilon 1\.0 "
                             r"\(channel 3, n'=2\)"):
        vnn_eval(table, 1.0)
    with pytest.raises(PoleProximityError):
        reference_vnn(table, 1.0)


def test_error_order_proximity_before_energy():
    # a pole above E: at that pole proximity is reported, not epsilon > E
    table = synthetic([PoleMember(1, 1, 0.1, 0.5, 0.5, 1.0)], [7.0], 6.0)
    with pytest.raises(PoleProximityError, match="is within"):
        vnn_eval(table, 7.0)
    with pytest.raises(SolverError, match="requires epsilon <= E"):
        vnn_eval(table, 6.5)


def test_table_arrays_built_once_read_only(anchor_spatial_spec, anchor_spatial_bases):
    table = build_pole_weight_table(anchor_spatial_spec, anchor_spatial_bases, 1)
    assert table.poles is table.poles
    assert table.weights is table.weights
    assert np.array_equal(table.poles, [e.pole for e in table.entries])
    assert np.array_equal(table.weights, [e.weight for e in table.entries])
    for arr in (table.poles, table.weights, table.starts, *table.members):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        table.members.weight = table.members.weight.copy()


def exact_roots(table, eps0):
    """find_roots_exact's roots and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = find_roots_exact(table, eps0)
    return roots, [str(w.message) for w in caught]


@pytest.mark.parametrize("cos_alpha", [1.0, -1.0])
def test_double_k_pole_at_eps0_prime_equal_to_e(cos_alpha):
    # eps0' = E: R = 0, so the member's term is -4w/(K + G)^2, a Jordan pair
    energy = 6.0
    table = synthetic([PoleMember(2, 1, 0.2, 1.0, 0.5, 1.0),
                       PoleMember(1, 1, 0.3, energy, 0.8, cos_alpha)],
                      [1.0 - 0.5 + 2.0 * math.sqrt(0.5 * 5.0), energy - 0.8], energy)
    eps0 = 2.0
    mat = _k_companion(table.members, energy, eps0)
    assert mat.shape == (6, 6) and mat.dtype == np.float64
    assert mat[1, 5] == 4.0 * 0.3                   # y2 = y1^2 enters row 1
    got, messages = exact_roots(table, eps0)
    assert messages == []
    assert len(got) > 0
    assert_matches_oracle("double pole", table, eps0, reference_scan(table, eps0), got,
                          same_count=False)
    # the double singularity at E - eps_p, where the cos(alpha) = -1 member's
    # denominator touches 0 without a sign change, carries no root
    assert np.min(np.abs(got - (energy - 0.8))) > 1e-6


def test_complex_k_poles_give_a_complex_companion_and_certified_roots():
    # cos(alpha) = 0.3 with eps_p sin^2(alpha) > E - eps0': R^2 < 0, so this
    # member's denominator has no real zero and its K-poles are complex
    energy = 12.0
    members = [PoleMember(1, 2, 0.2, 2.0, 0.8, -0.3), PoleMember(1, 1, 0.4, 11.0, 10.0, 0.3)]
    table = synthetic(members, [exact_pole_general(2.0, 0.8, energy, -0.3), 50.0], energy)
    eps0 = 3.0
    assert np.iscomplexobj(_k_companion(table.members, energy, eps0))
    got, messages = exact_roots(table, eps0)
    assert messages == [] and len(got) > 0
    assert_matches_oracle("complex K-poles", table, eps0, reference_scan(table, eps0), got,
                          same_count=False)


def test_root_in_the_window_of_a_singularity_is_dropped_with_a_warning():
    # a weight of 1e-12 puts a root about 1e-12 from the singularity of its
    # member: its window holds the singularity, so it is not certified
    energy = 6.0
    member = PoleMember(1, 1, 1e-12, 2.0, 0.5, -1.0)
    singular = exact_pole_pair(2.0, 0.5, energy)
    table = dataclasses.replace(synthetic([member], [singular[1]], energy), base_state=3)
    eps0 = 1.0
    got, messages = exact_roots(table, eps0)
    assert len(messages) == 1
    assert "base state 3" in messages[0] and re.search(r"\b[12] eigenvalue", messages[0])
    for s in singular:
        assert np.all(np.abs(got - s) > 1e-9 * max(1.0, abs(s)))
    for r in got.tolist():
        assert reference_certified(table, eps0, r)
    assert np.min(np.abs(got - eps0)) < 1e-9        # the root near the line's eps0


@pytest.mark.parametrize("cos_alpha", [1.0, -1.0])
def test_root_at_e_where_k_is_zero(cos_alpha):
    # f(E) = w/(E - eps0' - eps_p) - E + eps0 = 0.25 - 6 + 5.75 = 0 exactly
    energy = 6.0
    table = synthetic([PoleMember(1, 1, 0.5, 3.0, 1.0, cos_alpha)],
                      [exact_pole_pair(3.0, 1.0, energy)[cos_alpha < 0]], energy)
    eps0 = 5.75
    assert reference_vnn(table, energy) - energy + eps0 == 0.0
    got, messages = exact_roots(table, eps0)
    assert messages == []
    assert got[-1] == energy
    assert_matches_oracle("root at E", table, eps0, reference_scan(table, eps0), got,
                          same_count=False)


@pytest.mark.parametrize("eps0", [-2.5, 4.0, 6.0])
def test_table_without_members_has_the_one_root_eps0(eps0):
    energy = 6.0
    empty = Members(*(np.array([], dtype=dtype) for dtype in (int, int, float, float, float,
                                                               float)))
    table = PoleWeightTable(base_state=1, poles=np.array([]), weights=np.array([]),
                            starts=np.array([0]), members=empty, merge_tol=0.0,
                            exact_spatial=True, total_energy=energy)
    got, messages = exact_roots(table, eps0)
    assert messages == []
    assert len(got) == 1 and abs(got[0] - eps0) <= 1e-13 * max(1.0, abs(eps0))
    # above E the line has no root on the eps <= E branch
    assert len(exact_roots(table, energy + 1.0)[0]) == 0


def test_two_members_with_one_singularity_report_no_root_at_it():
    # two channels with the same level, eps_p and cos(alpha) share both
    # singularities: the K-pole is double, and an eigenvalue lands on it
    energy = 6.0
    members = [PoleMember(1, 1, 0.3, 2.0, 0.5, -1.0), PoleMember(3, 2, 0.2, 2.0, 0.5, -1.0)]
    singular = exact_pole_pair(2.0, 0.5, energy)
    table = synthetic(members, [singular[1], singular[1]], energy)
    eps0 = 1.0
    got, messages = exact_roots(table, eps0)
    for s in singular:
        assert np.all(np.abs(got - s) > 1e-9 * max(1.0, abs(s)))
    # the eigenvalue on the double K-pole is the one candidate dropped
    assert len(messages) == 1 and "1 eigenvalue candidate(s) of base state 1" in messages[0]
    assert_matches_oracle("shared singularity", table, eps0, reference_scan(table, eps0), got,
                          same_count=False)


def seed1_exact_tables():
    """(label, table, eps0) of every exact-scan seed-1 op whose tables build."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    out = []
    for op in workloads.exact_scan_ops(1):
        model_spec = build_spec(op.doc)
        bases = build_bases(model_spec)
        try:
            tables = [build_pole_weight_table(model_spec, bases, n)
                      for n in range(1, model_spec.n_base + 1)]
        except SolverError:         # a closed channel: exact pole needs E >= eps0
            continue
        out += [(op.label, t, float(bases.base.eigenvalues[t.base_state - 1])) for t in tables]
    return out


def sign_change(table, a, b):
    """Members whose exact denominator changes sign between a and b."""
    return [i for i, (da, db) in enumerate(zip(reference_denominators(table, a),
                                               reference_denominators(table, b)))
            if (da > 0.0) != (db > 0.0)]


def test_scan_edges_are_the_real_k_poles_of_the_seed1_tables():
    tables = seed1_exact_tables()
    assert len(tables) == 114
    for label, table, eps0 in tables:
        edges = curve_edges(table, eps0)
        cuts = edges[1:-1]
        # every cut is a member's singularity
        for c in cuts:
            h = 1e-9 * max(1.0, abs(c))
            assert sign_change(table, c - h, c + h), (label, c)
        # every table pole below E whose members do not vanish there is no cut
        for p in table.poles.tolist():
            h = 1e-9 * max(1.0, abs(p))
            if edges[0] < p < table.total_energy and not sign_change(table, p - h, p + h):
                assert all(abs(c - p) > h for c in cuts), (label, p)
    # exact spatial Np=2 n'=6 Ns=1: its table pole 17.769830904200997 is
    # listed for member (1, 6), whose denominator does not vanish there; the
    # cut stays, because member (-1, 6) has its plus-branch singularity there
    (label, table, eps0), = [(lb, t, e) for lb, t, e in tables
                              if lb.startswith("exact spatial Np=2 n'=6 Ns=1")]
    listed = 17.769830904200997
    assert listed in table.poles.tolist()
    h = 1e-9 * listed
    labels = list(zip(table.members.channel.tolist(), table.members.n_prime.tolist()))
    assert [labels[i] for i in sign_change(table, listed - h, listed + h)] == [(-1, 6)]
    assert any(abs(c - listed) <= 1e-14 * listed for c in curve_edges(table, eps0))


def test_scan_edges_drop_a_listed_pole_that_is_no_singularity():
    # the mirror of test_scan_cuts_at_unlisted_plus_branch_singularity: one
    # cos(alpha) = +1 harmonic, n' = 4 level with 0 <= E - eps0' < eps_p; the
    # table lists eps0' - eps_p + 2 sqrt(eps_p (E - eps0')), where that
    # member's denominator has no zero, and no other member vanishes there
    bump = {"kind": "gaussian", "height": 0.5, "center": 1.2, "width": 0.6}
    cfg = spatial_config([{"index": 1, "amplitude": bump}], energy=8.3, period=6.5,
                         n_prime=4, denominator="exact")
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    eps0 = float(bases.base.eigenvalues[0])
    m = table.members
    assert 0.0 <= 8.3 - m.eps0_aux[-1] < m.eps_p[-1]
    listed = exact_pole_pair(float(m.eps0_aux[-1]), float(m.eps_p[-1]), 8.3)[0]
    assert listed in table.poles.tolist() and listed < 8.3
    h = 1e-9 * max(1.0, abs(listed))
    assert sign_change(table, listed - h, listed + h) == []
    edges = curve_edges(table, eps0)
    assert all(abs(c - listed) > 1e-6 for c in edges)
    assert len(edges) == len(table.poles) + 1      # lo, the other three poles, E
    got, messages = exact_roots(table, eps0)
    assert messages == []
    assert_matches_oracle("plus-only drive", table, eps0, reference_scan(table, eps0), got,
                          same_count=True)
