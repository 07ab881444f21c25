"""V_nn and the exact-mode scan: the array evaluation must reproduce the scalar one bit for bit.

`reference_vnn` and `reference_scan` are the one-energy-at-a-time evaluation
and scan that the array code replaced. Roots must be `np.array_equal` to
theirs, and the array V_nn must equal the scalar value element for element,
NaN where the scalar raises, in exact and approx mode alike.
"""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest

from conftest import fig_anchor_harmonics, gaussian, spatial_config, temporal_config, \
    weak_harmonics
from mws.effpot import Members, PoleMember, PoleWeightTable, _vnn, build_bases, \
    build_pole_weight_table, exact_pole_general, exact_pole_pair, vnn_eval
from mws.errors import PoleProximityError, SolverError
from mws.model import build_spec
from mws.spectra import _bisect, find_roots_exact


def reference_vnn(table, epsilon):
    """Scalar V_nn with per-term compensated summation: over the poles in
    approx mode and for temporal drives, over the exact denominators else."""
    if not table.entries:
        return 0.0
    poles = np.array([e.pole for e in table.entries])
    tol = table.proximity_tol()
    nearest = int(np.argmin(np.abs(poles - epsilon)))
    if abs(poles[nearest] - epsilon) <= tol:
        raise PoleProximityError(
            f"epsilon {epsilon!r} is within {tol!r} of pole {poles[nearest]!r}"
        )
    if table.mode == "approx" or not table.spatial:
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


def reference_scan(table, epsilon0, n_samples=4001):
    """Scalar sample-and-bisect scan of the exact relation."""
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
    roots = []
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
                roots.append(x1)
            elif f1 * f2 < 0.0:
                roots.append(reference_bisect(f, x1, f1, x2, f2))
    if f(hi) == 0.0:
        roots.append(hi)
    return np.array(sorted(roots))


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
                           merge_tol=1e-9 * spread, mode="exact", total_energy=energy,
                           spatial=True)


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


@pytest.mark.parametrize("label,table,eps0", CASES, ids=[c[0] for c in CASES])
def test_scan_roots_bitwise_equal_to_scalar_scan(label, table, eps0):
    want = reference_scan(table, eps0)
    got = find_roots_exact(table, eps0)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), label


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
    exact = table.spatial and table.mode == "exact"
    assert len(errors) >= len(table.poles) + exact   # every pole, and E + 1 if exact


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x, -1.0, 3.0),                                    # f == 0 at a midpoint
    (lambda x: np.where(np.abs(x - 0.5) < 0.1, np.nan, x - 0.3), 0.0, 1.0),  # NaN midpoint
    (lambda x: np.where(x > 0.0, 1.0, -1.0), 0.0, 1e-13 * 2.0 ** 5),  # width == 1e-13
    (lambda x: np.where(x > 1e250, 1.0, -1.0), 0.0, 1e300),      # 200-halving cap
], ids=["zero", "undefined", "width", "cap"])
def test_bisect_exits_match_scalar(f, a, b):
    def scalar(x):
        v = float(f(np.array([x]))[0])
        return None if math.isnan(v) else v

    fa = float(f(np.array([a]))[0])
    want = reference_bisect(scalar, a, fa, b, float(f(np.array([b]))[0]))
    got = _bisect(f, np.array([a, a]), np.array([fa, fa]), np.array([b, b]))
    assert got.tolist() == [want, want]


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
