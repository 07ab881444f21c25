"""Root structure, counting laws, realisation grouping, appendix diagnostics."""

import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mws.spectra as spectra
from conftest import centred_harmonics, gaussian, spatial_config, temporal_config, \
    weak_harmonics
from mws.effpot import Members, PoleWeightTable, build_bases, build_pole_weight_table, \
    merge_poles
from mws.errors import BracketError, SolverError, UnsupportedModeError
from mws.model import build_spec, scale_amplitudes
from mws.spectra import (
    CountReport,
    RootSet,
    SpectrumResult,
    StateSpectrum,
    _assert_rootset,
    appendix_auxiliary_roots,
    appendix_k_shift,
    assert_interlacing,
    count_solutions,
    find_roots,
    find_roots_exact,
    group_realisations,
    modified_equation_residual,
    realisation_separation,
    solve_spectrum,
    split_at_largest_gaps,
)


def synthetic_table(poles, weights, *, exact_spatial=False, energy=0.0):
    poles = np.array(poles, dtype=float)
    weights = np.array(weights, dtype=float)
    size = len(poles)
    members = Members(np.ones(size, dtype=int), np.arange(1, size + 1), weights.copy(),
                      np.zeros(size), np.zeros(size), np.ones(size))
    spread = float(poles[-1] - poles[0]) if len(poles) > 1 else 0.0
    return PoleWeightTable(base_state=1, poles=poles, weights=weights,
                           starts=np.arange(size + 1), members=members,
                           merge_tol=1e-9 * spread, exact_spatial=exact_spatial,
                           total_energy=energy)


def pair(height=0.3):
    return [
        {"index": 1, "amplitude": gaussian(height, 0.5, 0.2)},
        {"index": -1, "amplitude": gaussian(height, 0.5, 0.2)},
    ]


# ---------------------------------------------------------------- root finding

def test_empty_table_root_is_eps0_exactly():
    table = synthetic_table([], [])
    rs = find_roots(table, 1.875)
    assert rs.roots.tolist() == [1.875]
    assert rs.residuals.tolist() == [0.0]


def test_error_messages_print_plain_floats():
    # a residual-gate failure and a vanishing-weight bracket failure
    table = synthetic_table([0.0, 1.0], [1.0, 1.0])
    rs = find_roots(table, 0.5)
    bad = RootSet(roots=rs.roots, bracket_lo=rs.bracket_lo, bracket_hi=rs.bracket_hi,
                  f_lo=rs.f_lo, f_hi=rs.f_hi, residuals=np.full(3, 0.5))
    messages = []
    with pytest.raises(SolverError, match="residual 0.5 at root") as gate:
        _assert_rootset(table.poles, bad, 1)
    messages.append(str(gate.value))
    with pytest.raises(BracketError, match="pole 1.0") as bracket:
        find_roots(synthetic_table([0.0, 1.0], [1.0, 5e-324]), 0.5)
    messages.append(str(bracket.value))
    assert not any("np.float64(" in m for m in messages)


def test_every_entry_point_gates_its_roots(monkeypatch):
    # doc_spatial_nprime6 in approx mode fails the residual gate; find_roots and
    # the appendix refuse the same table with solve_spectrum's own message
    configs = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    doc = json.loads((configs / "doc_spatial_nprime6.json").read_text())
    spec = build_spec(dict(doc, modes=dict(doc["modes"], denominator="approx")))
    with pytest.raises(SolverError, match="residual") as want:
        solve_spectrum(spec)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    eps0 = float(bases.base.eigenvalues[0])
    with pytest.raises(SolverError) as got:
        find_roots(table, eps0)
    assert str(got.value) == str(want.value)

    # the appendix rebuilds that table: omega = 0 leaves its poles at the levels
    # of base0's other states, and harmonic 2's couplings square to its weights
    couplings = np.sqrt(table.weights)
    assert np.array_equal(couplings ** 2, table.weights)
    base0 = SimpleNamespace(n_states=len(table.poles) + 1,
                            eigenvalues=np.concatenate([[eps0], table.poles]))
    monkeypatch.setattr(spectra, "matrix_element", lambda b0, b1, amplitude, n_prime, n:
                        couplings[n_prime - 2] if n_prime != n else 0.0)
    harmonics = tuple(SimpleNamespace(index=k, amplitude=None) for k in (1, 2))
    fake = SimpleNamespace(is_spatial=False, indices=(1, 2), harmonics=harmonics,
                           perturbation=SimpleNamespace(angular_frequency=0.0))
    with pytest.raises(SolverError) as got:
        appendix_auxiliary_roots(fake, base0, 1, 1)
    assert str(got.value) == str(want.value)


def test_single_pole_symmetric_roots():
    # w = 1, p = eps0 = 0: eps^2 = 1
    table = synthetic_table([0.0], [1.0])
    rs = find_roots(table, 0.0)
    assert np.allclose(rs.roots, [-1.0, 1.0], rtol=0.0, atol=1e-14)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_interlacing_property(data):
    p_count = data.draw(st.integers(min_value=1, max_value=12))
    start = data.draw(st.floats(min_value=-50.0, max_value=0.0))
    gaps = data.draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                              min_size=p_count, max_size=p_count))
    weights = data.draw(st.lists(st.floats(min_value=0.05, max_value=20.0),
                                 min_size=p_count, max_size=p_count))
    eps0 = data.draw(st.floats(min_value=-60.0, max_value=60.0))
    poles = start + np.cumsum(gaps)
    table = synthetic_table(poles, weights)
    rs = find_roots(table, eps0)
    assert len(rs.roots) == p_count + 1
    assert_interlacing(poles, rs.roots)
    assert np.all(rs.f_lo > 0.0)
    assert np.all(rs.f_hi < 0.0)


def test_scale_equivariance():
    rng = np.random.default_rng(12)
    poles = np.cumsum(rng.uniform(0.5, 3.0, size=6)) - 4.0
    weights = rng.uniform(0.2, 2.0, size=6)
    eps0 = 0.8
    base = find_roots(synthetic_table(poles, weights), eps0).roots
    for s in (0.5, 2.0, 7.5):
        scaled = find_roots(synthetic_table(s * poles, s * s * weights),
                            s * eps0).roots
        rel = np.abs(scaled - s * base) / np.maximum(1.0, np.abs(s * base))
        assert np.max(rel) < 1e-10


def test_assert_interlacing_rejects_bad_sets():
    poles = np.array([0.0, 1.0])
    with pytest.raises(SolverError):
        assert_interlacing(poles, np.array([-1.0, 0.5]))      # wrong count
    with pytest.raises(SolverError):
        assert_interlacing(poles, np.array([-1.0, 2.0, 3.0]))  # no alternation


def test_find_roots_rejects_exact_spatial_tables():
    table = synthetic_table([0.5], [0.3], exact_spatial=True, energy=9.0)
    with pytest.raises(UnsupportedModeError):
        find_roots(table, 0.0)


def test_find_roots_exact_scan_finds_verified_zeros():
    from mws.effpot import vnn_eval

    cfg_a = spatial_config(pair(0.4), energy=220.0, n_base=1, n_prime=1)
    cfg_e = spatial_config(pair(0.4), energy=220.0, n_base=1, n_prime=1,
                           denominator="exact")
    spec_a, spec_e = build_spec(cfg_a), build_spec(cfg_e)
    bases_a, bases_e = build_bases(spec_a), build_bases(spec_e)
    ta = build_pole_weight_table(spec_a, bases_a, 1)
    te = build_pole_weight_table(spec_e, bases_e, 1)
    eps0 = float(bases_a.base.eigenvalues[0])
    ra = find_roots(ta, eps0).roots
    re = find_roots_exact(te, eps0)
    assert len(re) == len(ra)        # one per pole interval plus the line root
    assert np.all(re <= 220.0)
    # each reported value is a genuine zero of the exact residual
    for r in re:
        assert abs(vnn_eval(te, float(r)) - r + eps0) < 1e-6 * max(1.0, abs(r))
    # the root on the line (far from all poles) agrees across modes at high E
    near_a = ra[np.argmin(np.abs(ra - eps0))]
    near_e = re[np.argmin(np.abs(re - eps0))]
    assert abs(near_a - near_e) < 5e-3


# ------------------------------------------------------------------- counting

@pytest.mark.parametrize("n_p,n_prime,n_s,n_max,n_0,n_delta", [
    (4, 2, 1, 9, 3, 6),
    (4, 3, 1, 13, 4, 9),
    (2, 1, 1, 3, 2, 1),
    (6, 3, 4, 76, 16, 60),
])
def test_count_formulas(n_p, n_prime, n_s, n_max, n_0, n_delta):
    harmonics = []
    for k in range(1, n_p // 2 + 1):
        harmonics.append({"index": k, "amplitude": gaussian(0.3, 0.5, 0.2)})
        harmonics.append({"index": -k, "amplitude": gaussian(0.3, 0.5, 0.2)})
    spec = build_spec(temporal_config(harmonics, n_base=n_s, n_prime=n_prime))
    counts = count_solutions(spec)
    assert counts.n_p == n_p
    assert counts.n_max == n_max
    assert counts.n_0 == n_0
    assert counts.n_delta == n_delta
    assert counts.n_max == counts.n_0 + counts.n_delta
    assert counts.n_max_reduced == n_p * n_prime + 1
    assert counts.max_per_normal_reduced == pytest.approx(
        (n_p * n_prime + 1) / (n_prime + 1))


def test_solve_spectrum_anchor_counts(anchor_spatial_spec):
    result = solve_spectrum(anchor_spatial_spec)
    assert result.observed_total == 9
    assert result.degeneracy_deficit == 0
    st1 = result.states[0]
    assert len(st1.table.poles) == 8
    assert_interlacing(st1.table.poles, st1.roots)


def test_zero_perturbation_reduction():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], n_base=3, n_prime=2)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    with pytest.warns(UserWarning, match="short"):
        result = solve_spectrum(spec)
    assert result.observed_total == 3
    for st_ in result.states:
        eps0 = float(bases.base.eigenvalues[st_.n - 1])
        assert abs(st_.roots[0] - eps0) <= 1e-12


@pytest.mark.parametrize("n_prime", (1, 2, 4))
@pytest.mark.parametrize("n_base", (1, 2, 4))
@pytest.mark.parametrize("config", (temporal_config, spatial_config))
def test_centred_drive_solves(config, n_base, n_prime):
    # parity-forbidden couplings are rounding noise or 0.0; both deflate, so
    # no root hugs a pole of noise weight that no float can bracket
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # deficit of deflated poles
        result = solve_spectrum(build_spec(config(centred_harmonics(), n_base=n_base,
                                                  n_prime=n_prime)))
    assert len(result.states) == n_base
    assert all("entries" not in st_.table.__dict__ for st_ in result.states)


def test_spectrum_state_order_and_eps0(weak_temporal_spec, weak_temporal_bases):
    result = solve_spectrum(weak_temporal_spec)
    assert [st_.n for st_ in result.states] == [1, 2]
    for st_ in result.states:
        want = float(weak_temporal_bases.base.eigenvalues[st_.n - 1])
        assert st_.epsilon0 == want
        # per-state count: n_p * n_prime + 1
        assert len(st_.roots) == 9


# ------------------------------------------------------------------- grouping

def test_split_at_largest_gaps_pairs():
    vals = np.array([0.0, 0.1, 5.0, 5.1, 10.0, 10.1, 15.0, 15.1])
    groups = split_at_largest_gaps(vals, 4)
    assert [g.tolist() for g in groups] == [
        [0.0, 0.1], [5.0, 5.1], [10.0, 10.1], [15.0, 15.1]]


def test_split_single_group_is_identity():
    vals = np.array([1.0, 2.0, 30.0])
    groups = split_at_largest_gaps(vals, 1)
    assert len(groups) == 1
    assert groups[0].tolist() == vals.tolist()


def test_split_leftmost_tie_break():
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    groups = split_at_largest_gaps(vals, 2)
    # all gaps equal: the cut goes after the first value
    assert [g.tolist() for g in groups] == [[0.0], [1.0, 2.0, 3.0]]


def test_split_rejects_too_many_groups():
    with pytest.raises(SolverError):
        split_at_largest_gaps(np.array([1.0, 2.0]), 3)


def _clustered_result():
    # four pole bunches below eps0-free space; eps0 sits just below the lowest
    # bunch so its line crossing attaches to that bunch
    poles = np.array([10.0, 10.5, 20.0, 20.5, 30.0, 30.5, 40.0, 40.5])
    weights = np.full(8, 0.4)
    table = synthetic_table(poles, weights)
    eps0 = 7.0
    rs = find_roots(table, eps0)
    state = StateSpectrum(n=1, epsilon0=eps0, table=table, rootset=rs)
    counts = CountReport(n_p=4, n_prime=2, n_s=1, n_max=9, n_0=3, n_delta=6,
                         n_max_reduced=9, n_0_reduced=3, n_delta_reduced=6,
                         max_per_normal_reduced=3.0)
    return SpectrumResult(states=(state,), counts=counts, observed_total=9,
                          degeneracy_deficit=0, mode="approx")


def test_auto_grouping_splits_at_bunch_gaps():
    result = _clustered_result()
    ens = group_realisations(result)
    assert ens.method == "auto-largest-gaps"
    assert ens.n_r == 4
    assert len(ens.realisations) == 4
    sizes = [len(r.members) for r in ens.realisations]
    assert sizes == [3, 2, 2, 2]
    # every group lies inside one bunch span (plus the line root on the first)
    spans = [(6.5, 11.0), (19.5, 21.0), (29.5, 31.0), (39.5, 41.0)]
    for r, (lo, hi) in zip(ens.realisations, spans):
        for m in r.members:
            assert lo <= m.value <= hi


def test_explicit_n_r_one_takes_everything():
    result = _clustered_result()
    ens = group_realisations(result, n_r=1)
    assert ens.method == "largest-gaps"
    assert len(ens.realisations) == 1
    assert len(ens.realisations[0].members) == 9


def test_grouping_respects_formal_bound():
    result = _clustered_result()
    # bound = n_prime*(n_p - 1) + 1 = 7
    with pytest.raises(SolverError):
        group_realisations(result, n_r=8)


def test_grouping_member_indices_are_per_state_and_sorted():
    result = _clustered_result()
    ens = group_realisations(result)
    js = [m.j for r in ens.realisations for m in r.members]
    assert js == list(range(1, 10))


def test_auto_grouping_on_real_clustered_config():
    cfg = temporal_config(weak_harmonics(), omega=40.0, n_base=1, n_prime=2)
    spec = build_spec(cfg)
    result = solve_spectrum(spec)
    ens = group_realisations(result)
    assert ens.n_r == spec.n_harmonics == 4
    assert sum(len(r.members) for r in ens.realisations) == result.observed_total


# ---------------------------------------------------------------- separations

def test_min_separation_exact_value():
    spec = build_spec(spatial_config(pair(), energy=8.0, period=2.0 * np.pi))
    est = realisation_separation(spec)
    assert est.min_estimate == 4.0


def test_max_separation_is_mean_level_spacing():
    spec = build_spec(spatial_config(pair(), points=2000, n_base=3, n_prime=1))
    basis = build_bases(spec).base
    est = realisation_separation(spec, basis=basis)
    # levels ~ {0.5, 2, 4.5}: mean consecutive spacing 2.0
    assert est.max_estimate == pytest.approx(2.0, abs=2e-4)
    assert est.max_estimate == pytest.approx(
        float(np.mean(np.diff(basis.eigenvalues))), rel=1e-15)


def test_min_separation_unsupported_for_temporal():
    spec = build_spec(temporal_config(pair()))
    with pytest.raises(UnsupportedModeError):
        realisation_separation(spec)
    est = realisation_separation(spec, want_min=False)
    assert est.min_estimate is None
    assert est.max_estimate > 0.0


# ------------------------------------------------------------------- appendix

def test_appendix_roots_count_and_interlacing(weak_temporal_spec, weak_temporal_bases):
    spec = weak_temporal_spec
    base0 = weak_temporal_bases.base
    for k in spec.indices:
        for n in (1, 2):
            ar = appendix_auxiliary_roots(spec, base0, k, n)
            assert len(ar.roots) == base0.n_states + 1
            assert_interlacing(ar.poles, ar.roots)
            omega = spec.perturbation.angular_frequency
            want = np.sort(base0.eigenvalues - omega * k)
            assert np.allclose(ar.poles, want, rtol=0.0, atol=1e-12)


def test_appendix_weights_sum_other_channels(weak_temporal_spec, weak_temporal_bases):
    from mws.eigenbasis import matrix_element

    spec = weak_temporal_spec
    base0 = weak_temporal_bases.base
    ar = appendix_auxiliary_roots(spec, base0, 2, 1)
    for pos, w in zip(ar.poles, ar.weights):
        n_prime = int(np.argmin(np.abs(
            base0.eigenvalues - spec.perturbation.angular_frequency * 2 - pos))) + 1
        manual = sum(
            abs(matrix_element(base0, base0, h.amplitude, n_prime, 1)) ** 2
            for h in spec.harmonics if h.index != 2
        )
        assert w == pytest.approx(manual, rel=1e-12)


def test_appendix_merges_through_merge_poles(weak_temporal_spec, weak_temporal_bases,
                                            monkeypatch):
    calls = []

    def spy(poles, weights):
        calls.append(poles.tolist())
        out = merge_poles(poles, weights)
        calls.append(out)
        return out

    monkeypatch.setattr(spectra, "merge_poles", spy)
    ar = appendix_auxiliary_roots(weak_temporal_spec, weak_temporal_bases.base, 1, 1)
    poles, (_, starts, weights) = calls
    assert poles == sorted(poles)
    assert ar.poles.tolist() == [poles[i] for i in starts[:-1].tolist()]
    assert ar.weights is weights


def test_appendix_rejects_spatial_and_unknown(anchor_spatial_spec,
                                              anchor_spatial_bases,
                                              weak_temporal_spec,
                                              weak_temporal_bases):
    with pytest.raises(UnsupportedModeError):
        appendix_auxiliary_roots(anchor_spatial_spec, anchor_spatial_bases.base, 1, 1)
    with pytest.raises(SolverError):
        appendix_auxiliary_roots(weak_temporal_spec, weak_temporal_bases.base, 7, 1)


def test_k_shift_spread_shrinks_with_amplitude(weak_temporal_spec):
    spec = weak_temporal_spec
    base0 = build_bases(spec).base
    full = appendix_k_shift(spec, base0, 1).spread
    half_spec = scale_amplitudes(spec, 0.5)
    half = appendix_k_shift(half_spec, build_bases(half_spec).base, 1).spread
    assert full / half >= 3.0


def test_k_shift_root_sets_aligned(weak_temporal_spec, weak_temporal_bases):
    diag = appendix_k_shift(weak_temporal_spec, weak_temporal_bases.base, 1)
    lengths = {len(v) for v in diag.per_k.values()}
    assert lengths == {weak_temporal_bases.base.n_states}
    assert diag.spread >= 0.0


# ------------------------------------------------------ modified-equation form

def test_modified_equation_residual_zero_perturbation():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], n_base=2, n_prime=2)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    for n in (1, 2):
        eps0 = float(bases.base.eigenvalues[n - 1])
        assert modified_equation_residual(spec, bases, eps0, n) < 1e-8


def test_modified_equation_residual_quadratic_in_amplitude(weak_temporal_spec):
    # the EP treats the base state to first order; the leftover is O(lambda^2)
    residual = {}
    for s in (0.25, 0.125):
        spec = scale_amplitudes(weak_temporal_spec, s)
        bases = build_bases(spec)
        result = solve_spectrum(spec)
        st1 = result.states[0]
        root = float(st1.roots[np.argmin(np.abs(st1.roots - st1.epsilon0))])
        residual[s] = modified_equation_residual(spec, bases, root, 1)
    assert residual[0.25] / residual[0.125] >= 3.0
