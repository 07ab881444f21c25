"""Pole positions, weight tables, kernel evaluation, and operator action."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mws.effpot as effpot
from conftest import centred_harmonics, fig_anchor_harmonics, gaussian, spatial_config, \
    temporal_config
from mws.effpot import (
    ChannelBases,
    PoleEntry,
    PoleMember,
    apply_effective_potential,
    build_bases,
    build_pole_weight_table,
    build_pole_weight_tables,
    channel_terms,
    ep_kernel_matrix,
    exact_pole_general,
    exact_pole_pair,
    merge_poles,
    pole_position,
    series_ep_kernel,
    vnn_eval,
)
from mws.eigenbasis import matrix_element
from mws.errors import PoleProximityError, SolverError
from mws.model import build_spec, channel_energies
from mws.reconstruct import component_functions
from mws.spectra import find_roots

DOC_NPRIME6 = Path(__file__).resolve().parents[1] / "perfbench" / "configs" \
    / "doc_spatial_nprime6.json"


def pair(height=0.3):
    return [
        {"index": 1, "amplitude": gaussian(height, 0.5, 0.2)},
        {"index": -1, "amplitude": gaussian(height, 0.5, 0.2)},
    ]


def test_temporal_pole_positions():
    # eps0 + omega*k: eps0 = 0.5, omega = 2, k = 1 -> 2.5; k = -1 -> -1.5
    spec = build_spec(temporal_config(pair(), omega=2.0))
    chans = {c.index: c for c in channel_energies(spec)}
    assert pole_position(spec, chans[1], 0.5) == 2.5
    assert pole_position(spec, chans[-1], 0.5) == -1.5


def test_exact_pole_pair_reference_values():
    # eps0 = 0, eps_p = 1, E = 4: branches at -1 +- 4 = {3, -5}
    plus, minus = exact_pole_pair(0.0, 1.0, 4.0)
    assert plus == pytest.approx(3.0, abs=1e-12)
    assert minus == pytest.approx(-5.0, abs=1e-12)


def test_exact_pole_pair_needs_energy_above_eps0():
    with pytest.raises(SolverError):
        exact_pole_pair(5.0, 1.0, 4.0)


def test_general_pole_reduces_to_pair_at_unit_cosine():
    rng = np.random.default_rng(3)
    for _ in range(25):
        eps0 = float(rng.uniform(-2.0, 2.0))
        eps_p = float(rng.uniform(0.1, 3.0))
        e = eps0 + float(rng.uniform(0.5, 8.0))
        plus, minus = exact_pole_pair(eps0, eps_p, e)
        assert exact_pole_general(eps0, eps_p, e, 1.0) == pytest.approx(plus, rel=1e-13)
        assert exact_pole_general(eps0, eps_p, e, -1.0) == pytest.approx(minus, rel=1e-13)


def test_general_pole_midpoint_angle():
    # cos(alpha) = 0 collapses both branches onto eps0 + eps_p
    assert exact_pole_general(0.3, 1.2, 6.0, 0.0) == pytest.approx(1.5, rel=1e-14)


def test_approx_spatial_pole_formula(anchor_spatial_spec):
    spec = anchor_spatial_spec
    chans = {c.index: c for c in channel_energies(spec)}
    e = spec.total_energy
    for g, ch in chans.items():
        want = 0.25 + ch.epsilon_p + 2.0 * ch.cos_alpha * np.sqrt(e * ch.epsilon_p)
        assert pole_position(spec, ch, 0.25) == pytest.approx(want, rel=1e-15)


def test_table_structure_anchor(anchor_spatial_spec, anchor_spatial_bases):
    table = build_pole_weight_table(anchor_spatial_spec, anchor_spatial_bases, 1)
    assert len(table.entries) == 8          # N_p * N_p' distinct poles
    assert np.all(np.diff(table.poles) > 0.0)
    assert np.all(table.weights > 0.0)
    assert table.mode == "approx"
    assert table.spatial
    labels = [m for e in table.entries for m in e.labels]
    assert len(labels) == 8
    assert len(set(labels)) == 8


def test_table_zero_amplitudes_is_empty():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ])
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    assert len(table.entries) == 0


def test_table_merges_coincident_poles():
    # put (n'=1, k=+1) and (n'=2, k=-1) on one pole by choosing omega as half
    # the measured level gap, so eps_1 + omega == eps_2 - omega up to roundoff;
    # the bump is off-centre, since by parity a centred one does not couple
    # base state 1 to n'=2
    bump = gaussian(0.5, 0.4, 0.2)
    cfg = temporal_config([{"index": k, "amplitude": bump} for k in (-1, 1)],
                          omega=1.0, n_base=2, n_prime=2)
    probe = build_bases(build_spec(cfg))
    e1, e2 = (float(v) for v in probe.base.eigenvalues[:2])
    cfg["perturbation"]["angular_frequency"] = 0.5 * (e2 - e1)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    merged = [e for e in table.entries if len(e.members) > 1]
    assert len(merged) == 1
    entry = merged[0]
    assert entry.weight == pytest.approx(sum(m.weight for m in entry.members),
                                         rel=1e-15)
    assert {(m.channel, m.n_prime) for m in entry.members} == {(1, 1), (-1, 2)}


def reference_table(spec, bases, n):
    """(merge_tol, entries) of base state n from one matrix_element call per
    (channel, n') member, sorted and merged member by member."""
    raw = []
    for channel in channel_energies(spec):
        basis = bases.channels[channel.index]
        amp = spec.harmonic(channel.index).amplitude
        for n_prime in range(1, spec.n_prime + 1):
            w = abs(matrix_element(basis, bases.base, amp, n_prime, n)) ** 2
            if w == 0.0:
                continue
            raw.append((channel, PoleMember(channel.index, n_prime, w,
                                            float(basis.eigenvalues[n_prime - 1]),
                                            channel.epsilon_p, channel.cos_alpha)))
    scored = sorted(((pole_position(spec, ch, m.eps0_aux, spec.denominator_mode), m)
                     for ch, m in raw),
                    key=lambda t: (t[0], t[1].channel, t[1].n_prime))
    poles = [p for p, _ in scored]
    merge_tol = 1e-9 * ((poles[-1] - poles[0]) if len(poles) > 1 else 0.0)
    entries = []
    for p, m in scored:
        if entries and p - entries[-1].pole <= merge_tol:
            prev = entries[-1]
            entries[-1] = PoleEntry(prev.pole, prev.weight + m.weight, prev.members + (m,))
        else:
            entries.append(PoleEntry(p, m.weight, (m,)))
    return merge_tol, tuple(entries)


def assert_tables_match_reference(spec, bases=None):
    bases = bases or build_bases(spec)
    tables = build_pole_weight_tables(spec, bases)
    assert [t.base_state for t in tables] == list(range(1, spec.n_base + 1))
    for n, table in enumerate(tables, start=1):
        merge_tol, entries = reference_table(spec, bases, n)
        # repr spells every float exactly, so equal reprs mean equal bits
        assert repr(table.merge_tol) == repr(merge_tol)
        assert repr(table.entries) == repr(entries)
        assert repr(build_pole_weight_table(spec, bases, n).entries) == repr(entries)
    return tables


# (kind, denominator, basis): every mode pair; the v1 basis is temporal only
CASES = [
    ("temporal", "approx", "unperturbed"),
    ("temporal", "approx", "v1"),
    ("temporal", "exact", "unperturbed"),
    ("temporal", "exact", "v1"),
    ("spatial", "approx", "unperturbed"),
    ("spatial", "exact", "unperturbed"),
]


def case_spec(kind, denominator, basis, n_prime, n_base):
    harmonics = fig_anchor_harmonics()
    if basis == "unperturbed":
        # complex couplings: abs() of a complex element rounds differently in numpy
        for h in harmonics:
            height = h["amplitude"]["height"]
            h["amplitude"]["height"] = [height, 0.6 * height * np.sign(h["index"])]
    if kind == "spatial":
        cfg = spatial_config(harmonics, n_base=n_base, n_prime=n_prime,
                             denominator=denominator)
    else:
        cfg = temporal_config(harmonics, n_base=n_base, n_prime=n_prime, basis=basis)
        cfg["modes"]["denominator"] = denominator
    return build_spec(cfg)


@pytest.mark.parametrize("n_base", (1, 2, 4))
@pytest.mark.parametrize("n_prime", (1, 2, 4))
@pytest.mark.parametrize("kind,denominator,basis", CASES)
def test_tables_equal_per_state_reference(kind, denominator, basis, n_prime, n_base):
    tables = assert_tables_match_reference(case_spec(kind, denominator, basis,
                                                     n_prime, n_base))
    assert all(len(t.entries) == 4 * n_prime for t in tables)


def test_tables_equal_reference_with_zero_weights_and_merges():
    # one zero channel drops its members; the merge case puts two on one pole.
    # The bump is off-centre so that every (n', n) pair couples (parity).
    zero = {"kind": "constant", "value": 0.0}
    bump = gaussian(0.5, 0.4, 0.2)
    one_sided = temporal_config([{"index": 1, "amplitude": bump},
                                 {"index": -1, "amplitude": zero}], n_base=2, n_prime=2)
    tables = assert_tables_match_reference(build_spec(one_sided))
    assert [[e.labels for e in t.entries] for t in tables] == [[((1, 1),), ((1, 2),)]] * 2
    cfg = temporal_config([{"index": k, "amplitude": bump} for k in (-1, 1)],
                          omega=1.0, n_base=2, n_prime=2)
    e1, e2 = build_bases(build_spec(cfg)).base.eigenvalues[:2]
    cfg["perturbation"]["angular_frequency"] = 0.5 * float(e2 - e1)
    tables = assert_tables_match_reference(build_spec(cfg))
    assert any(len(e.members) > 1 for e in tables[0].entries)
    # bitwise-equal poles: members of one entry follow (channel, n') order
    spec = build_spec(temporal_config([{"index": k, "amplitude": bump} for k in (-1, 1)],
                                      omega=1.0, n_base=2, n_prime=2))
    base = build_bases(spec).base
    levels = {1: [0.5, 3.0], -1: [2.5, 5.0]}   # poles 1.5 and 4.0 on both channels
    bases = ChannelBases(base, {k: replace(base, eigenvalues=np.array(v))
                                for k, v in levels.items()})
    tables = assert_tables_match_reference(spec, bases)
    assert [e.labels for e in tables[0].entries] == [((-1, 1), (1, 1)), ((-1, 2), (1, 2))]


@pytest.mark.parametrize("denominator", ("approx", "exact"))
def test_tables_zero_amplitudes_are_empty(denominator):
    # exact mode with E below every channel level raises only for a member
    # that has weight, so zero amplitudes give empty tables in both modes
    zero = {"kind": "constant", "value": 0.0}
    cfg = spatial_config([{"index": 1, "amplitude": zero},
                          {"index": -1, "amplitude": zero}],
                         energy=0.2 if denominator == "exact" else 12.0,
                         n_base=3, n_prime=2, denominator=denominator)
    tables = assert_tables_match_reference(build_spec(cfg))
    assert [len(t.entries) for t in tables] == [0, 0, 0]
    assert all(t.merge_tol == 0.0 for t in tables)


def test_tables_exact_level_above_energy_same_error():
    cfg = spatial_config(fig_anchor_harmonics(), energy=3.0, n_base=2, n_prime=4,
                         denominator="exact")
    spec = build_spec(cfg)
    bases = build_bases(spec)
    for n, build in ((1, lambda: build_pole_weight_tables(spec, bases)),
                     (1, lambda: build_pole_weight_table(spec, bases, 1)),
                     (2, lambda: build_pole_weight_table(spec, bases, 2))):
        with pytest.raises(SolverError) as want:
            reference_table(spec, bases, n)
        with pytest.raises(SolverError) as got:
            build()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert "exact pole needs E >= eps0" in str(got.value)


def test_merge_poles_joins_within_tol_of_the_entry_first_pole():
    # merge_tol = 1e-9 * 1e9 = 1: b - a <= 1 and c - b <= 1, but c - a > 1
    merge_tol, starts, weights = merge_poles(np.array([0.0, 0.6, 1.2, 1e9]),
                                             np.array([1.0, 2.0, 4.0, 8.0]))
    assert merge_tol == 1.0
    assert starts.tolist() == [0, 2, 3, 4]
    assert weights.tolist() == [3.0, 4.0, 8.0]


def test_merge_poles_sums_a_group_left_to_right():
    # (1 + 1e-16) + 1e-16 rounds to 1 twice; adding the tail first would give
    # 1 + 2e-16, which rounds to the next float above 1
    _, starts, weights = merge_poles(np.array([0.0, 0.0, 0.0, 1.0]),
                                     np.array([1.0, 1e-16, 1e-16, 0.5]))
    assert starts.tolist() == [0, 3, 4]
    assert weights.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("config", (temporal_config, spatial_config))
def test_sub_floor_noise_coupling_deflates_like_exact_zero(config, monkeypatch):
    # parity forbids every coupling with n' + n odd; the table built from the
    # quadrature equals the one built with those couplings set to exact zeros
    spec = build_spec(config(centred_harmonics(), n_base=4, n_prime=4))
    bases = build_bases(spec)
    tables = build_pole_weight_tables(spec, bases)
    noise = []

    def parity_zeroed(bra, ket, amplitude, n_prime, n):
        raw = np.sum((bra.quad_weights * np.conjugate(bra.eigenfunctions[:n_prime]))
                     [:, None, :] * amplitude * ket.eigenfunctions[:n][None], axis=-1)
        odd = np.add.outer(np.arange(n_prime), np.arange(n)) % 2 == 1
        noise.append(np.any(raw[odd] != 0.0))
        return np.where(odd, 0.0, raw)

    monkeypatch.setattr(effpot, "matrix_element_block", parity_zeroed)
    for got, want in zip(tables, build_pole_weight_tables(spec, bases)):
        for name in ("poles", "weights", "starts"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert repr(got.merge_tol) == repr(want.merge_tol)
        assert repr(got.entries) == repr(want.entries)
    assert any(noise)   # some forbidden coupling is rounding noise, not 0.0


def test_vnn_single_entry_arithmetic():
    # synthetic check through a real config: scale a one-term table by hand
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": gaussian(0.5, 0.5, 0.2)},
        {"index": -1, "amplitude": zero},
    ], n_base=1, n_prime=1)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    assert len(table.entries) == 1
    p = float(table.poles[0])
    w = float(table.weights[0])
    for eps in (p - 2.0, p - 0.5, p + 1.0, p + 3.0):
        assert vnn_eval(table, eps) == pytest.approx(w / (eps - p), rel=1e-14)


def test_vnn_rejects_pole_proximity(weak_temporal_spec, weak_temporal_bases):
    table = build_pole_weight_table(weak_temporal_spec, weak_temporal_bases, 1)
    with pytest.raises(PoleProximityError):
        vnn_eval(table, float(table.poles[0]))


def test_vnn_monotone_between_poles(weak_temporal_spec, weak_temporal_bases):
    # V_nn(eps) - eps + eps0 strictly decreases on every pole-free interval
    table = build_pole_weight_table(weak_temporal_spec, weak_temporal_bases, 1)
    eps0 = float(weak_temporal_bases.base.eigenvalues[0])
    poles = table.poles
    rng = np.random.default_rng(5)
    edges = np.concatenate([[poles[0] - 5.0], poles, [poles[-1] + 5.0]])
    checked = 0
    while checked < 100:
        i = int(rng.integers(0, len(edges) - 1))
        a, b = edges[i], edges[i + 1]
        margin = 0.05 * (b - a)
        x = float(rng.uniform(a + margin, b - margin - 1e-3 * (b - a)))
        step = 1e-6 * (b - a)
        f1 = vnn_eval(table, x) - x + eps0
        f2 = vnn_eval(table, x + step) - (x + step) + eps0
        assert f2 < f1
        checked += 1


def test_exact_mode_diverges_from_approx_at_low_energy():
    # the two denominators agree asymptotically in E: discrepancy ~ 1/sqrt(E)
    def v_at(e_total, mode):
        cfg = spatial_config(pair(0.4), energy=e_total, n_base=1, n_prime=1,
                             denominator=mode)
        spec = build_spec(cfg)
        bases = build_bases(spec)
        table = build_pole_weight_table(spec, bases, 1)
        return vnn_eval(table, -3.0)

    d_low = abs(v_at(25.0, "approx") - v_at(25.0, "exact"))
    d_high = abs(v_at(100.0, "approx") - v_at(100.0, "exact"))
    assert d_low / d_high >= 1.8


def test_exact_mode_rejects_epsilon_above_energy():
    cfg = spatial_config(pair(0.4), energy=9.0, n_base=1, n_prime=1,
                         denominator="exact")
    spec = build_spec(cfg)
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    with pytest.raises(SolverError):
        vnn_eval(table, 9.5)


def test_kernel_zero_amplitudes_vanish():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ])
    spec = build_spec(cfg)
    bases = build_bases(spec)
    k = ep_kernel_matrix(spec, bases, 0.77)
    assert np.all(k == 0.0)


def test_kernel_matrix_matches_pointwise_eval(weak_temporal_spec, weak_temporal_bases):
    eps = -30.0  # far below every pole
    k = ep_kernel_matrix(weak_temporal_spec, weak_temporal_bases, eps)
    for i, j in ((10, 20), (45, 130), (103, 77)):
        assert k[i, j] == pytest.approx(
            reference_kernel_entry(weak_temporal_spec, weak_temporal_bases, eps, i, j),
            rel=1e-12, abs=1e-15)


def test_kernel_hermitian_for_real_pairs(weak_temporal_spec, weak_temporal_bases):
    k = ep_kernel_matrix(weak_temporal_spec, weak_temporal_bases, -30.0)
    assert np.max(np.abs(k - k.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(k)))


def test_kernel_single_term_hand_formula():
    cfg = temporal_config([
        {"index": 1, "amplitude": gaussian(0.5, 0.45, 0.2)},
        {"index": -1, "amplitude": gaussian(0.5, 0.45, 0.2)},
    ], n_base=1, n_prime=1, omega=3.0)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    eps = -7.0
    omega = 3.0
    eps1 = float(bases.base.eigenvalues[0])
    psi = bases.base.eigenfunctions[0]
    v = spec.harmonic(1).amplitude
    i, j = 37, 122
    want = (
        v[i] * v[j] * psi[i] * psi[j] / (eps - (eps1 + omega))
        + v[i] * v[j] * psi[i] * psi[j] / (eps - (eps1 - omega))
    )
    assert ep_kernel_matrix(spec, bases, eps)[i, j] == pytest.approx(complex(want),
                                                                     rel=1e-13)


def test_apply_reduces_to_v0_when_unperturbed():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], base={"kind": "cosine", "amplitude": 0.9})
    spec = build_spec(cfg)
    bases = build_bases(spec)
    phi = np.sin(2.0 * spec.grid).astype(complex)
    out = apply_effective_potential(spec, bases, 0.3, phi)
    assert np.allclose(out, spec.base_potential * phi, rtol=0.0, atol=1e-15)


def test_apply_linear_in_argument(weak_temporal_spec, weak_temporal_bases):
    spec, bases = weak_temporal_spec, weak_temporal_bases
    rng = np.random.default_rng(6)
    phi = rng.normal(size=spec.grid_points) + 1j * rng.normal(size=spec.grid_points)
    psi = rng.normal(size=spec.grid_points) + 1j * rng.normal(size=spec.grid_points)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    eps = -30.0
    lhs = apply_effective_potential(spec, bases, eps, a * phi + b * psi)
    rhs = a * apply_effective_potential(spec, bases, eps, phi) \
        + b * apply_effective_potential(spec, bases, eps, psi)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_apply_matches_kernel_quadrature(weak_temporal_spec, weak_temporal_bases):
    spec, bases = weak_temporal_spec, weak_temporal_bases
    eps = -30.0
    phi = np.sin(spec.grid).astype(complex)
    out = apply_effective_potential(spec, bases, eps, phi)
    k = ep_kernel_matrix(spec, bases, eps)
    quad = spec.base_potential * phi + k @ (bases.base.quad_weights * phi)
    assert np.max(np.abs(out - quad)) < 1e-12 * max(1.0, np.max(np.abs(quad)))


def test_diagonal_consistency_two_routes(weak_temporal_spec, weak_temporal_bases):
    # <psi0_n | J(eps) | psi0_n> must equal the pole-sum V_nn(eps)
    spec, bases = weak_temporal_spec, weak_temporal_bases
    w = bases.base.quad_weights
    for n in (1, 2):
        table = build_pole_weight_table(spec, bases, n)
        phi = bases.base.eigenfunctions[n - 1].astype(complex)
        for eps in (-31.0, -14.2, 27.6):
            j_phi = apply_effective_potential(spec, bases, eps, phi) \
                - spec.base_potential * phi
            bracket = complex(np.sum(w * np.conjugate(phi) * j_phi))
            assert bracket.imag == pytest.approx(0.0, abs=1e-10)
            assert bracket.real == pytest.approx(vnn_eval(table, eps), abs=1e-8)


def test_series_kernel_single_harmonic_has_no_terms():
    cfg = temporal_config(pair(0.5), n_base=2, n_prime=2)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    # excluding k = 1 leaves only k = -1 in the sum; excluding both leaves none
    one_sided = build_spec(temporal_config(
        [{"index": 1, "amplitude": gaussian(0.5, 0.5, 0.2)}], n_base=2, n_prime=2))
    b1 = build_bases(one_sided)
    val = series_ep_kernel(one_sided, b1.base, 1, -3.0, 40, 60)
    assert val == 0.0
    assert series_ep_kernel(spec, bases.base, 1, -3.0, 40, 60) != 0.0


def test_series_kernel_single_state_hand_formula():
    cfg = temporal_config([
        {"index": 1, "amplitude": gaussian(0.5, 0.45, 0.2)},
        {"index": -1, "amplitude": gaussian(0.5, 0.45, 0.2)},
    ], n_base=1, n_prime=1, omega=3.0)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    base0 = bases.base
    eps_k = -2.2
    k = 1
    i, j = 52, 117
    psi = base0.eigenfunctions[0]
    v = spec.harmonic(-1).amplitude
    want = v[i] * v[j] * psi[i] * psi[j] / (eps_k - float(base0.eigenvalues[0]) + 3.0)
    got = series_ep_kernel(spec, base0, k, eps_k, i, j)
    assert got == pytest.approx(complex(want), rel=1e-13)


def test_series_kernel_rejects_spatial(anchor_spatial_spec, anchor_spatial_bases):
    from mws.errors import UnsupportedModeError

    with pytest.raises(UnsupportedModeError):
        series_ep_kernel(anchor_spatial_spec, anchor_spatial_bases.base, 1,
                         -1.0, 10, 20)


def test_roots_reproduce_vnn_crossings(weak_temporal_spec, weak_temporal_bases):
    # independently re-evaluate V_nn at each computed root: it must meet the line
    spec, bases = weak_temporal_spec, weak_temporal_bases
    table = build_pole_weight_table(spec, bases, 1)
    eps0 = float(bases.base.eigenvalues[0])
    rs = find_roots(table, eps0)
    for r in rs.roots:
        assert vnn_eval(table, float(r)) == pytest.approx(r - eps0, abs=2e-9)


# -- the channel-term table against the per-term loops it replaced -----------

def negated_amplitude(spec, index):
    for h in spec.harmonics:
        if h.index == -index:
            return h.amplitude
    return np.zeros(spec.grid_points, dtype=complex)


def reference_denominators(spec, bases, epsilon_s):
    """(channel, n', bra basis, denominator) per retained term, fixed order."""
    out = []
    e = spec.total_energy
    exact_spatial = spec.is_spatial and spec.denominator_mode == "exact"
    for channel in channel_energies(spec):
        basis = bases.channels[channel.index]
        for n_prime in range(1, spec.n_prime + 1):
            eps0_aux = float(basis.eigenvalues[n_prime - 1])
            if exact_spatial:
                if epsilon_s > e:
                    raise SolverError(
                        f"exact mode requires epsilon <= E, got {epsilon_s!r}"
                    )
                d = epsilon_s - eps0_aux - channel.epsilon_p \
                    - 2.0 * channel.cos_alpha * math.sqrt((e - epsilon_s) * channel.epsilon_p)
            else:
                d = epsilon_s - pole_position(spec, channel, eps0_aux)
            out.append((channel, n_prime, basis, d))
    poles_for_tol = [epsilon_s - d for (_, _, _, d) in out]
    if poles_for_tol:
        spread = max(poles_for_tol) - min(poles_for_tol)
        tol = max(1e-9 * spread, 1e-9)
        for (channel, n_prime, _, d) in out:
            if abs(d) <= tol:
                raise PoleProximityError(
                    f"epsilon {epsilon_s!r} is within {tol!r} of the "
                    f"(channel {channel.index}, n'={n_prime}) singularity"
                )
    return out


def reference_kernel_entry(spec, bases, epsilon_s, x_index, xp_index):
    total = 0.0 + 0.0j
    for channel, n_prime, basis, d in reference_denominators(spec, bases, epsilon_s):
        v_minus = negated_amplitude(spec, channel.index)
        v_plus = spec.harmonic(channel.index).amplitude
        psi = basis.eigenfunctions[n_prime - 1]
        total += v_minus[x_index] * v_plus[xp_index] \
            * psi[x_index] * np.conjugate(psi[xp_index]) / d
    return complex(total)


def reference_kernel(spec, bases, epsilon_s):
    k = np.zeros((spec.grid_points, spec.grid_points), dtype=complex)
    for channel, n_prime, basis, d in reference_denominators(spec, bases, epsilon_s):
        psi = basis.eigenfunctions[n_prime - 1]
        left = negated_amplitude(spec, channel.index) * psi
        right = spec.harmonic(channel.index).amplitude * np.conjugate(psi)
        k += np.outer(left, right) / d
    return k


def reference_apply(spec, bases, epsilon_s, phi):
    out = spec.base_potential * phi
    w = bases.base.quad_weights
    for channel, n_prime, basis, d in reference_denominators(spec, bases, epsilon_s):
        v_minus = negated_amplitude(spec, channel.index)
        v_plus = spec.harmonic(channel.index).amplitude
        psi = basis.eigenfunctions[n_prime - 1]
        coeff = np.sum(w * v_plus * np.conjugate(psi) * phi) / d
        out = out + (v_minus * psi) * coeff
    return out


def outcome(call):
    """The call's value, or the type and message of the error it raised."""
    try:
        return call()
    except SolverError as exc:
        return type(exc), str(exc)


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) \
        <= rel * np.max(np.abs(want), initial=0.0)


EPSILONS = (-30.0, -3.7, 0.77, 11.3)


@pytest.mark.parametrize("n_prime", (1, 2, 4))
@pytest.mark.parametrize("kind,denominator,basis", CASES)
def test_channel_terms_match_per_term_loops(kind, denominator, basis, n_prime):
    spec = case_spec(kind, denominator, basis, n_prime, 2)
    bases = build_bases(spec)
    terms = channel_terms(spec, bases)
    ref = reference_denominators(spec, bases, EPSILONS[0])
    assert terms.channel.tolist() == [ch.index for ch, _, _, _ in ref]
    assert terms.n_prime.tolist() == [k for _, k, _, _ in ref]
    assert terms.couplings.shape == (len(ref), bases.base.n_states)
    assert terms.retained_couplings.tobytes() == \
        np.ascontiguousarray(terms.couplings[:, :spec.n_base]).tobytes()
    phi = np.sin(spec.grid) + 0.3j * np.cos(2.0 * spec.grid)
    for eps in EPSILONS:
        d = terms.denominators(eps)
        want = np.array([d for *_, d in reference_denominators(spec, bases, eps)])
        assert d.tobytes() == want.tobytes()
        assert_close(ep_kernel_matrix(spec, bases, eps), reference_kernel(spec, bases, eps))
        assert_close(apply_effective_potential(spec, bases, eps, phi),
                     reference_apply(spec, bases, eps, phi))


def test_only_components_past_n_s_build_every_coupling_column(monkeypatch):
    spec = case_spec("temporal", "approx", "unperturbed", 4, 2)
    bases = build_bases(spec)
    assert bases.base.n_states == 4
    widths = []
    block = effpot.matrix_element_block

    def counted(*args):
        widths.append(args[-1])
        return block(*args)

    monkeypatch.setattr(effpot, "matrix_element_block", counted)
    build_pole_weight_tables(spec, bases)
    ep_kernel_matrix(spec, bases, -30.0)
    apply_effective_potential(spec, bases, -30.0, np.ones(spec.grid_points))
    component_functions(spec, bases, -30.0, 2)
    assert set(widths) == {2}
    component_functions(spec, bases, -30.0, 3)
    assert widths[-1] == 4


@pytest.mark.parametrize("kind", ("temporal", "spatial"))
def test_kernel_and_operator_unpaired_drive(kind):
    # v_-g is not conj(v_g) here, so K(x, x') != K(x', x) and the order of the
    # left (v_-g psi) and right (v_g conj psi) factors shows
    for harmonics in ([{"index": 1, "amplitude": gaussian([0.5, 0.2], 0.43, 0.2)},
                       {"index": -1, "amplitude": gaussian(0.3, 0.6, 0.15)}],
                      [{"index": 1, "amplitude": gaussian(0.5, 0.43, 0.2)}]):
        build = spatial_config if kind == "spatial" else temporal_config
        spec = build_spec(build(harmonics, n_base=2, n_prime=3))
        bases = build_bases(spec)
        phi = np.sin(spec.grid) + 0.3j * np.cos(2.0 * spec.grid)
        for eps in EPSILONS:
            assert_close(ep_kernel_matrix(spec, bases, eps), reference_kernel(spec, bases, eps))
            assert_close(apply_effective_potential(spec, bases, eps, phi),
                         reference_apply(spec, bases, eps, phi))


@pytest.mark.filterwarnings("ignore:total energy does not dominate")
def test_channel_terms_errors_match_per_term_loop(anchor_spatial_spec,
                                                  anchor_spatial_bases):
    cases = [(anchor_spatial_spec, anchor_spatial_bases)]
    # exact mode above E; approx spatial with E < 0 has no approximate pole
    for energy, denominator in ((12.0, "exact"), (-2.0, "approx")):
        spec = build_spec(spatial_config(fig_anchor_harmonics(), energy=energy,
                                         denominator=denominator))
        cases.append((spec, build_bases(spec)))
    probes = [float(channel_terms(*cases[0]).poles[3]), 12.5, 0.77]
    for (spec, bases), eps in zip(cases, probes):
        got = outcome(lambda: channel_terms(spec, bases).denominators(eps))
        want = outcome(lambda: reference_denominators(spec, bases, eps))
        assert isinstance(got, tuple) and got == want
    assert got[0] is SolverError and "approximate pole needs" in got[1]
    for fn in (ep_kernel_matrix, lambda *a: component_functions(*a, 1)):
        with pytest.raises(SolverError, match="approximate pole needs"):
            fn(spec, bases, 0.77)


def test_exact_mode_level_above_energy_is_legal_off_the_table():
    # the n'=6 doc config: level 12.49 > E = 12 has no exact pole, but its
    # denominator is defined for every epsilon <= E
    doc = json.loads(DOC_NPRIME6.read_text())
    doc["modes"]["denominator"] = "exact"
    spec = build_spec(doc)
    bases = build_bases(spec)
    assert channel_terms(spec, bases).errors
    phi = bases.base.eigenfunctions[0].astype(complex)
    for eps in (-30.0, 5.0):
        assert_close(ep_kernel_matrix(spec, bases, eps), reference_kernel(spec, bases, eps))
        assert_close(apply_effective_potential(spec, bases, eps, phi),
                     reference_apply(spec, bases, eps, phi))
        comps = component_functions(spec, bases, eps, 1)
        assert set(comps) == {-2, -1, 1, 2}
        assert all(np.all(np.isfinite(c)) for c in comps.values())
    with pytest.raises(SolverError, match="exact pole needs E >= eps0"):
        build_pole_weight_tables(spec, bases)
