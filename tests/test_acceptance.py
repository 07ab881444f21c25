"""Acceptance gate: eleven behavioural guarantees, one test each.

Each test is self-contained and deterministic. Run `pytest -v tests/test_acceptance.py`
for a one-line verdict per guarantee.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import L, gaussian, spatial_config, temporal_config, \
    fig_anchor_harmonics, weak_harmonics
from mws import _kernels
from mws.cli import main as cli_main
from mws.effpot import (
    apply_effective_potential,
    build_bases,
    build_pole_weight_table,
    ep_kernel_matrix,
    exact_pole_general,
    exact_pole_pair,
    vnn_eval,
)
from mws.eigenbasis import solve_base_eigenproblem, solve_v1_eigenproblem
from mws.model import build_spec, scale_amplitudes
from mws.oracle import (
    coupled_matrix_diagonalization,
    polynomial_roots_oracle,
    subset_recovery_distance,
)
from mws.spectra import (
    CountReport,
    SpectrumResult,
    StateSpectrum,
    appendix_auxiliary_roots,
    appendix_k_shift,
    assert_interlacing,
    count_solutions,
    find_roots,
    group_realisations,
    realisation_separation,
    solve_spectrum,
)
from test_spectra import synthetic_table


def random_config(rng, n_p, n_prime, n_s):
    half = n_p // 2
    harmonics = []
    for k in range(1, half + 1):
        h = float(rng.uniform(0.5, 1.0))
        c = float(rng.uniform(0.3, 0.7))
        w = float(rng.uniform(0.15, 0.3))
        for sgn in (1, -1):
            harmonics.append({"index": sgn * k, "amplitude": gaussian(h, c, w)})
    return temporal_config(harmonics, omega=float(rng.uniform(2.6, 4.6)),
                           points=128, n_base=n_s, n_prime=n_prime)


def random_secular_table(rng, p_count):
    gaps = rng.uniform(0.1, 10.0, size=p_count)
    poles = rng.uniform(-50.0, 0.0) + np.cumsum(gaps)
    weights = rng.uniform(0.05, 20.0, size=p_count)
    return poles, weights, float(rng.uniform(-60.0, 60.0))


def test_c01_root_count_matches_closed_form_law():
    """Observed root total equals (N_p*N_p' + 1)*N_s on 50 random systems."""
    t0 = time.perf_counter()
    combos = list(itertools.product((2, 4, 6), (1, 2, 3), (1, 2, 4)))
    rng = np.random.default_rng(20260819)
    for i in range(50):
        n_p, n_prime, n_s = combos[i % len(combos)]
        spec = build_spec(random_config(rng, n_p, n_prime, n_s))
        counts = count_solutions(spec)
        assert counts.n_max == (n_p * n_prime + 1) * n_s
        result = solve_spectrum(spec)
        assert result.observed_total == counts.n_max
    # anchor points of the law, including the cubic smallest case
    anchors = [
        (spatial_config(fig_anchor_harmonics()), 9),       # (4, 2, 1)
        (temporal_config(weak_harmonics(), n_base=1, n_prime=3), 13),
        (temporal_config(weak_harmonics()[:2], n_base=1, n_prime=1), 3),
    ]
    for cfg, expected in anchors:
        result = solve_spectrum(build_spec(cfg))
        assert result.observed_total == expected
    assert time.perf_counter() - t0 < 30.0


def test_c02_interlacing_with_certified_brackets():
    """Every random pole table yields P+1 roots, alternating, with sign brackets."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(911)
    for _ in range(200):
        p_count = int(rng.integers(1, 13))
        poles, weights, eps0 = random_secular_table(rng, p_count)
        roots, blo, bhi, flo, fhi = _kernels.solve_secular(poles, weights, eps0)
        assert len(roots) == p_count + 1
        assert_interlacing(poles, roots)
        assert np.all(flo > 0.0)
        assert np.all(fhi < 0.0)
        assert np.all(blo <= roots)
        assert np.all(roots <= bhi)
    assert time.perf_counter() - t0 < 10.0


def test_c03_roots_match_companion_matrix_oracle():
    """Bracketed roots agree with the polynomial eigenvalue route to 1e-9."""

    class Table:
        def __init__(self, poles, weights):
            self.poles = poles
            self.weights = weights

    rng = np.random.default_rng(404)
    for _ in range(100):
        p_count = int(rng.integers(1, 9))
        poles, weights, eps0 = random_secular_table(rng, p_count)
        roots, *_ = _kernels.solve_secular(poles, weights, eps0)
        oracle = polynomial_roots_oracle(Table(poles, weights), eps0)
        assert len(oracle) == len(roots)
        assert np.all(np.abs(roots - oracle) <= 1e-9 * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.filterwarnings("ignore:root count")
def test_c04_zero_perturbation_collapses_to_base_levels():
    """Zero amplitudes leave eps = eps0 and an identically zero kernel."""
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], n_base=2, n_prime=2)
    spec = build_spec(cfg)
    result = solve_spectrum(spec)
    for state in result.states:
        assert len(state.roots) == 1
        assert abs(state.roots[0] - state.epsilon0) <= 1e-12
    bases = build_bases(spec)
    for eps in (-17.3, 0.9, 24.0):
        kernel = ep_kernel_matrix(spec, bases, eps)
        assert np.all(kernel == 0.0)


def test_c05_diagonal_element_matches_pole_sum():
    """Quadrature of the applied operator equals the scalar V_nn on 20 probes."""
    spec = build_spec(temporal_config(weak_harmonics()))
    bases = build_bases(spec)
    w = bases.base.quad_weights
    rng = np.random.default_rng(55)
    tables = {n: build_pole_weight_table(spec, bases, n) for n in (1, 2)}
    probes = 0
    while probes < 20:
        n = int(rng.integers(1, 3))
        eps = float(rng.uniform(-40.0, 40.0))
        if np.min(np.abs(eps - tables[n].poles)) < 0.75:
            continue
        phi = bases.base.eigenfunctions[n - 1].astype(complex)
        j_phi = apply_effective_potential(spec, bases, eps, phi) \
            - spec.base_potential * phi
        bracket = complex(np.sum(w * np.conjugate(phi) * j_phi))
        assert abs(bracket.imag) <= 1e-10
        assert abs(bracket.real - vnn_eval(tables[n], eps)) <= 1e-8
        probes += 1


def test_c06_weak_coupling_recovers_matrix_eigenvalues():
    """Halving amplitudes three times shrinks the oracle gap 3x per step."""
    spec = build_spec(temporal_config(weak_harmonics()))
    dists = []
    for s in (1.0, 0.5, 0.25, 0.125):
        sub = scale_amplitudes(spec, s)
        result = solve_spectrum(sub)
        eigs = coupled_matrix_diagonalization(sub).eigenvalues
        roots = np.array([v for (_, _, v) in result.all_roots()])
        dists.append(subset_recovery_distance(roots, eigs))
    for d0, d1 in zip(dists, dists[1:]):
        assert d0 / d1 >= 3.0


def test_c07_discrete_levels_converge_at_fourth_order_rate():
    """Hard-wall levels hit 0.5% at 2000 points and improve ~4x per doubling."""
    bump = [
        {"index": 1, "amplitude": gaussian(0.3, 0.43, 0.2)},
        {"index": -1, "amplitude": gaussian(0.3, 0.43, 0.2)},
    ]
    exact = np.array([0.5 * n * n for n in range(1, 9)])
    errors = []
    for points in (500, 1000, 2000):
        spec = build_spec(spatial_config(bump, points=points, n_base=8, n_prime=1))
        basis = solve_base_eigenproblem(spec, n_states=8)
        errors.append(np.abs(basis.eigenvalues - exact))
    assert np.max(errors[-1] / exact) < 5e-3
    for coarse, fine in zip(errors, errors[1:]):
        factors = coarse / fine
        assert np.all(factors > 3.5)
        assert np.all(factors < 4.5)


def test_c08_asymptote_positions_match_closed_forms():
    """Pole positions follow the shift, square-root pair, and oblique formulas."""
    # time-periodic: every pole sits exactly at eps0_aux + omega*k
    spec = build_spec(temporal_config(weak_harmonics()))
    bases = build_bases(spec)
    omega = spec.perturbation.angular_frequency
    for n in (1, 2):
        table = build_pole_weight_table(spec, bases, n)
        for entry in table.entries:
            assert len(entry.members) == 1
            m = entry.members[0]
            aux = bases.channels[m.channel]
            assert m.eps0_aux == aux.eigenvalues[m.n_prime - 1]
            assert entry.pole == m.eps0_aux + omega * m.channel
    # exact pair: eps0=0, eps_p=1, E=4 gives 3 and -5
    plus, minus = exact_pole_pair(0.0, 1.0, 4.0)
    assert abs(plus - 3.0) <= 1e-12
    assert abs(minus + 5.0) <= 1e-12
    rng = np.random.default_rng(88)
    for _ in range(25):
        eps0 = float(rng.uniform(-4.0, 4.0))
        eps_p = float(rng.uniform(0.2, 3.0))
        energy = eps0 + float(rng.uniform(1.0, 30.0))
        plus, minus = exact_pole_pair(eps0, eps_p, energy)
        root = 2.0 * np.sqrt(eps_p * (energy - eps0))
        assert plus == pytest.approx(eps0 - eps_p + root, rel=1e-12, abs=1e-12)
        assert minus == pytest.approx(eps0 - eps_p - root, rel=1e-12, abs=1e-12)
        # oblique form folds back onto the pair at cos(alpha) = +-1
        assert exact_pole_general(eps0, eps_p, energy, 1.0) == \
            pytest.approx(plus, rel=1e-12)
        assert exact_pole_general(eps0, eps_p, energy, -1.0) == \
            pytest.approx(minus, rel=1e-12)


def test_c09_grouping_and_separation_estimates():
    """Clustered spectra split into N_p groups; the fast estimate is exact here."""
    poles = np.array([10.0, 10.5, 20.0, 20.5, 30.0, 30.5, 40.0, 40.5])
    table = synthetic_table(poles, np.full(8, 0.4))
    eps0 = 7.0
    state = StateSpectrum(n=1, epsilon0=eps0, table=table,
                          rootset=find_roots(table, eps0))
    counts = CountReport(n_p=4, n_prime=2, n_s=1, n_max=9, n_0=3, n_delta=6,
                         n_max_reduced=9, n_0_reduced=3, n_delta_reduced=6,
                         max_per_normal_reduced=3.0)
    result = SpectrumResult(states=(state,), counts=counts, observed_total=9,
                            degeneracy_deficit=0, mode="approx")
    ens = group_realisations(result)
    assert ens.method == "auto-largest-gaps"
    assert ens.n_r == counts.n_p
    assert [len(r.members) for r in ens.realisations] == [3, 2, 2, 2]
    # 2*pi*sqrt(2E)/d_p with E = 8 and d_p = 2*pi is the float 4.0 on the nose
    pair = [
        {"index": 1, "amplitude": gaussian(0.3, 0.5, 0.2)},
        {"index": -1, "amplitude": gaussian(0.3, 0.5, 0.2)},
    ]
    spec = build_spec(spatial_config(pair, energy=8.0, period=2.0 * np.pi))
    assert realisation_separation(spec).min_estimate == 4.0


def test_c10_auxiliary_roots_and_kick_train_limits():
    """Companion root sets interlace, shrink with amplitude, and honour V1."""
    spec = build_spec(temporal_config(weak_harmonics()))
    bases = build_bases(spec)
    n_s = bases.base.n_states
    for k in spec.indices:
        for n in (1, 2):
            ar = appendix_auxiliary_roots(spec, bases.base, k, n)
            assert len(ar.rootset.roots) == n_s + 1
            assert_interlacing(ar.poles, ar.rootset.roots)
    full = appendix_k_shift(spec, bases.base, 1).spread
    half_spec = scale_amplitudes(spec, 0.5)
    half = appendix_k_shift(half_spec, build_bases(half_spec).base, 1).spread
    assert full / half >= 3.0
    # V1 with nothing to add reproduces the plain basis bit for bit
    zero = {"kind": "constant", "value": 0.0}
    zcfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], base={"kind": "cosine", "amplitude": 0.6})
    zspec = build_spec(zcfg)
    b0 = solve_base_eigenproblem(zspec, n_states=3)
    b1 = solve_v1_eigenproblem(zspec, 1, n_states=3)
    assert np.array_equal(b0.eigenvalues, b1.eigenvalues)
    assert np.array_equal(b0.eigenfunctions, b1.eigenfunctions)


def test_c11_spectrum_command_is_byte_deterministic(tmp_path):
    """Repeated runs write identical bytes."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(temporal_config(weak_harmonics())))
    dirs = [tmp_path / name for name in ("r1", "r2", "r4")]
    for out in dirs:
        code = cli_main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
    for name in ("roots.csv", "poles.csv", "counts.json", "realisations.json"):
        ref = (dirs[0] / name).read_bytes()
        assert (dirs[1] / name).read_bytes() == ref
        assert (dirs[2] / name).read_bytes() == ref
