"""Discrete eigenproblem, matrix elements, and Green function checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mws.eigenbasis as eigenbasis
from conftest import L, gaussian, spatial_config, temporal_config
from mws.effpot import build_bases
from mws.eigenbasis import (
    apply_h0,
    apply_kinetic,
    green_function,
    matrix_element,
    solve_base_eigenproblem,
    solve_v1_eigenproblem,
    v1_potential,
)
from mws.errors import EigenSolveError, PoleProximityError
from mws.model import build_spec
from mws.oracle import refined_grid_eigen_oracle


def pair(height=0.3):
    return [
        {"index": 1, "amplitude": gaussian(height, 0.5, 0.2)},
        {"index": -1, "amplitude": gaussian(height, 0.5, 0.2)},
    ]


def well_levels(n):
    # hard walls at 0 and L = pi: eps_n = n^2 / 2
    return np.array([0.5 * k * k for k in range(1, n + 1)])


def test_infinite_well_levels_half_percent():
    spec = build_spec(spatial_config(pair(), points=2000, n_base=8, n_prime=1))
    basis = solve_base_eigenproblem(spec, n_states=8)
    exact = well_levels(8)
    rel = np.abs(basis.eigenvalues - exact) / exact
    assert np.max(rel) < 5e-3


def test_error_reduction_under_grid_doubling():
    exact = well_levels(6)
    errors = []
    for points in (500, 1000, 2000):
        spec = build_spec(spatial_config(pair(), points=points, n_base=6, n_prime=1))
        basis = solve_base_eigenproblem(spec, n_states=6)
        errors.append(np.abs(basis.eigenvalues - exact))
    for coarse, fine in zip(errors, errors[1:]):
        factors = coarse / fine
        assert np.all(factors > 3.5)
        assert np.all(factors < 4.5)


def test_orthonormality_under_stored_quadrature():
    spec = build_spec(spatial_config(pair(), points=300, n_base=4, n_prime=2))
    basis = solve_base_eigenproblem(spec, n_states=4)
    gram = np.array([
        [np.sum(basis.quad_weights * basis.eigenfunctions[i] * basis.eigenfunctions[j])
         for j in range(4)]
        for i in range(4)
    ])
    assert np.allclose(gram, np.eye(4), rtol=0.0, atol=1e-10)


def test_eigenvalues_ascending_and_endpoints_zero():
    spec = build_spec(spatial_config(pair(), points=200, n_base=5, n_prime=1))
    basis = solve_base_eigenproblem(spec, n_states=5)
    assert np.all(np.diff(basis.eigenvalues) > 0.0)
    assert np.all(basis.eigenfunctions[:, 0] == 0.0)
    assert np.all(basis.eigenfunctions[:, -1] == 0.0)


def test_sign_convention_first_lobe_positive():
    spec = build_spec(spatial_config(pair(), points=200, n_base=4, n_prime=1))
    basis = solve_base_eigenproblem(spec, n_states=4)
    # first interior extremum of sin(n x) is positive for every n
    for k in range(4):
        f = basis.eigenfunctions[k]
        first = f[np.nonzero(f)[0][0]]
        assert first > 0.0


def test_constant_potential_is_pure_shift():
    base = build_spec(spatial_config(pair(), points=400, n_base=4, n_prime=1))
    shifted_cfg = spatial_config(pair(), points=400, n_base=4, n_prime=1,
                                 base={"kind": "constant", "value": 2.25})
    shifted = build_spec(shifted_cfg)
    b0 = solve_base_eigenproblem(base, n_states=4)
    b1 = solve_base_eigenproblem(shifted, n_states=4)
    assert np.allclose(b1.eigenvalues - b0.eigenvalues, 2.25, rtol=0.0, atol=1e-10)
    assert np.allclose(np.abs(b1.eigenfunctions), np.abs(b0.eigenfunctions),
                       rtol=0.0, atol=1e-8)


def test_cosine_well_matches_refined_grid():
    cfg = spatial_config(pair(), points=600, n_base=3, n_prime=1,
                         base={"kind": "cosine", "amplitude": 1.2, "cycles": 1.0})
    spec = build_spec(cfg)
    basis = solve_base_eigenproblem(spec, n_states=3)
    fine = refined_grid_eigen_oracle(spec, 4,
                                     resample=lambda x: 1.2 * np.cos(2.0 * np.pi * x / L))
    rel = np.abs(basis.eigenvalues - fine) / np.maximum(1.0, np.abs(fine))
    assert np.max(rel) < 5e-4


def test_matrix_element_constant_potential_is_diagonal():
    spec = build_spec(spatial_config(pair(), points=400, n_base=3, n_prime=3))
    basis = solve_base_eigenproblem(spec, n_states=3)
    amp = np.full(spec.grid_points, 0.7 + 0.0j)
    for n in (1, 2, 3):
        for n_prime in (1, 2, 3):
            elem = matrix_element(basis, basis, amp, n_prime, n)
            want = 0.7 if n == n_prime else 0.0
            assert elem == pytest.approx(want, abs=1e-10)


def test_matrix_element_cosine_selection_rule():
    # <m| cos(2*pi*x/L) |n> = (delta_{|m-n|,2} - delta_{m+n,2}) / 2 for sin states
    spec = build_spec(spatial_config(pair(), points=3000, n_base=4, n_prime=4))
    basis = solve_base_eigenproblem(spec, n_states=4)
    amp = np.cos(2.0 * np.pi * spec.grid / L).astype(complex)
    cases = {
        (1, 1): -0.5,
        (3, 1): 0.5,
        (1, 3): 0.5,
        (2, 4): 0.5,
        (2, 2): 0.0,
        (2, 1): 0.0,
        (4, 1): 0.0,
    }
    for (n_prime, n), want in cases.items():
        elem = matrix_element(basis, basis, amp, n_prime, n)
        assert elem.real == pytest.approx(want, abs=2e-5)
        assert elem.imag == pytest.approx(0.0, abs=1e-12)


def test_matrix_element_index_checks():
    spec = build_spec(spatial_config(pair(), points=200, n_base=2, n_prime=2))
    basis = solve_base_eigenproblem(spec, n_states=2)
    amp = np.ones(spec.grid_points, dtype=complex)
    with pytest.raises(IndexError):
        matrix_element(basis, basis, amp, 0, 1)
    with pytest.raises(IndexError):
        matrix_element(basis, basis, amp, 1, 3)
    with pytest.raises(ValueError):
        matrix_element(basis, basis, amp[:-1], 1, 1)


def test_green_function_single_state_product():
    spec = build_spec(spatial_config(pair(), points=200, n_base=1, n_prime=1))
    basis = solve_base_eigenproblem(spec, n_states=1)
    eps = float(basis.eigenvalues[0]) - 2.0
    i, j = 60, 140
    want = basis.eigenfunctions[0, i] * basis.eigenfunctions[0, j] / \
        (basis.eigenvalues[0] - eps)
    assert green_function(basis, eps, i, j) == pytest.approx(complex(want), abs=1e-14)


def test_green_function_symmetric_in_arguments():
    spec = build_spec(spatial_config(pair(), points=200, n_base=4, n_prime=4))
    basis = solve_base_eigenproblem(spec, n_states=4)
    eps = 1.3
    for i, j in ((10, 150), (31, 90), (77, 191)):
        assert green_function(basis, eps, i, j) == green_function(basis, eps, j, i)


def test_green_function_resolvent_identity():
    # (h0 + V0 - eps) G(., x_j) equals the basis-projected delta column
    spec = build_spec(spatial_config(pair(), points=300, n_base=5, n_prime=5))
    basis = solve_base_eigenproblem(spec, n_states=5)
    eps = 0.9
    j = 120
    g = np.array([green_function(basis, eps, i, j) for i in range(spec.grid_points)])
    lhs = apply_h0(spec, g) - eps * g
    delta_proj = np.sum(basis.eigenfunctions * basis.eigenfunctions[:, j][:, None],
                        axis=0)
    assert np.allclose(lhs[1:-1], delta_proj[1:-1], rtol=0.0, atol=1e-8)


def test_green_function_pole_collision_raises():
    spec = build_spec(spatial_config(pair(), points=200, n_base=2, n_prime=2))
    basis = solve_base_eigenproblem(spec, n_states=2)
    with pytest.raises(PoleProximityError):
        green_function(basis, float(basis.eigenvalues[0]), 50, 60)


def test_apply_kinetic_on_sine():
    x = np.linspace(0.0, L, 2000)
    f = np.sin(3.0 * x)
    out = apply_kinetic(x, f)
    assert np.allclose(out[1:-1].real, 4.5 * f[1:-1], rtol=0.0, atol=1e-4)
    assert out[0] == 0.0 and out[-1] == 0.0


def test_discrete_eigenpair_satisfies_apply_h0():
    spec = build_spec(spatial_config(pair(), points=300, n_base=3, n_prime=1,
                                     base={"kind": "cosine", "amplitude": 0.8}))
    basis = solve_base_eigenproblem(spec, n_states=3)
    for k in range(3):
        f = basis.eigenfunctions[k].astype(complex)
        r = apply_h0(spec, f) - basis.eigenvalues[k] * f
        assert np.max(np.abs(r[1:-1])) < 1e-9


def test_v1_sums_all_other_harmonics():
    cfg = temporal_config([
        {"index": 1, "amplitude": gaussian(0.5, 0.4, 0.2)},
        {"index": -1, "amplitude": gaussian(0.5, 0.4, 0.2)},
        {"index": 2, "amplitude": gaussian(0.3, 0.6, 0.15)},
        {"index": -2, "amplitude": gaussian(0.3, 0.6, 0.15)},
    ], base={"kind": "constant", "value": 0.4})
    spec = build_spec(cfg)
    v1 = v1_potential(spec, 1)
    manual = spec.base_potential.astype(complex).copy()
    for h in spec.harmonics:
        if h.index != 1:
            manual = manual + h.amplitude
    assert np.allclose(v1, manual.real, rtol=0.0, atol=1e-15)


def test_v1_with_zero_amplitudes_matches_base_bitwise():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], base={"kind": "cosine", "amplitude": 0.6})
    spec = build_spec(cfg)
    b0 = solve_base_eigenproblem(spec, n_states=3)
    b1 = solve_v1_eigenproblem(spec, 1, n_states=3)
    assert np.array_equal(b0.eigenvalues, b1.eigenvalues)
    assert np.array_equal(b0.eigenfunctions, b1.eigenfunctions)
    assert b1.backend_tag == "v1[k=1]"


def test_v1_kick_train_matches_refined_grid():
    # every harmonic shares one profile: V1 = V0 + (N_p - 1) * profile
    bump = gaussian(0.5, 0.5, 0.12)
    cfg = temporal_config([{"index": k, "amplitude": bump}
                           for k in (-2, -1, 1, 2)], n_base=3, n_prime=3)
    spec = build_spec(cfg)
    v1 = v1_potential(spec, 2)
    manual = 3.0 * spec.harmonic(1).amplitude.real + spec.base_potential
    assert np.allclose(v1, manual, rtol=0.0, atol=1e-14)
    basis = solve_v1_eigenproblem(spec, 2, n_states=3)
    assert np.all(np.diff(basis.eigenvalues) > 0.0)


def test_v1_rejects_spatial_and_unknown_channels():
    spatial = build_spec(spatial_config(pair()))
    with pytest.raises(EigenSolveError):
        v1_potential(spatial, 1)
    temporal = build_spec(temporal_config(pair()))
    with pytest.raises(EigenSolveError):
        v1_potential(temporal, 5)


def test_v1_rejects_complex_summed_potential():
    # one-sided harmonic leaves a complex V1 when the profile is complex
    cfg = temporal_config([
        {"index": 1, "amplitude": {"kind": "constant", "value": [0.0, 0.5]}},
        {"index": -1, "amplitude": {"kind": "constant", "value": [0.0, 0.5]}},
    ])
    spec = build_spec(cfg)
    with pytest.raises(EigenSolveError, match="imaginary"):
        v1_potential(spec, 1)


def real_drive(n_p, height=0.3):
    """Declared-real temporal drive: A_k == A_-k, a different bump per |k|."""
    harmonics = []
    for k in range(1, n_p // 2 + 1):
        bump = gaussian(height / k, 0.3 + 0.1 * k, 0.2)
        harmonics += [{"index": k, "amplitude": bump},
                      {"index": -k, "amplitude": dict(bump)}]
    cfg = temporal_config(harmonics, basis="v1", n_base=2, n_prime=3)
    cfg["perturbation"]["real"] = True
    return build_spec(cfg)


def count_eigensolves(monkeypatch):
    # both the closed-form and the LAPACK branch run inside _diagonalize
    calls = []
    solve = eigenbasis._diagonalize

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigenbasis, "_diagonalize", counted)
    return calls


@pytest.mark.parametrize("n_p", (2, 4, 8))
def test_conjugate_channels_share_one_eigenbasis(n_p, monkeypatch):
    spec = real_drive(n_p)
    for k in range(1, n_p // 2 + 1):
        assert v1_potential(spec, k).tobytes() == v1_potential(spec, -k).tobytes()
    calls = count_eigensolves(monkeypatch)
    bases = build_bases(spec)
    assert len(calls) == n_p // 2 + 1
    for k, basis in bases.channels.items():
        assert basis.backend_tag == f"v1[k={k}]"
        assert basis.eigenvalues is bases.channels[-k].eigenvalues
        own = solve_v1_eigenproblem(spec, k)
        assert np.array_equal(basis.eigenvalues, own.eigenvalues)
        assert np.array_equal(basis.eigenfunctions, own.eigenfunctions)


def test_zero_drive_v1_reuses_base_eigenbasis(monkeypatch):
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([{"index": k, "amplitude": zero} for k in (-2, -1, 1, 2)],
                          basis="v1", base={"kind": "cosine", "amplitude": 0.6})
    spec = build_spec(cfg)
    calls = count_eigensolves(monkeypatch)
    bases = build_bases(spec)
    assert len(calls) == 1
    assert sorted(b.backend_tag for b in bases.channels.values()) == \
        ["v1[k=-1]", "v1[k=-2]", "v1[k=1]", "v1[k=2]"]
    assert all(b.eigenfunctions is bases.base.eigenfunctions
               for b in bases.channels.values())


@pytest.mark.parametrize("n_x", (8, 50, 200, 256, 400, 1001))
@pytest.mark.parametrize("value", (0.0, -3.7, 12.5))
def test_closed_form_matches_lapack(n_x, value):
    from scipy.linalg import eigh_tridiagonal

    grid = np.linspace(0.0, L, n_x)
    h = grid[1] - grid[0]
    n_states = min(n_x - 2, 32)
    basis = eigenbasis._diagonalize(np.full(n_x, value), grid, n_states, "t")
    vals, vecs = eigh_tridiagonal(np.full(n_x - 2, 1.0 / (h * h) + value),
                                  np.full(n_x - 3, -0.5 / (h * h)),
                                  select="i", select_range=(0, n_states - 1))
    want = np.zeros((n_states, n_x))
    want[:, 1:-1] = vecs.T / np.sqrt(h)
    for f in want:
        lobe = f[np.flatnonzero(np.abs(f) > 1e-8 * np.max(np.abs(f)))[0]]
        f *= np.sign(lobe)
    u = np.finfo(float).eps
    assert np.max(np.abs(basis.eigenvalues - vals)) <= 64 * u * 4.0 / (h * h)
    assert np.max(np.abs(basis.eigenfunctions - want)) <= 1e-11
    gram = (basis.quad_weights * basis.eigenfunctions) @ basis.eigenfunctions.T
    assert np.max(np.abs(gram - np.eye(n_states))) <= 1e-13


def run_python(code):
    src = str(Path(eigenbasis.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = run_python("import sys, mws, mws.cli\n"
                     "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert out.strip() == "[]"


def test_constant_potential_solves_without_scipy():
    # a finder that refuses scipy: the closed form must not need it
    out = run_python("""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy blocked")

sys.meta_path.insert(0, NoScipy())
from conftest import fig_anchor_harmonics, spatial_config, temporal_config, weak_harmonics
from mws.model import build_spec
from mws.spectra import solve_spectrum

for cfg in (spatial_config(fig_anchor_harmonics()), temporal_config(weak_harmonics())):
    print(len(list(solve_spectrum(build_spec(cfg)).all_roots())))
""")
    assert [int(n) > 0 for n in out.split()] == [True, True]
