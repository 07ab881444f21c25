"""Independent verification routes: polynomial, matrix, and refined-grid oracles."""

import numpy as np
import pytest

import mws.spectra as spectra
from conftest import gaussian, temporal_config, weak_harmonics
from mws.errors import SolverError
from mws.model import build_spec, scale_amplitudes
from mws.oracle import (
    coupled_matrix_diagonalization,
    polynomial_roots_oracle,
    refined_grid_eigen_oracle,
    run_all_oracles,
    subset_recovery_distance,
)
from mws.spectra import find_roots, solve_spectrum


class Table:
    """Minimal stand-in carrying .poles and .weights."""

    def __init__(self, poles, weights):
        self.poles = np.asarray(poles, dtype=float)
        self.weights = np.asarray(weights, dtype=float)


def test_polynomial_oracle_quadratic():
    # w=1, p=0, eps0=0: eps^2 = 1
    roots = polynomial_roots_oracle(Table([0.0], [1.0]), 0.0)
    assert np.allclose(roots, [-1.0, 1.0], rtol=0.0, atol=1e-12)


def test_polynomial_oracle_empty_table():
    roots = polynomial_roots_oracle(Table([], []), 2.5)
    assert roots.tolist() == [2.5]


def test_polynomial_oracle_rejects_large_tables():
    poles = np.arange(13, dtype=float)
    with pytest.raises(SolverError):
        polynomial_roots_oracle(Table(poles, np.ones(13)), 0.0)


def test_polynomial_oracle_matches_solver_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        p_count = int(rng.integers(1, 9))
        poles = np.cumsum(rng.uniform(0.3, 4.0, size=p_count)) - 6.0
        weights = rng.uniform(0.1, 3.0, size=p_count)
        eps0 = float(rng.uniform(-8.0, 8.0))
        table = Table(poles, weights)
        oracle = polynomial_roots_oracle(table, eps0)
        from mws import _kernels

        solver = _kernels.solve_secular(poles, weights, eps0)[0]
        rel = np.abs(solver - oracle) / np.maximum(1.0, np.abs(oracle))
        assert np.max(rel) < 1e-9


def test_coupled_matrix_block_structure(weak_temporal_spec):
    cm = coupled_matrix_diagonalization(weak_temporal_spec)
    # labels: base block then one block per harmonic
    n_s = weak_temporal_spec.n_base
    n_pr = weak_temporal_spec.n_prime
    assert cm.labels[:n_s] == tuple((0, n) for n in range(1, n_s + 1))
    assert len(cm.labels) == n_s + weak_temporal_spec.n_harmonics * n_pr
    assert cm.matrix.shape == (len(cm.labels), len(cm.labels))
    assert np.all(np.diff(cm.eigenvalues) >= 0.0)


def test_coupled_matrix_zero_amplitudes_diagonal():
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], omega=5.0, n_base=2, n_prime=2)
    spec = build_spec(cfg)
    cm = coupled_matrix_diagonalization(spec)
    off = cm.matrix - np.diag(np.diag(cm.matrix))
    assert np.all(off == 0.0)
    # eigenvalues are the shifted level sets themselves
    diag = np.sort(np.diag(cm.matrix).real)
    assert np.allclose(cm.eigenvalues, diag, rtol=0.0, atol=1e-12)


def test_coupled_matrix_rejects_nonhermitian():
    # a one-sided harmonic with complex amplitude breaks conjugate pairing
    cfg = temporal_config([
        {"index": 1, "amplitude": {"kind": "constant", "value": [0.3, 0.4]}},
    ], n_base=2, n_prime=2)
    spec = build_spec(cfg)
    with pytest.raises(SolverError, match="Hermitian"):
        coupled_matrix_diagonalization(spec)


def test_subset_recovery_distance_examples():
    roots = np.array([0.0, 1.0, 5.0])
    assert subset_recovery_distance(roots, np.array([1.1, 4.5])) == \
        pytest.approx(0.5)
    with pytest.raises(SolverError):
        subset_recovery_distance(np.array([]), np.array([1.0]))


def test_subset_recovery_shrinks_quadratically(weak_temporal_spec):
    dists = []
    for s in (1.0, 0.5, 0.25, 0.125):
        sub = scale_amplitudes(weak_temporal_spec, s)
        result = solve_spectrum(sub)
        eigs = coupled_matrix_diagonalization(sub).eigenvalues
        roots = np.array([v for (_, _, v) in result.all_roots()])
        dists.append(subset_recovery_distance(roots, eigs))
    for d0, d1 in zip(dists, dists[1:]):
        assert d0 / d1 >= 3.0


def test_refined_grid_factor_one_is_identity(weak_temporal_spec):
    from mws.eigenbasis import solve_base_eigenproblem

    vals = refined_grid_eigen_oracle(weak_temporal_spec, 1)
    basis = solve_base_eigenproblem(weak_temporal_spec)
    assert np.allclose(vals, basis.eigenvalues, rtol=0.0, atol=1e-12)


def test_refined_grid_reduces_discretization_error():
    cfg = temporal_config(weak_harmonics(), points=200)
    spec = build_spec(cfg)
    exact = np.array([0.5, 2.0])
    e1 = np.abs(refined_grid_eigen_oracle(spec, 1) - exact)
    e2 = np.abs(refined_grid_eigen_oracle(spec, 2) - exact)
    e4 = np.abs(refined_grid_eigen_oracle(spec, 4) - exact)
    assert np.all(e1 / e2 > 3.0)
    assert np.all(e2 / e4 > 3.0)


def test_refined_grid_rejects_unknown_factor(weak_temporal_spec):
    with pytest.raises(SolverError):
        refined_grid_eigen_oracle(weak_temporal_spec, 3)


def test_run_all_oracles_green(weak_temporal_spec):
    reports = run_all_oracles(weak_temporal_spec)
    names = [r.name for r in reports]
    assert names == ["polynomial-roots", "coupled-matrix-sweep", "refined-grid"]
    for r in reports:
        assert r.passed, f"{r.name}: max {r.max_discrepancy} > tol {r.tolerance}"
        d = r.as_dict()
        assert d["name"] == r.name
        assert d["passed"] is True


def test_run_all_oracles_solves_three_times(weak_temporal_spec, monkeypatch):
    # the amplitude sweep's scale 1.0 is the spec itself, already solved
    solved = []
    real = spectra.solve_spectrum
    monkeypatch.setattr(spectra, "solve_spectrum", lambda spec: solved.append(spec) or real(spec))
    run_all_oracles(weak_temporal_spec)
    assert len(solved) == 3


def test_report_that_compared_nothing_fails():
    # 16 poles per base state: the polynomial oracle's 12-pole cap skips both states
    spec = build_spec(temporal_config(weak_harmonics(), n_prime=4, n_base=2))
    assert all(len(st.table.poles) == 16 for st in solve_spectrum(spec).states)
    poly, *others = [r.as_dict() for r in run_all_oracles(spec)]
    assert poly["name"] == "polynomial-roots"
    assert poly["n_compared"] == 0
    assert poly["passed"] is False
    assert "12-pole cap" in poly["compared"]
    for d in others:
        assert d["n_compared"] == len(d["discrepancies"]) > 0
        assert d["passed"] is True


def test_report_failure_flag():
    from mws.oracle import OracleReport

    bad = OracleReport(name="x", compared="y", discrepancies=np.array([1.0]),
                       max_discrepancy=1.0, tolerance=0.5)
    assert not bad.passed
