"""1D eigenproblems on the hard-wall grid, matrix elements, Green function.

Discretization: second-order central differences on the uniform grid, with the
wavefunction pinned to zero at both endpoints; trapezoid quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mws.errors import EigenSolveError, PoleProximityError
from mws.model import SystemSpec, TimePeriodic

_SIGN_CUT = 1e-8  # relative threshold locating the first nonzero lobe


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Orthonormal eigenpairs of a 1D Hamiltonian on a grid."""

    eigenvalues: np.ndarray    # ascending, shape (n_states,)
    eigenfunctions: np.ndarray  # shape (n_states, n_x), real
    quad_weights: np.ndarray   # trapezoid weights, shape (n_x,)
    grid: np.ndarray           # shape (n_x,)
    backend_tag: str

    def __post_init__(self):
        for a in (self.eigenvalues, self.eigenfunctions, self.quad_weights, self.grid):
            a.setflags(write=False)

    @property
    def n_states(self) -> int:
        return len(self.eigenvalues)


def _trapezoid_weights(n_x: int, h: float) -> np.ndarray:
    w = np.full(n_x, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def _toeplitz_eigenpairs(value: float, h: float, m: int, n_states: int):
    """Lowest eigenpairs of the m x m hard-wall matrix with constant potential.

    The matrix is tridiagonal Toeplitz (1/h^2 + value on the diagonal,
    -1/(2h^2) off it), with eigenvalues value + (2/h^2) sin^2(k pi/(2(m+1)))
    and eigenvectors sqrt(2/(m+1)) sin(i k pi/(m+1)) (Noschese, Pasquini &
    Reichel, Numer. Linear Algebra Appl. 20, 302 (2013)). The sin^2 form
    avoids the cancellation of 1 - cos at low k; i*k is reduced modulo
    2(m+1) in integers so every sine argument stays below 2 pi.
    """
    k = np.arange(1, n_states + 1)
    theta = np.pi / (m + 1)
    vals = value + (2.0 / (h * h)) * np.sin(0.5 * theta * k) ** 2
    phase = np.outer(np.arange(1, m + 1), k) % (2 * (m + 1))
    return vals, np.sqrt(2.0 / (m + 1)) * np.sin(theta * phase)


def _diagonalize(potential: np.ndarray, grid: np.ndarray, n_states: int,
                 tag: str) -> EigenBasis:
    n_x = len(grid)
    if n_states > n_x - 2:
        raise EigenSolveError(
            f"requested {n_states} states but the grid supports only {n_x - 2} "
            f"interior points"
        )
    h = grid[1] - grid[0]
    interior = potential[1:-1]
    if np.all(interior == interior[0]):
        vals, vecs = _toeplitz_eigenpairs(float(interior[0]), h, n_x - 2, n_states)
    else:
        from scipy.linalg import eigh_tridiagonal  # LAPACK only where needed

        diag = 1.0 / (h * h) + interior
        off = np.full(n_x - 3, -0.5 / (h * h))
        try:
            vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                          select_range=(0, n_states - 1))
        except Exception as exc:  # pragma: no cover - scipy failure path
            raise EigenSolveError(
                f"tridiagonal eigensolve failed (n_x={n_x}, h={h!r}): {exc}"
            ) from exc

    funcs = np.zeros((n_states, n_x))
    # discrete l2-orthonormal columns + zero endpoints => trapezoid norm is
    # exactly h; dividing by sqrt(h) makes the quadrature norm exactly 1
    funcs[:, 1:-1] = vecs.T / np.sqrt(h)
    for i in range(n_states):
        f = funcs[i]
        cut = _SIGN_CUT * np.max(np.abs(f))
        for v in f:
            if abs(v) > cut:
                if v < 0.0:
                    funcs[i] = -f
                break
    return EigenBasis(
        eigenvalues=np.ascontiguousarray(vals),
        eigenfunctions=np.ascontiguousarray(funcs),
        quad_weights=_trapezoid_weights(n_x, h),
        grid=np.ascontiguousarray(grid),
        backend_tag=tag,
    )


def solve_base_eigenproblem(spec: SystemSpec, n_states: int | None = None) -> EigenBasis:
    """Lowest eigenpairs of h0 + V0 with hard walls.

    `n_states` defaults to max(n_base, n_prime) so the same basis serves both
    the base states and the primed channel states.
    """
    if n_states is None:
        n_states = max(spec.n_base, spec.n_prime)
    return _diagonalize(spec.base_potential, spec.grid, n_states, "unperturbed")


def v1_potential(spec: SystemSpec, excluded_index: int) -> np.ndarray:
    """V1 = V0 + sum of all harmonic amplitudes except the excluded one.

    Equivalently the full potential at t = 0 minus the excluded harmonic.
    """
    if not isinstance(spec.perturbation, TimePeriodic):
        raise EigenSolveError("the v1 backend applies to time-periodic perturbations only")
    if excluded_index not in spec.indices:
        raise EigenSolveError(f"excluded index {excluded_index} is not a retained harmonic")
    v1 = spec.base_potential.astype(complex)
    # summed in (|k|, k) order, so that channels +-k of a drive with
    # A_k == A_-k get bitwise-equal potentials (and `build_bases` one eigensolve)
    for harm in sorted(spec.harmonics, key=lambda h: (abs(h.index), h.index)):
        if harm.index != excluded_index:
            v1 = v1 + harm.amplitude
    scale = np.max(np.abs(v1)) if len(v1) else 0.0
    if scale > 0.0 and np.max(np.abs(v1.imag)) > 1e-12 * scale:
        raise EigenSolveError(
            "summed potential has a non-negligible imaginary part; "
            "the v1 backend needs a real potential"
        )
    return np.ascontiguousarray(v1.real)


def solve_v1_eigenproblem(spec: SystemSpec, excluded_index: int,
                          n_states: int | None = None) -> EigenBasis:
    """Lowest eigenpairs of h0 + V1 for the given excluded harmonic."""
    if n_states is None:
        n_states = max(spec.n_base, spec.n_prime)
    v1 = v1_potential(spec, excluded_index)
    return _diagonalize(v1, spec.grid, n_states, f"v1[k={excluded_index}]")


def _check_operands(bra_basis: EigenBasis, ket_basis: EigenBasis,
                    amplitude: np.ndarray, n_prime: int, n: int) -> None:
    if not (1 <= n_prime <= bra_basis.n_states):
        raise IndexError(f"n'={n_prime} out of range 1..{bra_basis.n_states}")
    if not (1 <= n <= ket_basis.n_states):
        raise IndexError(f"n={n} out of range 1..{ket_basis.n_states}")
    if bra_basis.grid.shape != ket_basis.grid.shape or \
            not np.array_equal(bra_basis.grid, ket_basis.grid):
        raise ValueError("bra and ket bases live on different grids")
    if len(amplitude) != len(bra_basis.grid):
        raise ValueError("amplitude samples do not match the basis grid")


def _quadrature_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis; exactly 0 where |sum| <= n_x u sum|terms|, its
    rounding error bound (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 4; u = 2^-53). Such noise, as of a coupling parity forbids, deflates as a
    zero does (Dongarra & Sorensen, SIAM J. Sci. Stat. Comput. 8, s139 (1987))."""
    total = np.sum(terms, axis=-1)
    floor = terms.shape[-1] * 2.0 ** -53 * np.sum(np.abs(terms), axis=-1)
    return np.where(np.abs(total) <= floor, 0.0, total)


def matrix_element(bra_basis: EigenBasis, ket_basis: EigenBasis,
                   amplitude: np.ndarray, n_prime: int, n: int) -> complex:
    """<psi_{n'} | V | psi_n> under the stored quadrature (1-based indices)."""
    _check_operands(bra_basis, ket_basis, amplitude, n_prime, n)
    bra = bra_basis.eigenfunctions[n_prime - 1]
    ket = ket_basis.eigenfunctions[n - 1]
    terms = bra_basis.quad_weights * np.conjugate(bra) * amplitude * ket
    return complex(_quadrature_sum(terms))


def matrix_element_block(bra_basis: EigenBasis, ket_basis: EigenBasis,
                         amplitude: np.ndarray, n_prime: int, n: int) -> np.ndarray:
    """Every <psi_{n'} | V | psi_m> with n' <= n_prime and m <= n, shape (n_prime, n).

    Each entry is bitwise equal to `matrix_element`: the factors are multiplied
    in the same order and each row is reduced on its own.
    """
    _check_operands(bra_basis, ket_basis, amplitude, n_prime, n)
    bra = bra_basis.eigenfunctions[:n_prime]
    ket = ket_basis.eigenfunctions[:n]
    terms = (bra_basis.quad_weights * np.conjugate(bra))[:, None, :] * amplitude * ket[None]
    return _quadrature_sum(terms)


def green_function(basis: EigenBasis, epsilon_s_channel: float,
                   x_index: int, xp_index: int) -> complex:
    """Channel Green function sum over the stored states at two grid indices."""
    evs = basis.eigenvalues
    spread = float(evs[-1] - evs[0]) if len(evs) > 1 else 1.0
    tol = 1e-9 * max(1.0, spread)
    gaps = np.abs(evs - epsilon_s_channel)
    hit = int(np.argmin(gaps))
    if gaps[hit] <= tol:
        raise PoleProximityError(
            f"channel energy {epsilon_s_channel!r} collides with basis "
            f"eigenvalue index {hit + 1} ({evs[hit]!r})"
        )
    psi_x = basis.eigenfunctions[:, x_index]
    psi_xp = basis.eigenfunctions[:, xp_index]
    return complex(np.sum(psi_x * psi_xp / (evs - epsilon_s_channel)))


def apply_kinetic(grid: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """-(1/2) d^2/dx^2 by central differences; endpoints forced to zero."""
    h = grid[1] - grid[0]
    out = np.zeros_like(np.asarray(samples, dtype=complex))
    out[1:-1] = -0.5 * (samples[2:] - 2.0 * samples[1:-1] + samples[:-2]) / (h * h)
    return out


def apply_h0(spec: SystemSpec, samples: np.ndarray) -> np.ndarray:
    """(h0 + V0) applied to grid samples (hard-wall convention)."""
    out = apply_kinetic(spec.grid, samples)
    out[1:-1] += spec.base_potential[1:-1] * samples[1:-1]
    return out
