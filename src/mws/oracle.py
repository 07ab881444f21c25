"""Independent brute-force verifiers for the solver's main results.

Nothing here calls the solver's V_nn evaluation or root refinement; agreement
between these oracles and the solver is the acceptance evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mws.errors import SolverError
from mws.model import SystemSpec, scale_amplitudes

_IMAG_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class OracleReport:
    name: str
    compared: str
    discrepancies: np.ndarray
    max_discrepancy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "compared": self.compared,
            "discrepancies": [float(d) for d in self.discrepancies],
            "max_discrepancy": float(self.max_discrepancy),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ascending-power coefficient convolution
    out = np.zeros(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        out[i:i + len(b)] += ai * b
    return out


def _poly_from_roots(roots) -> np.ndarray:
    p = np.array([1.0])
    for r in roots:
        p = _poly_mul(p, np.array([-r, 1.0]))
    return p


def _companion_eigenvalues(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a polynomial given ascending coefficients, leading one monic."""
    c = np.asarray(coeffs, dtype=float)
    c = c / c[-1]
    deg = len(c) - 1
    if deg == 0:
        return np.array([])
    m = np.zeros((deg, deg))
    m[1:, :-1] = np.eye(deg - 1)
    m[:, -1] = -c[:-1]
    return np.linalg.eigvals(m)


def _product_eval(ps: np.ndarray, ws: np.ndarray, e0: float, u: float) -> float:
    # same polynomial, but with the pole factors left unexpanded: each term
    # is well conditioned, so the value is trustworthy even where the
    # monomial coefficients have cancelled catastrophically
    terms = [(e0 - u) * float(np.prod(u - ps))]
    for j in range(len(ps)):
        terms.append(float(ws[j]) * float(np.prod(u - np.delete(ps, j))))
    return math.fsum(terms)


def _bisect_to_ulp(eval_fn, lo: float, hi: float) -> float:
    flo, fhi = eval_fn(lo), eval_fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolverError("polynomial oracle lost its sign change while polishing")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = eval_fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo if abs(flo) <= abs(fhi) else hi


def _polish_in_product_form(ps: np.ndarray, ws: np.ndarray, e0: float,
                            roots_u: np.ndarray) -> np.ndarray:
    order = np.sort(ps)
    eval_fn = lambda u: _product_eval(ps, ws, e0, u)  # noqa: E731
    out = []
    for k, u in enumerate(np.sort(roots_u)):
        if k == 0:
            hi = np.nextafter(order[0], -np.inf)
            lo = min(u - 1e-7 * max(1.0, abs(u)), hi - 1e-12)
            s_hi = eval_fn(hi) > 0.0
            for _ in range(200):
                if (eval_fn(lo) > 0.0) != s_hi or eval_fn(lo) == 0.0:
                    break
                lo -= hi - lo
        elif k == len(roots_u) - 1:
            lo = np.nextafter(order[-1], np.inf)
            hi = max(u + 1e-7 * max(1.0, abs(u)), lo + 1e-12)
            s_lo = eval_fn(lo) > 0.0
            for _ in range(200):
                if (eval_fn(hi) > 0.0) != s_lo or eval_fn(hi) == 0.0:
                    break
                hi += hi - lo
        else:
            lo = np.nextafter(order[k - 1], np.inf)
            hi = np.nextafter(order[k], -np.inf)
        out.append(_bisect_to_ulp(eval_fn, lo, hi))
    return np.array(out)


def polynomial_roots_oracle(table, epsilon0: float) -> np.ndarray:
    """Roots of the cleared-denominator polynomial, via a companion matrix.

    `table` needs `.poles` and `.weights` (the rational-mode data); the
    computation is independent of the solver's rational evaluation.
    """
    poles = np.asarray(table.poles, dtype=float)
    weights = np.asarray(table.weights, dtype=float)
    p_count = len(poles)
    if p_count == 0:
        return np.array([epsilon0])
    if p_count > 12:
        raise SolverError("polynomial oracle supports at most 12 distinct poles")

    # rescale eps = s*u so the companion matrix stays well conditioned
    s = max(1.0, float(np.max(np.abs(poles))), abs(epsilon0))
    ps = poles / s
    ws = weights / (s * s)
    e0 = epsilon0 / s

    # f(u)*prod(u - p_j) = sum_j w_j*prod_{i!=j}(u - p_i) + (e0 - u)*prod(u - p_j)
    full = _poly_from_roots(ps)
    acc = _poly_mul(np.array([e0, -1.0]), full)
    for j in range(p_count):
        partial = _poly_from_roots(np.delete(ps, j))
        acc[: len(partial)] += ws[j] * partial

    raw = _companion_eigenvalues(acc)
    scale = max(1.0, float(np.max(np.abs(raw)))) if len(raw) else 1.0
    if len(raw) and float(np.max(np.abs(raw.imag))) > _IMAG_TOL * scale:
        raise SolverError(
            f"polynomial oracle found residual imaginary parts up to "
            f"{float(np.max(np.abs(raw.imag)))!r}; numerical trouble"
        )
    roots = np.sort(_polish_in_product_form(ps, ws, e0, raw.real)) * s
    if len(roots) != p_count + 1:
        raise SolverError(
            f"polynomial oracle expected {p_count + 1} roots, got {len(roots)}"
        )
    return roots


def _hard_wall_levels(potential: np.ndarray, grid: np.ndarray, n_states: int):
    # LAPACK for every potential, so the oracle stays independent of the
    # closed form the solver uses for constant ones
    from scipy.linalg import eigh_tridiagonal

    h = grid[1] - grid[0]
    diag = 1.0 / (h * h) + potential[1:-1]
    off = np.full(len(grid) - 3, -0.5 / (h * h))
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, n_states - 1))
    funcs = np.zeros((n_states, len(grid)))
    funcs[:, 1:-1] = vecs.T / np.sqrt(h)
    return vals, funcs


def _channel_offset(spec: SystemSpec, index: int) -> float:
    if spec.is_spatial:
        g_p = 2.0 * math.pi * index / spec.perturbation.period
        eps_p = 0.5 * g_p * g_p
        cos_alpha = 1.0 if index > 0 else -1.0
        return eps_p + 2.0 * cos_alpha * math.sqrt(spec.total_energy * eps_p)
    return spec.perturbation.angular_frequency * index


@dataclass(frozen=True, eq=False)
class CoupledMatrix:
    labels: tuple[tuple[int, int], ...]  # (channel index, state index), channel 0 = base
    matrix: np.ndarray
    eigenvalues: np.ndarray


def coupled_matrix_diagonalization(spec: SystemSpec) -> CoupledMatrix:
    """Truncated coupled-channel matrix and its spectrum.

    Block layout: channel 0 with the n_base lowest states, then one block of
    n_prime states per harmonic, diagonal-shifted by the channel offset, with
    V_{g-g'} overlaps coupling the blocks.
    """
    n_states = max(spec.n_base, spec.n_prime)
    vals, funcs = _hard_wall_levels(spec.base_potential, spec.grid, n_states)
    h = spec.grid[1] - spec.grid[0]
    w = np.full(spec.grid_points, h)
    w[0] = w[-1] = 0.5 * h

    amps = {harm.index: harm.amplitude for harm in spec.harmonics}
    labels: list[tuple[int, int]] = [(0, n) for n in range(1, spec.n_base + 1)]
    for harm in spec.harmonics:
        labels.extend((harm.index, i) for i in range(1, spec.n_prime + 1))
    dim = len(labels)

    def element(amp: np.ndarray, i: int, j: int) -> complex:
        return complex(np.sum(w * funcs[i - 1] * amp * funcs[j - 1]))

    m = np.zeros((dim, dim), dtype=complex)
    for a, (ch_a, st_a) in enumerate(labels):
        for b, (ch_b, st_b) in enumerate(labels):
            if a == b:
                m[a, b] = vals[st_a - 1] + (_channel_offset(spec, ch_a) if ch_a else 0.0)
            elif ch_a == ch_b:
                m[a, b] = 0.0
            else:
                diff = ch_a - ch_b
                if diff in amps:
                    m[a, b] = element(amps[diff], st_a, st_b)

    herm_defect = float(np.max(np.abs(m - m.conj().T)))
    scale = max(1.0, float(np.max(np.abs(m))))
    if herm_defect > 1e-10 * scale:
        raise SolverError(
            f"coupled matrix is not Hermitian (defect {herm_defect!r}); "
            f"the oracle needs conjugate-paired harmonics"
        )
    eigs = np.linalg.eigvalsh(m)
    return CoupledMatrix(labels=tuple(labels), matrix=m, eigenvalues=eigs)


def subset_recovery_distance(roots: np.ndarray, eigenvalues: np.ndarray) -> float:
    """Max over oracle eigenvalues of the distance to the nearest solver root."""
    roots = np.asarray(roots, dtype=float)
    if len(roots) == 0:
        raise SolverError("no solver roots to compare against")
    return float(max(np.min(np.abs(roots - e)) for e in eigenvalues))


def refined_grid_eigen_oracle(spec: SystemSpec, factor: int,
                              resample=None) -> np.ndarray:
    """Base eigenvalues on a factor-refined grid (1, 2, or 4).

    `resample` maps grid positions to potential values; the default linearly
    interpolates the stored samples.
    """
    if factor not in (1, 2, 4):
        raise SolverError("refinement factor must be 1, 2, or 4")
    n_x = spec.grid_points if factor == 1 else factor * spec.grid_points
    grid = np.linspace(0.0, spec.box_length, n_x)
    if resample is None:
        potential = np.interp(grid, spec.grid, spec.base_potential)
    else:
        potential = np.asarray([resample(x) for x in grid], dtype=float)
    n_states = max(spec.n_base, spec.n_prime)
    vals, _ = _hard_wall_levels(potential, grid, n_states)
    return np.asarray(vals)


def run_all_oracles(spec: SystemSpec) -> list[OracleReport]:
    """Every oracle on one config; used by the verify subcommand."""
    from mws.spectra import solve_spectrum  # local import avoids a cycle

    reports: list[OracleReport] = []
    result = solve_spectrum(spec)

    # 1. bracketed roots vs polynomial roots, per base state
    rel = []
    for st in result.states:
        if len(st.table.poles) > 12:
            continue
        oracle_roots = polynomial_roots_oracle(st.table, st.epsilon0)
        for a, b in zip(st.roots, oracle_roots):
            rel.append(abs(a - b) / max(1.0, abs(b)))
    reports.append(_report("polynomial-roots", "bracketed roots vs companion-matrix roots",
                           np.array(rel), 1e-9))

    # 2. weak-coupling subset recovery: distances must shrink >= 3x per halving
    dists = []
    for s in (1.0, 0.5, 0.25):
        sub = scale_amplitudes(spec, s)
        r = solve_spectrum(sub)
        eigs = coupled_matrix_diagonalization(sub).eigenvalues
        roots = np.array([v for (_, _, v) in r.all_roots()])
        dists.append(subset_recovery_distance(roots, eigs))
    shortfalls = []
    for d0, d1 in zip(dists, dists[1:]):
        ratio = d0 / d1 if d1 > 0.0 else math.inf
        shortfalls.append(max(0.0, 3.0 - ratio))
    reports.append(_report("coupled-matrix-sweep",
                           "oracle-eigenvalue distance shrink ratio under amplitude halving",
                           np.array(shortfalls), 0.0))

    # 3. discretization error versus a doubled grid
    base = refined_grid_eigen_oracle(spec, 1)
    fine = refined_grid_eigen_oracle(spec, 2)
    rel_err = np.abs(base - fine) / np.maximum(1.0, np.abs(fine))
    reports.append(_report("refined-grid", "base eigenvalues vs doubled grid",
                           rel_err, 5e-3))
    return reports


def _report(name: str, compared: str, discrepancies: np.ndarray,
            tolerance: float) -> OracleReport:
    max_d = float(np.max(discrepancies)) if len(discrepancies) else 0.0
    return OracleReport(name=name, compared=compared,
                        discrepancies=discrepancies,
                        max_discrepancy=max_d, tolerance=tolerance)
