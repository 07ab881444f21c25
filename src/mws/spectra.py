"""Spectrum solver: interlaced root finding, counting laws, realisations.

The dispersion relation V_nn(eps) = eps - eps0 is solved per base state; in
the approximate regime V_nn is a rational function and every open interval
between consecutive poles carries exactly one root.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from mws import _kernels
from mws.effpot import ChannelBases, Members, PoleWeightTable, _exact_denominator, \
    _exact_vnn, apply_effective_potential, build_bases, build_pole_weight_tables, merge_poles
from mws.eigenbasis import EigenBasis, apply_kinetic, matrix_element, \
    solve_base_eigenproblem
from mws.errors import SolverError, UnsupportedModeError
from mws.model import SystemSpec


@dataclass(frozen=True, eq=False)
class RootSet:
    """Roots with bracket certificates f(lo) > 0 > f(hi) (exact form: of
    opposite signs, or a zero end) and residuals |f(root)|."""

    roots: np.ndarray
    bracket_lo: np.ndarray
    bracket_hi: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True, eq=False)
class StateSpectrum:
    n: int
    epsilon0: float
    table: PoleWeightTable
    rootset: RootSet

    @property
    def roots(self) -> np.ndarray:
        return self.rootset.roots


@dataclass(frozen=True)
class CountReport:
    n_p: int
    n_prime: int
    n_s: int
    n_max: int
    n_0: int
    n_delta: int
    n_max_reduced: int
    n_0_reduced: int
    n_delta_reduced: int
    max_per_normal_reduced: float


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    states: tuple[StateSpectrum, ...]
    counts: CountReport
    observed_total: int
    degeneracy_deficit: int
    mode: str
    bases: ChannelBases | None = None   # the bases the tables were built on

    def all_roots(self) -> list[tuple[int, int, float]]:
        """(n, j, root) triples in fixed order."""
        out = []
        for st in self.states:
            for j, r in enumerate(st.roots, start=1):
                out.append((st.n, j, float(r)))
        return out


@dataclass(frozen=True)
class RootRef:
    n: int
    j: int
    value: float


@dataclass(frozen=True)
class Realisation:
    index: int
    members: tuple[RootRef, ...]


@dataclass(frozen=True)
class RealisationEnsemble:
    realisations: tuple[Realisation, ...]
    method: str
    n_r: int


def _solve_rational(tables: list[tuple[np.ndarray, np.ndarray, float]],
                    labels: list[int] | range) -> list[RootSet]:
    """Certified roots of every (poles, weights, eps0) table in one batch, each
    table gated by `_assert_rootset` with its label (base state) in the messages."""
    rootsets = [RootSet(*columns) for columns in _kernels.solve_secular_batch(tables)]
    for (poles, _, _), rs, label in zip(tables, rootsets, labels):
        _assert_rootset(poles, rs, label)
    return rootsets


def find_roots(table: PoleWeightTable, epsilon0: float) -> RootSet:
    """All roots of V_nn(eps) = eps - eps0, one per pole-bounded interval;
    SolverError if they fail the gate (`_assert_rootset`)."""
    if table.exact_spatial:
        raise UnsupportedModeError(
            "guaranteed root finding needs the rational (approximate) form; "
            "use find_roots_exact"
        )
    return _solve_rational([(table.poles, table.weights, epsilon0)], [table.base_state])[0]


def _k_poles(m: Members, total_energy: float) -> tuple[np.ndarray, np.ndarray]:
    """(G, R) of every member: at eps = E - K^2/2 its denominator is
    -((K + G)^2 - R^2)/2, with G = cos(alpha) sqrt(2 eps_p) and
    R^2 = 2(E - eps0' - eps_p (1 - cos^2 alpha)), so its K-poles are -G +- R.
    R is complex where R^2 < 0 (no real singularity)."""
    g = m.cos_alpha * np.sqrt(2.0 * m.eps_p)
    r2 = 2.0 * (total_energy - m.eps0_aux - m.eps_p * (1.0 - m.cos_alpha ** 2))
    return g, np.sqrt(r2.astype(complex) if (r2 < 0.0).any() else r2)


def curve_edges(table: PoleWeightTable, epsilon0: float) -> list[float]:
    """Edges of figure1's curve segments, ascending: a rational table's poles
    with a margin max(spread, 1) each side (epsilon0 -+ 1 without poles); for
    an exact spatial table a lower bound, the singularities below E, and E.

    The singularities are the real K-poles q = -G +- R > 0 of `_k_poles`,
    at eps = E - q^2/2; a member whose K-poles are all negative or complex
    has no zero on the eps <= E branch, whatever its table pole says.
    """
    if not table.exact_spatial:
        poles = table.poles.tolist()
        if not poles:
            return [epsilon0 - 1.0, epsilon0 + 1.0]
        margin = max(poles[-1] - poles[0], 1.0)
        return [poles[0] - margin] + poles + [poles[-1] + margin]
    e = table.total_energy
    g, r = _k_poles(table.members, e)
    q = np.concatenate([-g + r, -g - r])
    q = q.real[(q.imag == 0.0) & (q.real > 0.0)]
    poles = sorted(set((e - 0.5 * q * q).tolist()))
    if poles:
        lo = min(poles[0], epsilon0) - (poles[-1] - poles[0] + 1.0)
    else:
        lo = epsilon0 - 1.0
    if e <= lo:
        lo = e - max(1.0, abs(e))
    return [lo] + [p for p in poles if lo < p < e] + [e]


def _k_companion(m: Members, total_energy: float, epsilon0: float) -> np.ndarray:
    """Companion matrix whose eigenvalues are every solution K of the exact
    relation times 2, K^2 + 2(eps0 - E) + sum_j b_j/(K - q_j) = 0.

    Each member with w != 0 gives the K-poles q = -G + R, -G - R with
    weights b = -2w/R, +2w/R (`_k_poles`); rows 2.. hold y_j = 1/(K - q_j).
    At R == 0 its term is -4w/(K + G)^2, a Jordan pair y1 = 1/(K + G),
    y2 = y1^2. The matrix is real unless some R^2 < 0.
    """
    live = m.weight != 0.0
    if not live.all():
        m = Members(*(column[live] for column in m))
    w = m.weight
    g, r = _k_poles(m, total_energy)
    simple = r != 0.0
    q = np.concatenate([-g[simple] + r[simple], -g[simple] - r[simple]])
    b = np.concatenate([-2.0 * w[simple] / r[simple], 2.0 * w[simple] / r[simple]])
    n = len(q)
    dim = 2 + n + 2 * int(np.count_nonzero(~simple))
    mat = np.zeros((dim, dim), dtype=r.dtype)
    mat[0, 1] = 1.0
    mat[1, 0] = 2.0 * (total_energy - epsilon0)
    j = np.arange(2, 2 + n)
    mat[1, j] = -b
    mat[j, 0] = 1.0
    mat[j, j] = q
    y1 = np.arange(2 + n, dim, 2)
    mat[y1, 0] = 1.0
    mat[y1, y1] = mat[y1 + 1, y1 + 1] = -g[~simple]
    mat[y1 + 1, y1] = 1.0
    mat[1, y1 + 1] = 4.0 * w[~simple]
    return mat


def find_roots_exact(table: PoleWeightTable, epsilon0: float) -> RootSet:
    """Certified roots of the exact relation V_nn(eps) = eps - eps0 (no count
    claim), ascending, each with its bracket.

    With eps = E - K^2/2 the relation is rational in the Bloch wavenumber K,
    and the eigenvalues of one companion matrix (`_k_companion`) are all of
    its solutions. Each eigenvalue with Re K >= -tol and |Im K| <= tol,
    tol = 1e-8 max(1, |K|), gives a candidate eps = E - K^2/2; the margin
    below 0 keeps a root at eps = E, whose K = 0 comes back as +-1e-16. A
    candidate is certified when its window [eps - h, min(eps + h, E)],
    h = 1e-9 max(1, |eps|), holds no sign change of any member's denominator
    and a sign change (or a zero) of f = V_nn - eps + eps0, both evaluated
    by `effpot._exact_vnn`/`_exact_denominator`. Candidates that fail the
    certificate are not returned, and one warning per table names the base
    state and their count. Tables without exact square-root denominators go
    to `find_roots`.

    The same one f call takes f' at each candidate. The window ends are then
    the known limits of `_kernels.polish`, with f negated where it rises, so
    the approx roots' loop narrows each window to its root; the brackets,
    their f values and the residuals are those of the evaluated floats.
    """
    if not table.exact_spatial:
        return find_roots(table, epsilon0)
    e = table.total_energy
    m = table.members
    k = np.linalg.eigvals(_k_companion(m, e, epsilon0))
    tol = 1e-8 * np.maximum(1.0, np.abs(k))
    eps = np.sort(e - 0.5 * k.real[(k.real >= -tol) & (np.abs(k.imag) <= tol)] ** 2)
    scale = np.maximum(1.0, np.abs(eps))
    x = np.array([eps - 1e-9 * scale, eps, np.minimum(eps + 1e-9 * scale, e)])  # ascending

    def evaluate(rows, x):
        """f (negated where it rises) at the (3, c) points x, and f' at x[1]."""
        vnn, slope = _exact_vnn(m, e, x, slope=1)
        return (vnn - x + epsilon0) * sign[rows], (slope - 1.0) * sign[rows]

    sign = np.ones(len(eps))
    fx, slope = evaluate(slice(None), x)
    ends = x[::2, :, None]
    d = _exact_denominator(m, ends, e - ends)
    ok = ((d[0] > 0.0) == (d[1] > 0.0)).all(axis=1) & (np.sign(fx[0]) * np.sign(fx[2]) <= 0.0)
    if not ok.all():
        warnings.warn(f"exact mode: {len(eps) - int(np.count_nonzero(ok))} eigenvalue "
                      f"candidate(s) of base state {table.base_state} failed the "
                      f"window certificate and are not returned", stacklevel=2)
        x, fx, slope, eps, scale = x[:, ok], fx[:, ok], slope[ok], eps[ok], scale[ok]
    # f must fall through each root: negate it where it rises
    sign = np.where((fx[0] > 0.0) | (fx[2] < 0.0), 1.0, -1.0)
    fx *= sign

    # f's resolution is at least the rounding of a denominator's arguments,
    # 2u(|eps| + |eps0'| + eps_p + 2|cos(alpha)| sqrt((E - eps) eps_p)), each
    # square root at most (E - eps + eps_p)/2
    args = np.max(np.abs(m.eps0_aux) + 2.0 * m.eps_p, initial=0.0)
    *columns, stuck = _kernels.polish(evaluate, eps, fx[1], slope * sign, x[0], fx[0], x[2], fx[2],
                                      np.full(len(eps), float(epsilon0)), scale,
                                      2.0 * _kernels._U * (np.abs(eps) + (e - eps) + args))
    columns[3] *= sign
    columns[4] *= sign
    # two candidates of one root: the second lies in the first one's window
    # (or, polished past it, below it)
    keep = np.flatnonzero(~stuck)
    root = columns[0][keep]
    keep = keep[np.concatenate(([True], np.diff(root) > 1e-9 * np.maximum(1.0, np.abs(root[:-1]))))
                [:len(keep)]]
    rs = RootSet(*(a[keep] for a in columns))
    _assert_rootset(table.poles, rs, table.base_state, exact=table)
    return rs


def count_solutions(spec: SystemSpec) -> CountReport:
    """Closed-form solution counts from the truncation parameters."""
    n_p = spec.n_harmonics
    n_pr = spec.n_prime
    n_s = spec.n_base
    n_max_r = n_p * n_pr + 1
    n_0_r = n_pr + 1
    n_delta_r = n_pr * max(n_p - 1, 0)     # no drive (n_p = 0) adds no roots either
    return CountReport(
        n_p=n_p,
        n_prime=n_pr,
        n_s=n_s,
        n_max=n_max_r * n_s,
        n_0=n_0_r * n_s,
        n_delta=n_delta_r * n_s,
        n_max_reduced=n_max_r,
        n_0_reduced=n_0_r,
        n_delta_reduced=n_delta_r,
        max_per_normal_reduced=n_max_r / n_0_r,
    )


def assert_interlacing(poles: np.ndarray, roots: np.ndarray) -> None:
    """Strict alternation root < pole < root < ... with P+1 roots."""
    if len(roots) != len(poles) + 1:
        raise SolverError(
            f"expected {len(poles) + 1} roots for {len(poles)} poles, got {len(roots)}"
        )
    merged = np.empty(len(poles) + len(roots))
    merged[0::2] = roots
    merged[1::2] = poles
    if not np.all(np.diff(merged) > 0.0):
        raise SolverError("poles and roots do not strictly alternate")


def _assert_rootset(poles: np.ndarray, rs: RootSet, n: int,
                    exact: PoleWeightTable | None = None) -> None:
    """The gate: interlacing, f_lo > 0 > f_hi and |f| <= 1e-9*max(1,|eps|).

    For `exact`, the exact spatial table the roots solve, it is instead
    lo <= root <= hi <= E, f_lo and f_hi of opposite signs (or a zero end),
    and no member's denominator of opposite signs at lo and hi; exact roots
    make no count claim, and the residual bound waits for a shifted form of f
    (some roots next to steep, weakly coupled singularities miss it).
    """
    if exact is not None:
        e = exact.total_energy
        held = (rs.bracket_lo <= rs.roots) & (rs.roots <= rs.bracket_hi) & (rs.bracket_hi <= e)
        if held.all() and (np.sign(rs.f_lo) * np.sign(rs.f_hi) <= 0.0).all():
            ends = np.array([rs.bracket_lo, rs.bracket_hi])[..., None]
            positive = _exact_denominator(exact.members, ends, e - ends) > 0.0
            if (positive[0] == positive[1]).all():
                return
        raise SolverError(f"bracket certificate failed for base state {n}")
    assert_interlacing(poles, rs.roots)
    if len(poles) > 0 and not np.all((rs.f_lo > 0.0) & (rs.f_hi < 0.0)):
        raise SolverError(f"bracket certificate failed for base state {n}")
    bound = 1e-9 * np.maximum(1.0, np.abs(rs.roots))
    worst = int(np.argmax(rs.residuals - bound))
    if rs.residuals[worst] > bound[worst]:
        raise SolverError(
            f"residual {float(rs.residuals[worst])} at root {float(rs.roots[worst])} "
            f"(base state {n}) exceeds 1e-9*max(1,|eps|)"
        )


def solve_spectrum(spec: SystemSpec) -> SpectrumResult:
    """Full pipeline: bases, pole tables, roots per base state, counts.

    The roots of all base states are found in one batch.
    """
    bases = build_bases(spec)
    counts = count_solutions(spec)
    ns = range(1, spec.n_base + 1)
    tables = build_pole_weight_tables(spec, bases)
    eps0s = [float(bases.base.eigenvalues[n - 1]) for n in ns]
    if spec.exact_spatial:
        rootsets = [find_roots_exact(t, e) for t, e in zip(tables, eps0s)]
    else:
        rootsets = _solve_rational([(t.poles, t.weights, e)
                                    for t, e in zip(tables, eps0s)], ns)
    states = tuple(StateSpectrum(n=n, epsilon0=e, table=t, rootset=rs)
                   for n, e, t, rs in zip(ns, eps0s, tables, rootsets))
    observed = sum(len(st.roots) for st in states)
    deficit = counts.n_max - observed
    if not spec.exact_spatial and deficit > 0:
        warnings.warn(
            f"root count {observed} falls {deficit} short of the nominal "
            f"{counts.n_max} (merged or zero-weight poles)",
            stacklevel=2,
        )
    return SpectrumResult(states=states, counts=counts, observed_total=observed,
                          degeneracy_deficit=deficit, mode=spec.denominator_mode,
                          bases=bases)


def split_at_largest_gaps(values: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Split an ascending array at its n_groups-1 widest gaps (leftmost on ties)."""
    values = np.asarray(values, dtype=float)
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_groups > len(values):
        raise SolverError(
            f"cannot form {n_groups} groups from {len(values)} values"
        )
    if n_groups == 1:
        return [values]
    gaps = np.diff(values)
    order = sorted(range(len(gaps)), key=lambda i: (-gaps[i], i))
    cuts = sorted(i + 1 for i in order[: n_groups - 1])
    return [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]


def group_realisations(result: SpectrumResult, n_r: int | None = None) -> RealisationEnsemble:
    """Partition each base state's roots into realisations at the widest gaps.

    `n_r=None` means the automatic choice: one realisation per harmonic, and
    one when there is no drive.
    """
    method = "largest-gaps"
    if n_r is None:
        n_r = max(result.counts.n_p, 1)
        method = "auto-largest-gaps"
    bound = result.counts.n_delta_reduced + 1
    if n_r > bound:
        raise SolverError(
            f"requested {n_r} realisations exceeds the formal bound {bound}"
        )
    groups_per_n: list[list[np.ndarray]] = []
    for st in result.states:
        if n_r > len(st.roots):
            raise SolverError(
                f"requested {n_r} realisations but base state {st.n} has only "
                f"{len(st.roots)} roots"
            )
        groups_per_n.append(split_at_largest_gaps(st.roots, n_r))

    realisations = []
    for i in range(n_r):
        members = []
        for st, groups in zip(result.states, groups_per_n):
            base_j = sum(len(g) for g in groups[:i])
            for off, value in enumerate(groups[i]):
                members.append(RootRef(st.n, base_j + off + 1, float(value)))
        realisations.append(Realisation(index=i + 1, members=tuple(members)))
    return RealisationEnsemble(realisations=tuple(realisations), method=method, n_r=n_r)


@dataclass(frozen=True)
class SeparationEstimates:
    max_estimate: float
    min_estimate: float | None


def realisation_separation(spec: SystemSpec, basis: EigenBasis | None = None,
                           want_min: bool = True) -> SeparationEstimates:
    """Separation scale estimates: the mean spacing of the lowest max(2, N_s)
    base levels, taken from `basis` when it holds that many, and the period
    bound."""
    levels = max(2, spec.n_base)
    if basis is None or basis.n_states < levels:
        basis = solve_base_eigenproblem(spec, n_states=levels)
    max_est = float(np.mean(np.diff(basis.eigenvalues[:levels])))
    min_est: float | None = None
    if want_min:
        if not spec.is_spatial:
            raise UnsupportedModeError(
                "the minimum separation estimate needs a spatial period"
            )
        e = spec.total_energy
        if e < 0.0:
            raise SolverError("minimum separation estimate needs E >= 0")
        min_est = 2.0 * np.pi * np.sqrt(2.0 * e) / spec.perturbation.period
    return SeparationEstimates(max_estimate=max_est, min_estimate=min_est)


@dataclass(frozen=True, eq=False)
class AppendixRoots:
    k: int
    n: int
    poles: np.ndarray
    weights: np.ndarray
    rootset: RootSet

    @property
    def roots(self) -> np.ndarray:
        return self.rootset.roots


def appendix_auxiliary_roots(spec: SystemSpec, base0: EigenBasis, k: int,
                             n: int) -> AppendixRoots:
    """Auxiliary-channel root structure for excluded harmonic k, base state n.

    Poles sit at the base eigenvalues shifted down by omega*k; each pole's
    weight collects the squared couplings of all other harmonics.
    """
    if spec.is_spatial:
        raise UnsupportedModeError("the auxiliary analysis applies to temporal mode")
    if k not in spec.indices:
        raise SolverError(f"channel {k} is not a retained harmonic")
    if not (1 <= n <= base0.n_states):
        raise IndexError(f"base state {n} out of range 1..{base0.n_states}")
    omega = spec.perturbation.angular_frequency
    raw = []
    for n_prime in range(1, base0.n_states + 1):
        w = 0.0
        for h in spec.harmonics:
            if h.index == k:
                continue
            w += abs(matrix_element(base0, base0, h.amplitude, n_prime, n)) ** 2
        if w > 0.0:
            raw.append((float(base0.eigenvalues[n_prime - 1]) - omega * k, w))
    raw.sort()
    poles = np.array([p for p, _ in raw])
    _, starts, weights = merge_poles(poles, np.array([w for _, w in raw]))
    poles = poles[starts[:-1]]
    eps0 = float(base0.eigenvalues[n - 1])
    rs = _solve_rational([(poles, weights, eps0)], [n])[0]
    return AppendixRoots(k=k, n=n, poles=poles, weights=weights, rootset=rs)


@dataclass(frozen=True, eq=False)
class KShiftDiagnostic:
    per_k: dict[int, np.ndarray]  # unshifted root sets, extra root removed
    spread: float


def appendix_k_shift(spec: SystemSpec, base0: EigenBasis, n: int) -> KShiftDiagnostic:
    """How much the auxiliary eigenvalue set moves across excluded channels.

    For each k the root closest to the state's own diagonal energy (the line
    crossing) is dropped; the remaining roots are shifted back by omega*k and
    compared rank by rank across k.
    """
    omega = spec.perturbation.angular_frequency
    eps0 = float(base0.eigenvalues[n - 1])
    per_k: dict[int, np.ndarray] = {}
    for k in spec.indices:
        ar = appendix_auxiliary_roots(spec, base0, k, n)
        roots = list(ar.roots)
        if len(roots) > 1:
            drop = min(range(len(roots)), key=lambda i: abs(roots[i] - eps0))
            roots = roots[:drop] + roots[drop + 1:]
        per_k[k] = np.array(roots) + omega * k
    lengths = {len(v) for v in per_k.values()}
    if len(lengths) != 1:
        raise SolverError("auxiliary root sets differ in size across channels")
    stacked = np.vstack([per_k[k] for k in sorted(per_k)])
    spread = float(np.max(stacked.max(axis=0) - stacked.min(axis=0))) \
        if stacked.size else 0.0
    return KShiftDiagnostic(per_k=per_k, spread=spread)


def modified_equation_residual(spec: SystemSpec, bases: ChannelBases,
                               root: float, n: int) -> float:
    """|| (h0 + V_eff(root) - root) psi0_n || / || psi0_n || by quadrature."""
    if not (1 <= n <= bases.base.n_states):
        raise IndexError(f"base state {n} out of range")
    phi = bases.base.eigenfunctions[n - 1].astype(complex)
    h_phi = apply_kinetic(bases.base.grid, phi) \
        + apply_effective_potential(spec, bases, root, phi) - root * phi
    w = bases.base.quad_weights
    num = np.sqrt(float(np.sum(w * np.abs(h_phi) ** 2)))
    den = np.sqrt(float(np.sum(w * np.abs(phi) ** 2)))
    return num / den
