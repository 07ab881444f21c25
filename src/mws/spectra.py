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
from mws.effpot import ChannelBases, PoleWeightTable, _vnn, apply_effective_potential, \
    build_bases, build_pole_weight_tables, exact_pole_pair, merge_poles
from mws.eigenbasis import EigenBasis, apply_kinetic, matrix_element, \
    solve_base_eigenproblem
from mws.errors import SolverError, UnsupportedModeError
from mws.model import SystemSpec


@dataclass(frozen=True, eq=False)
class RootSet:
    """Roots with bracket certificates f(lo) > 0 > f(hi) and residuals."""

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
    if table.mode == "exact" and table.spatial:
        raise UnsupportedModeError(
            "guaranteed root finding needs the rational (approximate) form; "
            "use find_roots_exact for the diagnostic scan"
        )
    return _solve_rational([(table.poles, table.weights, epsilon0)], [table.base_state])[0]


# Python float powers: numpy's `10.0 ** array` rounds some of these differently
_NEAR_POLE_SCALES = np.array([10.0 ** (-j) for j in range(12, 0, -1)])


def exact_scan_edges(table: PoleWeightTable, epsilon0: float) -> list[float]:
    """Interval edges of the exact-mode scan: a lower bound, the singularities
    below E, E.

    The exact relation is defined only up to epsilon = E, so poles at or
    above E bound nothing. A cos(alpha) = -1 member with
    0 <= E - eps0' < eps_p has a second singularity, the plus branch of
    `exact_pole_pair`, which its table pole does not list.
    """
    e = table.total_energy
    m = table.members
    plus = [exact_pole_pair(level, eps_p, e)[0] for level, eps_p, cos_alpha in
            zip(m.eps0_aux.tolist(), m.eps_p.tolist(), m.cos_alpha.tolist())
            if cos_alpha == -1.0 and 0.0 <= e - level < eps_p]
    poles = [p for p in np.unique(np.concatenate([table.poles, plus])).tolist() if p < e]
    if poles:
        lo = min(poles[0], epsilon0) - (poles[-1] - poles[0] + 1.0)
    else:
        lo = epsilon0 - 1.0
    hi = e
    if hi <= lo:
        lo = hi - max(1.0, abs(hi))
    return [lo] + [p for p in poles if lo < p < hi] + [hi]


_SCAN_SAMPLES = 4001  # shared among the scan's intervals, at least 16 each


def find_roots_exact(table: PoleWeightTable, epsilon0: float) -> np.ndarray:
    """Diagnostic scan roots for the exact denominators (no count claim).

    Samples each interval between singularities, approaching its ends
    geometrically so roots hugging a pole are not stepped over, then bisects
    every sign change. The scan stops at epsilon = E where the square roots
    turn imaginary. Tables without exact square-root denominators go to
    `find_roots`.
    """
    if not (table.spatial and table.mode == "exact"):
        return find_roots(table, epsilon0).roots
    edges = exact_scan_edges(table, epsilon0)
    hi = edges[-1]

    def f(eps: np.ndarray) -> np.ndarray:
        # NaN where the exact relation is undefined
        return _vnn(table, eps) - eps + epsilon0

    per = max(16, _SCAN_SAMPLES // max(1, len(edges) - 1))
    samples = []
    for a, b in zip(edges, edges[1:]):
        gap = b - a
        if gap <= 0.0:
            continue
        offs = gap * _NEAR_POLE_SCALES
        up, down = a + offs, b - offs
        samples.append(np.unique(np.concatenate([
            up[(a < up) & (up < b)],
            down[(a < down) & (down < b)],
            np.linspace(a + 0.1 * gap, b - 0.1 * gap, per),
        ])))
    xs = np.concatenate(samples + [[hi]])
    vals = f(xs)
    x1, x2, f1, f2 = xs[:-1], xs[1:], vals[:-1], vals[1:]
    pair = ~np.isnan(f1) & ~np.isnan(f2)
    pair[np.cumsum([len(x) for x in samples]) - 1] = False  # across an edge
    on_sample = pair & (f1 == 0.0)
    change = pair & (f1 * f2 < 0.0)
    roots = [x1[on_sample], _bisect(f, x1[change], f1[change], x2[change])]
    if vals[-1] == 0.0:
        roots.append([hi])
    return np.sort(np.concatenate(roots))


def _bisect(f, a: np.ndarray, fa: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bisect every bracket [a, b] with f(a) = fa at once, 200 halvings at most.

    Each bracket stops on its own: at an undefined (NaN) midpoint or one where
    f == 0, the midpoint is the root; once b - a <= 1e-13 max(1, |a|), or
    after the last halving, the root is the bracket's midpoint.
    """
    root = np.empty(len(a))
    idx = np.arange(len(a))
    for _ in range(200):
        if not len(idx):
            break
        m = 0.5 * (a + b)
        fm = f(m)
        halt = np.isnan(fm) | (fm == 0.0)
        lower = fa * fm < 0.0
        b = np.where(lower, m, b)
        a = np.where(lower, a, m)
        fa = np.where(lower, fa, fm)
        narrow = ~halt & (b - a <= 1e-13 * np.maximum(1.0, np.abs(a)))
        root[idx[halt]] = m[halt]
        root[idx[narrow]] = 0.5 * (a[narrow] + b[narrow])
        keep = ~(halt | narrow)
        a, fa, b, idx = a[keep], fa[keep], b[keep], idx[keep]
    root[idx] = 0.5 * (a + b)
    return root


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


def _assert_rootset(poles: np.ndarray, rs: RootSet, n: int) -> None:
    """The gate: interlacing, f_lo > 0 > f_hi and |f| <= 1e-9*max(1,|eps|)."""
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
    exact_spatial = spec.denominator_mode == "exact" and spec.is_spatial
    ns = range(1, spec.n_base + 1)
    tables = build_pole_weight_tables(spec, bases)
    eps0s = [float(bases.base.eigenvalues[n - 1]) for n in ns]
    if exact_spatial:
        rootsets = []
        for table, eps0 in zip(tables, eps0s):
            roots = find_roots_exact(table, eps0)
            nans = np.full(len(roots), np.nan)
            rootsets.append(RootSet(roots=roots, bracket_lo=nans, bracket_hi=nans,
                                    f_lo=nans, f_hi=nans, residuals=nans))
    else:
        rootsets = _solve_rational([(t.poles, t.weights, e)
                                    for t, e in zip(tables, eps0s)], ns)
    states = tuple(StateSpectrum(n=n, epsilon0=e, table=t, rootset=rs)
                   for n, e, t, rs in zip(ns, eps0s, tables, rootsets))
    observed = sum(len(st.roots) for st in states)
    deficit = counts.n_max - observed
    if not exact_spatial and deficit > 0:
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
    """Separation scale estimates: mean base level spacing and the period bound."""
    if basis is None or basis.n_states < 2:
        basis = solve_base_eigenproblem(spec, n_states=max(2, spec.n_base))
    max_est = float(np.mean(np.diff(basis.eigenvalues)))
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
