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
    r = np.emath.sqrt(2.0 * (total_energy - m.eps0_aux - m.eps_p * (1.0 - m.cos_alpha ** 2)))
    return g, r


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
    w = m.weight[live]
    g, r = _k_poles(Members(*(column[live] for column in m)), total_energy)
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


def find_roots_exact(table: PoleWeightTable, epsilon0: float) -> np.ndarray:
    """Certified roots of the exact relation V_nn(eps) = eps - eps0 (no count
    claim), ascending.

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

    The same one f call also takes the inner points eps -+ delta, delta =
    0.49e-13 max(1, |eps|), clipped to the window, so the inner window is
    narrower than `_refine`'s stop width; an eigenvalue on its root has its
    sign change there. Each certified candidate hands `_refine` the
    narrowest of [eps - h, eps - delta], [eps - delta, eps + delta],
    [eps + delta, min(eps + h, E)] and the whole window that holds a sign
    change (or a zero end), so only a root outside its inner window takes
    refine rounds.
    """
    if not table.exact_spatial:
        return find_roots(table, epsilon0).roots
    e = table.total_energy
    m = table.members
    k = np.linalg.eigvals(_k_companion(m, e, epsilon0))
    tol = 1e-8 * np.maximum(1.0, np.abs(k))
    eps = e - 0.5 * k.real[(k.real >= -tol) & (np.abs(k.imag) <= tol)] ** 2
    scale = np.maximum(1.0, np.abs(eps))
    h, delta = 1e-9 * scale, 0.49e-13 * scale
    hi = np.minimum(eps + h, e)
    x = np.stack([eps - h, eps - delta, np.minimum(eps + delta, hi), hi])   # ascending

    def f(x: np.ndarray) -> np.ndarray:
        return _exact_vnn(m, e, x) - x + epsilon0

    fx = f(x.ravel()).reshape(x.shape)
    positive = _exact_denominator(m, x[[0, 3], :, None], (e - x[[0, 3]])[..., None]) > 0.0
    ok = np.all(positive[0] == positive[1], axis=1) & (np.sign(fx[0]) * np.sign(fx[3]) <= 0.0)
    c = len(eps)
    if not np.all(ok):
        warnings.warn(f"exact mode: {c - int(np.count_nonzero(ok))} eigenvalue "
                      f"candidate(s) of base state {table.base_state} failed the "
                      f"window certificate and are not returned", stacklevel=2)
    x, fx = x[:, ok], fx[:, ok]
    # the sub-windows [x[left], x[right]], then the whole window, which has a
    # sign change: each candidate keeps the narrowest with one
    left, right = np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])
    change = np.sign(fx[left]) * np.sign(fx[right]) <= 0.0
    pick = np.argmin(np.where(change, x[right] - x[left], np.inf), axis=0)
    a, b, cols = left[pick], right[pick], np.arange(len(pick))
    roots = _refine(f, x[a, cols], fx[a, cols], x[b, cols], fx[b, cols])
    roots.sort()
    # two candidates of one root: the second lies in the first one's window
    distinct = np.diff(roots) > 1e-9 * np.maximum(1.0, np.abs(roots[:-1]))
    return roots[np.concatenate(([True], distinct))[:len(roots)]]


def _refine(f, a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Refine every bracket [a, b] with f(a) = fa, f(b) = fb of opposite signs
    (or a zero end) at once by safeguarded regula falsi, 200 rounds at most.

    A bracket with an f == 0 end, or already within the stop width
    b - a <= 1e-13 max(1, |a|), is finished before the first round and costs
    no f evaluation: its root is that end (a first), or the midpoint.
    Each round evaluates f at one point per bracket: the regula falsi point,
    kept at least a quarter of the stop width inside each end (Brent's
    minimum step), or the midpoint when that point is NaN or outside [a, b],
    the previous one gave an undefined (NaN) f, or the bracket has not halved
    over the last 4 rounds. A point that rounds onto an end means the root
    is within rounding of it, so the minimum step, not a midpoint, follows.
    When the same end is kept twice in a row its stored f is scaled by
    m = 1 - f(x)/f(moved end), or by 1/2 when m <= 0 (Anderson & Bjorck,
    BIT 13, 253, 1973); the signs of the ends never change, so the bracket
    always holds a true sign change. Each bracket stops on its own: where
    f == 0, or at an undefined midpoint, that point is the root; once
    b - a <= 1e-13 max(1, |a|), or after the last round, the root is the
    bracket's midpoint.
    """
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, 0.5 * (a + b)))
    keep = (fa != 0.0) & (fb != 0.0) & (b - a > 1e-13 * np.maximum(1.0, np.abs(a)))
    a, fa, b, fb = a[keep], fa[keep], b[keep], fb[keep]
    idx = np.flatnonzero(keep)
    neg_a = fa < 0.0
    kept = np.zeros(len(a), dtype=int)          # 1: a kept last round, 2: b kept
    undefined = np.zeros(len(a), dtype=bool)    # the last interpolant gave NaN
    widths = np.full((4, len(a)), np.inf)       # widths of the last 4 rounds
    for r in range(200):
        if not len(idx):
            break
        width = b - a
        stalled = width > 0.5 * widths[r % 4]
        widths[r % 4] = width
        step = 0.25 * (1e-13 * np.maximum(1.0, np.abs(a)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_rf = (a * fb - b * fa) / (fb - fa)
        x = np.minimum(np.maximum(x_rf, a + step), b - step)
        interp = (a <= x_rf) & (x_rf <= b) & (a < x) & (x < b) & ~undefined & ~stalled
        x = np.where(interp, x, 0.5 * (a + b))
        fx = f(x)
        undefined = np.isnan(fx)
        halt = (undefined & ~interp) | (fx == 0.0)
        move = ~undefined & ~halt
        lower = move & ((fx < 0.0) != neg_a)    # the root is in (a, x): b moves
        upper = move & ~lower
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            m = 1.0 - fx / np.where(lower, fb, fa)
        m = np.where(m > 0.0, m, 0.5)
        fa = np.where(lower & (kept == 1), fa * m, np.where(upper, fx, fa))
        fb = np.where(upper & (kept == 2), fb * m, np.where(lower, fx, fb))
        a = np.where(upper, x, a)
        b = np.where(lower, x, b)
        kept = np.where(lower, 1, np.where(upper, 2, kept))
        narrow = move & (b - a <= 1e-13 * np.maximum(1.0, np.abs(a)))
        root[idx[halt]] = x[halt]
        root[idx[narrow]] = 0.5 * (a[narrow] + b[narrow])
        keep = ~(halt | narrow)
        a, fa, b, fb, idx = a[keep], fa[keep], b[keep], fb[keep], idx[keep]
        neg_a, kept, undefined, widths = neg_a[keep], kept[keep], undefined[keep], \
            widths[:, keep]
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
    ns = range(1, spec.n_base + 1)
    tables = build_pole_weight_tables(spec, bases)
    eps0s = [float(bases.base.eigenvalues[n - 1]) for n in ns]
    if spec.exact_spatial:
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
