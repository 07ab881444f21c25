"""Secular-equation root solver, batched over intervals and tables.

Each table (poles p ascending, weights w > 0, eps0) defines

    f(x) = sum_j w_j / (x - p_j) - x + eps0,

which decreases strictly between consecutive poles, so every one of the P+1
open intervals they bound holds exactly one root. The roots are the
eigenvalues of the arrowhead matrix [[eps0, sqrt(w)^T], [sqrt(w), diag(p)]]
(O'Leary & Stewart, J. Comput. Phys. 90, 1990); they serve as seeds. Each
seed is then bracketed with a sign certificate f(lo) > 0 > f(hi) and refined
by safeguarded Newton steps inside the bracket (R.-C. Li, LAPACK Working
Note 89, 1994). All intervals of all tables with the same pole count are
handled as one set of arrays.

`_pole_sums` is the one compensated evaluator of sum_j w_j/(x - p_j): the
solver's residuals and every V_nn evaluation (`effpot._vnn`) go through it
or through `_compensated_sum`, its summation step.
"""

from __future__ import annotations

import numpy as np

from mws.errors import BracketError

_U = np.finfo(float).eps
_MAX_NEWTON = 100


def _pole_sums(p: np.ndarray, w: np.ndarray, x: np.ndarray):
    """Compensated sum_j w_j/(x - p_j) over the last axis, in table order.

    `p` and `w` broadcast against x[..., None]. Returns (sums, terms).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = w / (x[..., None] - p)
    return _compensated_sum(terms), terms


def _compensated_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, bitwise as a scalar Neumaier loop would.

    The running sums are a sequential `cumsum` over [0, terms...] (`np.sum`
    adds pairwise), so each step is t = s + term exactly as in the scalar
    loop. Each step's rounding error is taken branch-free (Knuth's two-sum);
    it equals the Neumaier correction ((s - t) + term when |s| >= |term|,
    else (term - t) + s), as both are the exact error of the rounded sum. The
    corrections are summed sequentially the same way. An infinite term makes
    the sum NaN (inf - inf in its correction), as it does in the loop.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        zero = np.zeros(terms.shape[:-1] + (1,))
        s = np.cumsum(np.concatenate([zero, terms], axis=-1), axis=-1)
        prev, run = s[..., :-1], s[..., 1:]
        back = run - prev
        err = (prev - (run - back)) + (terms - back)
        c = np.cumsum(np.concatenate([zero, err], axis=-1), axis=-1)[..., -1]
        return s[..., -1] + c


def _residual(p, w, eps0, x, slope: bool = False):
    """f(x), and with `slope` also f'(x) = -sum_j w_j/(x - p_j)^2 - 1."""
    sums, terms = _pole_sums(p, w, x)
    f = sums + (eps0 - x)
    if not slope:
        return f
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return f, -np.sum(terms / (x[..., None] - p), axis=-1) - 1.0


def solve_secular(poles, weights, eps0: float):
    """All P+1 roots of one table: (roots, bracket_lo, bracket_hi, f_lo, f_hi).

    `poles` must be sorted strictly ascending with positive `weights`; each
    returned array has length P+1, and f_lo > 0 > f_hi certifies each bracket.
    """
    return solve_secular_batch([(poles, weights, eps0)])[0][:5]


def solve_secular_batch(tables):
    """All roots of every (poles, weights, eps0) table in one batch.

    Returns one tuple (roots, bracket_lo, bracket_hi, f_lo, f_hi, residuals)
    per table, in input order; each array has length P+1, f_lo > 0 > f_hi
    certifies each bracket and residuals are |f(root)|. A table without poles
    has the single root eps0. Raises BracketError, naming the interval and its
    pole, when no float next to a pole has the sign a bracket needs (a weight
    too small to show at that pole's scale).
    """
    rows_by_size: dict[int, list[int]] = {}
    for k, (poles, weights, _) in enumerate(tables):
        if np.shape(poles) != np.shape(weights) or np.ndim(poles) != 1:
            raise ValueError("poles and weights must be 1-D arrays of equal length")
        rows_by_size.setdefault(len(poles), []).append(k)
    out: list = [None] * len(tables)
    for ks in rows_by_size.values():
        p = np.array([tables[k][0] for k in ks], dtype=np.float64)
        w = np.array([tables[k][1] for k in ks], dtype=np.float64)
        eps0 = np.array([float(tables[k][2]) for k in ks])
        columns = _solve_same_size(p, w, eps0, ks)
        for row, k in enumerate(ks):
            out[k] = tuple(col[row] for col in columns)
    return out


def _arrowhead_eigenvalues(p, w, eps0):
    tables, size = p.shape
    n = size + 1
    arrow = np.zeros((tables, n, n))
    arrow[:, 0, 0] = eps0
    arrow[:, 0, 1:] = arrow[:, 1:, 0] = np.sqrt(w)
    diag = np.arange(1, n)
    arrow[:, diag, diag] = p
    return np.linalg.eigvalsh(arrow)


def _solve_same_size(p, w, eps0, labels):
    """Certified roots of T tables with P poles each; arrays shaped (T, P+1).

    `labels` are the tables' positions in the batch, for error messages.
    """
    tables, size = p.shape
    n = size + 1
    eig = _arrowhead_eigenvalues(p, w, eps0)

    # one row per (table, interval); interval i lies between poles i-1 and i
    table_of = np.repeat(np.arange(tables), n)
    e0 = eps0[table_of]
    inf = np.full((tables, 1), np.inf)
    lo_lim = np.concatenate([-inf, np.nextafter(p, np.inf)], axis=1).ravel()
    hi_lim = np.concatenate([np.nextafter(p, -np.inf), inf], axis=1).ravel()

    def f_at(rows, x, slope=False):
        t = table_of[rows]
        return _residual(p[t], w[t], e0[rows], x, slope)

    # f at every seed at once, the table's poles broadcast over its rows
    seed = np.clip(eig, lo_lim.reshape(tables, n), hi_lim.reshape(tables, n))
    f_seed, d_seed = (a.ravel() for a in _residual(
        p[:, None, :], w[:, None, :], eps0[:, None], seed, slope=True))
    seed = seed.ravel()
    delta = np.repeat(16.0 * _U * np.maximum(1.0, np.abs(eig).max(axis=1)), n)

    # the seed is the bracket end its sign fits; the other end starts delta away
    lo = np.maximum(seed - delta, lo_lim)
    hi = np.minimum(seed + delta, hi_lim)
    flo = np.zeros(len(seed))
    fhi = np.zeros(len(seed))
    need_lo, need_hi = f_seed <= 0.0, f_seed >= 0.0
    lo[~need_lo], flo[~need_lo] = seed[~need_lo], f_seed[~need_lo]
    hi[~need_hi], fhi[~need_hi] = seed[~need_hi], f_seed[~need_hi]
    every = np.arange(len(seed))
    rows = np.concatenate([every[need_lo], every[need_hi]])
    fr = f_at(rows, np.concatenate([lo[need_lo], hi[need_hi]]))
    split = int(need_lo.sum())
    flo[need_lo], fhi[need_hi] = fr[:split], fr[split:]

    # certificate: widen a failing side x4 toward its pole; a failing side
    # whose sign suits the other side becomes that side
    step_lo, step_hi = delta.copy(), delta.copy()
    while True:
        bad_lo = ~(flo > 0.0)
        bad_hi = ~(fhi < 0.0) & ~bad_lo
        if not (bad_lo.any() or bad_hi.any()):
            break
        stuck = (bad_lo & (lo <= lo_lim)) | (bad_hi & (hi >= hi_lim))
        if stuck.any():
            _raise_stuck(int(np.flatnonzero(stuck)[0]), bad_lo, p, w, labels)
        move = bad_lo & (flo < 0.0)
        hi[move], fhi[move] = lo[move], flo[move]
        move = bad_hi & (fhi > 0.0)
        lo[move], flo[move] = hi[move], fhi[move]
        step_lo[bad_lo] *= 4.0
        step_hi[bad_hi] *= 4.0
        lo[bad_lo] = np.maximum(seed - step_lo, lo_lim)[bad_lo]
        hi[bad_hi] = np.minimum(seed + step_hi, hi_lim)[bad_hi]
        rows = np.concatenate([every[bad_lo], every[bad_hi]])
        fr = f_at(rows, np.concatenate([lo[bad_lo], hi[bad_hi]]))
        split = int(bad_lo.sum())
        flo[bad_lo], fhi[bad_hi] = fr[:split], fr[split:]

    # Newton from the seed; where the bracket left the seed behind, the first
    # step is the midpoint (a NaN slope fails the safeguard)
    x, fx = seed.copy(), f_seed.copy()
    dx = np.where((lo <= seed) & (seed <= hi), d_seed, np.nan)
    ends = np.stack([f_seed, flo, fhi])
    pick = np.argmin(np.abs(ends), axis=0)
    best_x = np.choose(pick, [seed, lo, hi])
    best_f = np.choose(pick, ends)
    active = every[~_converged(x, fx, lo, hi, e0)]
    for _ in range(_MAX_NEWTON):
        if not len(active):
            break
        a = active
        la, ha = lo[a], hi[a]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = x[a] - fx[a] / dx[a]
        outside = ~((la < xn) & (xn < ha))
        xn[outside] = 0.5 * (la[outside] + ha[outside])
        # a repeated iterate, or no float strictly inside the bracket, ends the row
        keep = (xn != x[a]) & (la < xn) & (xn < ha)
        a, xn, la, ha = a[keep], xn[keep], la[keep], ha[keep]
        fn, dn = f_at(a, xn, slope=True)
        x[a], fx[a], dx[a] = xn, fn, dn
        pos, neg = fn > 0.0, fn < 0.0
        la[pos], ha[neg] = xn[pos], xn[neg]
        lo[a], hi[a] = la, ha
        flo[a[pos]], fhi[a[neg]] = fn[pos], fn[neg]
        better = np.abs(fn) < np.abs(best_f[a])
        best_x[a[better]], best_f[a[better]] = xn[better], fn[better]
        active = a[~_converged(xn, fn, la, ha, e0[a])]

    # an earlier best iterate left behind by later ones was itself a bracket
    # end of the matching sign, so it can take that end back
    below, above = best_x < lo, best_x > hi
    lo[below], flo[below] = best_x[below], best_f[below]
    hi[above], fhi[above] = best_x[above], best_f[above]
    shape = (tables, n)
    return tuple(a.reshape(shape) for a in
                 (best_x, lo, hi, flo, fhi, np.abs(best_f)))


def _converged(x, fx, lo, hi, eps0):
    ftol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(x), np.abs(eps0)))
    tight = hi - lo <= 5e-16 * np.maximum(np.abs(lo), np.abs(hi))
    return (np.abs(fx) <= ftol) | tight


def _raise_stuck(row: int, bad_lo: np.ndarray, p, w, labels):
    table, interval = divmod(row, p.shape[1] + 1)
    if bad_lo[row]:
        j, side, sign = interval - 1, "right", "positive"
    else:
        j, side, sign = interval, "left", "negative"
    if not 0 <= j < p.shape[1]:
        raise BracketError(
            f"bracket expansion reached infinity in outer interval {interval} "
            f"(table {labels[table]})"
        )
    raise BracketError(
        f"no representable point with {sign} residual {side} of pole "
        f"{float(p[table, j])} (table {labels[table]}, interval {interval}); weight "
        f"{float(w[table, j])} too small"
    )
