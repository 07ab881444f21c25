"""Secular-equation root solver, batched over intervals and tables.

Each table (poles p ascending, weights w > 0, eps0) defines

    f(x) = sum_j w_j / (x - p_j) - x + eps0,

which decreases strictly between consecutive poles, so every one of the P+1
open intervals they bound holds exactly one root. The roots are the
eigenvalues of the arrowhead matrix [[eps0, sqrt(w)^T], [sqrt(w), diag(p)]]
(O'Leary & Stewart, J. Comput. Phys. 90, 1990); they serve as seeds. From
each seed a safeguarded Newton step is taken, and f is evaluated at the
Newton point and at its two neighbours in one call. The seed and those
points give the bracket, the tightest evaluated pair f(lo) > 0 > f(hi), and
the root, the evaluated float of least |f| in it. The neighbours are the
next floats, unless f's resolution 4u|eps0 - x|/|f'|, the distance over
which f moves by its rounding floor, is wider: then they lie one resolution
away. A row ends once its bracket ends are adjacent floats or at most two
resolutions apart (f cannot tell the floats between them apart), or on
f == 0; the few rows that are not there after the first round repeat it
from their best point, alone (R.-C. Li, LAPACK Working Note 89, 1994; Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995, whose dlaed4 also stops at
the rounding error bound of f). All intervals of all tables with the same
pole count are handled as one set of arrays.

The compensated sums are those of a scalar Neumaier loop, bit for bit:
`_compensated_sum` adds a block over its last axis, and `_pole_sums`, behind
the solver's residuals, either hands it the (points x poles) block or, for a
wide batch or one of up to three poles, adds pole by pole. Both forms of
V_nn, the rational and the exact spatial one, sum their (energies x terms)
blocks through `_compensated_sum` (`effpot._chunked_sum`).
"""

from __future__ import annotations

import numpy as np

from mws.errors import BracketError

_U = np.finfo(float).eps
_MAX_ROUNDS = 100
_WIDE = 512        # points from which `_pole_sums` goes pole by pole


def _pole_sums(p, w, x, slope=None):
    """Compensated sum_j w_j/(x - p_j) over the poles in table order, and
    with `slope`, an index of x's first axis, also sum_j w_j/(x - p_j)^2 at
    x[slope] added in the same order (else None).

    `p` and `w` are (P,) or (P, m), the poles on their first axis; p[j] and
    w[j] broadcast against x. Both sums are bitwise those of a scalar loop
    over the poles (`_compensated_sum`), so they do not depend on how points
    are batched. A batch of fewer than `_WIDE` points with more than three
    poles sums its (points x poles) terms as one block, in few calls; any
    other goes pole by pole, each step one vector operation over all points,
    with no P-wide temporaries. The split is where their times cross (3
    points per row, 2-CPU Xeon VM): with up to three poles the pole loop is
    never slower, with 4-128 poles it is faster from 100-600 points on. At
    P = 128 a block of 3,072 points takes 4x the pole loop's time, and the
    pole loop 6x the block's on 48 points.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if x.size < _WIDE and len(p) > 3:
            p, w = p.T, w.T
            d = x[..., None] - p
            terms = w / d
            if slope is None:
                return _compensated_sum(terms), None
            squares = np.cumsum(terms[slope] / d[slope], axis=-1)[..., -1]
            return _compensated_sum(terms), squares
        sums, comp = np.zeros(x.shape), np.zeros(x.shape)
        squares = None if slope is None else np.zeros(x[slope].shape)
        for pj, wj in zip(p, w):
            term = wj / (x - pj)
            run = sums + term
            back = run - sums
            comp += (sums - (run - back)) + (term - back)
            sums = run
            if slope is not None:
                squares += term[slope] / (x[slope] - pj)
        return sums + comp, squares


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


def _residual(p, w, eps0, x, slope=None):
    """f(x) = sum_j w_j/(x - p_j) - x + eps0, and with `slope`, an index of
    x's first axis, also f'(x) = -sum_j w_j/(x - p_j)^2 - 1 at x[slope].
    The table is laid out as for `_pole_sums`, with eps0 broadcasting
    against x."""
    sums, squares = _pole_sums(p, w, x, slope)
    f = sums + (eps0 - x)
    return f if slope is None else (f, -squares - 1.0)


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
    inf = np.full((tables, 1), np.inf)
    lo_lim = np.concatenate([-inf, np.nextafter(p, np.inf)], axis=1).ravel()
    hi_lim = np.concatenate([np.nextafter(p, -np.inf), inf], axis=1).ravel()

    # f and f' at every seed at once, the table's poles broadcast over its rows
    seed = np.clip(eig, lo_lim.reshape(tables, n), hi_lim.reshape(tables, n))
    f_seed, d_seed = (a.T.ravel() for a in _residual(
        p.T, w.T, eps0, seed.T, slope=slice(None)))
    seed = seed.ravel()

    # The state of the active rows. A bracket end is known once its sign fits
    # (f_lo > 0 > f_hi); until then it holds its pole limit, with f = -inf
    # (lo) or +inf (hi). The seed is the end its sign fits. `best` is the
    # evaluated float of least |f| in the bracket, `slope` f' at the latest
    # Newton point and `step` how far a side still unknown has widened.
    pos, neg = f_seed > 0.0, f_seed < 0.0
    lo, flo = np.where(pos, seed, lo_lim), np.where(pos, f_seed, -np.inf)
    hi, fhi = np.where(neg, seed, hi_lim), np.where(neg, f_seed, np.inf)
    best, f_best, slope, step = seed, f_seed, d_seed, np.zeros(len(seed))
    certified = np.zeros(len(seed), dtype=bool)
    rows = np.arange(len(seed))
    out = np.empty((6, len(seed)))
    rounds = 0
    while True:
        rounds += 1
        t = table_of[rows]
        e0 = eps0[t]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Newton from the best point, inside the bracket (else the
            # midpoint); toward a side still unknown it goes at least to a
            # trial end, which widens x4 from the best point to the pole
            # limit that side holds
            xn = best - f_best / slope
            near = (lo <= xn) & (xn <= hi)
            x = np.where(near, xn, 0.5 * (lo + hi))
            if not certified.all():
                far = np.maximum(best - step, lo)
                x = np.where(flo > 0.0, x, np.where(near, np.minimum(xn, far), far))
                far = np.minimum(best + step, hi)
                x = np.where(fhi < 0.0, x, np.where(near, np.maximum(xn, far), far))
            # f's resolution at x: the distance over which f moves by its
            # rounding floor 4u|eps0 - x| (a few ulps of the line term)
            res = 4.0 * _U * np.abs(e0 - x) / -slope
        # x and its neighbours, the next floats or, where the resolution
        # spans more floats, the points one resolution away, all inside the
        # bracket (so within the pole limits), in one residual call
        pts = np.array([np.maximum(np.fmin(x - res, np.nextafter(x, -np.inf)), lo), x,
                        np.minimum(np.fmax(x + res, np.nextafter(x, np.inf)), hi)])
        fp, slope = _residual(p.T[:, t], w.T[:, t], e0, pts, slope=1)

        # the tightest evaluated pair f > 0 > f: the rightmost positive point,
        # then the leftmost negative point right of it (pts is ascending)
        for q, fq in zip(pts, fp):
            take = fq > 0.0
            lo, flo = np.where(take, q, lo), np.where(take, fq, flo)
        for q, fq in zip(pts[::-1], fp[::-1]):
            take = (fq < 0.0) & (q > lo)
            hi, fhi = np.where(take, q, hi), np.where(take, fq, fhi)
        # the best point: the end of smaller |f|, or an exact zero inside
        if (fp == 0.0).any():
            for q, fq in zip(pts, fp):
                take = fq == 0.0
                best, f_best = np.where(take, q, best), np.where(take, 0.0, f_best)
        zero = f_best == 0.0
        if zero.any():
            zero &= (lo < best) & (best < hi)
        end_lo = np.abs(flo) <= np.abs(fhi)
        best = np.where(zero, best, np.where(end_lo, lo, hi))
        f_best = np.where(zero, 0.0, np.where(end_lo, flo, fhi))

        known_lo, known_hi = flo > 0.0, fhi < 0.0
        certified = known_lo & known_hi
        if not certified.all():
            # a side still unknown after its pole limit was evaluated cannot be had
            stuck_lo = ~known_lo & (pts[0] <= lo)
            stuck = stuck_lo | (~known_hi & (pts[2] >= hi))
            if stuck.any():
                k = int(np.flatnonzero(stuck)[0])
                _raise_stuck(int(rows[k]), bool(stuck_lo[k]), p, w, labels)
            scale = np.maximum(1.0, np.abs(eig[table_of[rows]]).max(axis=1))
            step = np.where(certified, step, 4.0 * step + 16.0 * _U * scale)
        # a certified row ends once no float lies between its ends (so every
        # float in the bracket has been evaluated), once they are at most two
        # resolutions apart (so f cannot tell the floats between them
        # apart), or on f == 0; one not yet certified goes on until it is,
        # or until it is stuck
        done = certified & (zero | (hi <= np.fmax(np.nextafter(lo, np.inf), lo + 2.0 * res)))
        if rounds >= _MAX_ROUNDS:
            done = certified
        state = (best, lo, hi, flo, fhi, f_best)
        if done.all():
            out[:, rows] = state
            break
        out[:, rows[done]] = [a[done] for a in state]
        keep = ~done
        rows, lo, hi, flo, fhi, best, f_best, slope, step, certified = (
            a[keep] for a in (rows, lo, hi, flo, fhi, best, f_best, slope, step, certified))

    root, lo, hi, flo, fhi, f_root = (a.reshape(tables, n) for a in out)
    return root, lo, hi, flo, fhi, np.abs(f_root)


def _raise_stuck(row: int, bad_lo: bool, p, w, labels):
    table, interval = divmod(row, p.shape[1] + 1)
    if bad_lo:
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
