"""Secular-equation roots: one seed -> certify -> polish loop for both forms.

Each rational table (poles p ascending, weights w > 0, eps0) defines

    f(x) = sum_j w_j / (x - p_j) - x + eps0,

which decreases strictly between consecutive poles, so every one of the P+1
open intervals they bound holds exactly one root. The roots are the
eigenvalues of the arrowhead matrix [[eps0, sqrt(w)^T], [sqrt(w), diag(p)]]
(O'Leary & Stewart, J. Comput. Phys. 90, 1990); they serve as seeds, with
the poles as limits. The exact spatial form (`spectra.find_roots_exact`)
seeds `polish` with its K-companion eigenvalues and their certified
windows. From each seed `polish` takes a safeguarded Newton step and
evaluates f at the Newton point and its two neighbours in one call. The
seed and those points give the bracket, the tightest evaluated pair
f(lo) > 0 > f(hi), and the root, the evaluated float of least |f| in it.
The neighbours are the next floats, unless f's resolution (the distance
over which f moves by its rounding floor, 4u|eps0 - x|/|f'| or a
caller's floor) is wider: then they lie one resolution away. A row ends
once its bracket ends are adjacent floats or at most two resolutions apart
(f cannot tell the floats between them apart), or on f == 0; the few rows
that are not there after the first round repeat it from their best point,
alone (R.-C. Li, LAPACK Working Note 89, 1994; Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 1995, whose dlaed4 also stops at the rounding error
bound of f). All intervals of all rational tables with the same pole count
are handled as one set of arrays.

The compensated sums are those of a scalar Neumaier loop, bit for bit.
`_pole_sums` is the one term sum: it either hands `_compensated_sum` the
(points x terms) block or, for a wide batch or one of up to three terms,
adds term by term. It evaluates the solver's residuals and both forms of
V_nn and V_nn', the rational one over poles and the exact spatial one over
its members' square-root denominators (`effpot._exact_vnn`).
"""

from __future__ import annotations

import numpy as np

from mws.errors import BracketError

_U = np.finfo(float).eps
_MAX_ROUNDS = 100
_WIDE = 512        # points from which `_pole_sums` goes term by term


def _pole_sums(p, w, x, slope=None):
    """Compensated sum_j w_j/d_j(x) over the terms in table order, and with
    `slope`, an index of x's first axis, also sum_j (w_j/d_j) d_j'/d_j at
    x[slope] added in the same order (else None).

    The denominators are d_j = x - p_j (d_j' = 1) for poles `p`, or come from
    a function p(x, j, slope) -> (d_j(x), d_j'(x[slope])), j a term's index
    or slice(None) for all terms on x's last axis. `w` and poles are (P,) or
    (P, m), the terms first; w[j] and p[j] broadcast against x. Both sums are
    bitwise those of a scalar loop over the terms (`_compensated_sum`), so
    they do not depend on how points are batched. A batch of fewer than
    `_WIDE` points with more than three terms sums its (points x terms)
    block at once, in few calls; any other goes term by term, each step one
    vector operation over all points, with no P-wide temporaries. The split
    is where their times cross (3 points per row, 2-CPU Xeon VM): with up to
    three poles the pole loop is never slower, with 4-128 poles it is faster
    from 100-600 points on. At P = 128 a block of 3,072 points takes 4x the
    pole loop's time, and the pole loop 6x the block's on 48 points.
    """
    if not callable(p):
        poles = p.T

        def p(x, j, slope):
            return x - poles[..., j], 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if x.size < _WIDE and len(w) > 3:
            d, grow = p(x[..., None], slice(None), slope)
            terms = w.T / d
            if slope is None:
                return _compensated_sum(terms), None
            return _compensated_sum(terms), np.cumsum(terms[slope] * grow / d[slope], -1)[..., -1]
        sums, comp = np.zeros(x.shape), np.zeros(x.shape)
        squares = None if slope is None else np.zeros(x[slope].shape)
        for j in range(len(w)):
            d, grow = p(x, j, slope)
            term = w[j] / d
            run = sums + term
            back = run - sums
            comp += (sums - (run - back)) + (term - back)
            sums = run
            if slope is not None:
                squares += term[slope] * grow / d[slope]
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
    lo_lim = np.concatenate([-inf, np.nextafter(p, np.inf)], axis=1)
    hi_lim = np.concatenate([np.nextafter(p, -np.inf), inf], axis=1)

    # f and f' at every seed at once, the table's poles broadcast over its rows
    seed = np.clip(eig, lo_lim, hi_lim)
    f_seed, d_seed = (a.T.ravel() for a in _residual(
        p.T, w.T, eps0, seed.T, slope=slice(None)))

    def evaluate(rows, x):
        t = table_of[rows]
        return _residual(p.T[:, t], w.T[:, t], eps0[t], x, slope=1)

    unknown = np.full(len(f_seed), np.inf)      # no pole limit's sign is known
    scale = np.repeat(np.maximum(1.0, np.abs(eig).max(axis=1)), n)
    *columns, stuck = polish(evaluate, seed.ravel(), f_seed, d_seed, lo_lim.ravel(), -unknown,
                             hi_lim.ravel(), unknown, np.repeat(eps0, n), scale, 0.0 * scale)
    if stuck.any():
        row = int(np.flatnonzero(stuck)[0])
        _raise_stuck(row, not columns[3][row] > 0.0, p, w, labels)
    return tuple(a.reshape(tables, n) for a in columns)


def polish(evaluate, seed, f_seed, d_seed, lo, flo, hi, fhi, eps0, scale, floor):
    """The root loop of both secular forms: (root, lo, hi, f_lo, f_hi,
    |f(root)|) from each seed, and the mask of the seeds whose bracket cannot
    be had (stuck), which each caller handles.

    f must fall through each root (a caller whose f rises negates it), and
    `evaluate(rows, x)` returns it at the (3, k) points x of those rows, with
    f' at x[1]; `f_seed`, `d_seed` are f, f' at the seeds. A limit `lo` (`hi`)
    is known once its f value is >= 0 (<= 0; a zero end counts), else that
    value is -inf (+inf) and the limit is as far as that side may widen.
    f's resolution is 4u|eps0 - x|/|f'|, or `floor` where that is wider;
    `scale` is the unit the widening starts from.
    """
    # The state of the active rows. A bracket end is known once its sign fits;
    # until then it holds its limit. The seed is the end its sign fits.
    # `best` is the evaluated float of least |f| in the bracket, `slope` f'
    # at the latest Newton point, `step` how far a side still unknown has
    # widened and `nan_x` the latest point whose round gave three NaNs.
    pos, neg = f_seed > 0.0, f_seed < 0.0
    lo, flo = np.where(pos, seed, lo), np.where(pos, f_seed, flo)
    hi, fhi = np.where(neg, seed, hi), np.where(neg, f_seed, fhi)
    best, f_best, slope, step = seed.copy(), f_seed.copy(), d_seed, np.zeros(len(seed))
    nan_x = np.full(len(seed), np.nan)
    certified = (flo >= 0.0) & (fhi <= 0.0)
    rows = np.arange(len(seed))
    out = np.empty((6, len(seed)))
    stuck_rows = np.zeros(len(seed), dtype=bool)
    rounds = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            rounds += 1
            # Newton from the best point, inside the bracket and not at
            # `nan_x`, which would stall (else the midpoint); toward a side
            # still unknown it goes at least to a trial end, which widens x4
            # from the best point to the limit that side holds
            xn = best - f_best / slope
            near = (lo <= xn) & (xn <= hi) & (xn != nan_x)
            x = 0.5 * (lo + hi)
            np.putmask(x, near, xn)
            if not certified.all():
                far = np.maximum(best - step, lo)
                x = np.where(flo >= 0.0, x, np.where(near, np.minimum(xn, far), far))
                far = np.minimum(best + step, hi)
                x = np.where(fhi <= 0.0, x, np.where(near, np.maximum(xn, far), far))
            res = np.maximum(4.0 * _U * np.abs(eps0[rows] - x) / -slope, floor[rows])
            # x and its neighbours, the next floats or, where the resolution
            # spans more floats, the points one resolution away, all inside
            # the bracket (so within the limits), in one evaluation
            pts = np.array([np.maximum(np.fmin(x - res, np.nextafter(x, -np.inf)), lo), x,
                            np.minimum(np.fmax(x + res, np.nextafter(x, np.inf)), hi)])
            fp, slope = evaluate(rows, pts)
            lost = np.isnan(fp).all(axis=0)
            np.putmask(nan_x, lost, x)

            # the tightest evaluated pair f > 0 > f: the rightmost positive
            # point, then the leftmost negative point right of it (pts is
            # ascending)
            for q, fq, take in zip(pts, fp, fp > 0.0):
                np.putmask(lo, take, q)
                np.putmask(flo, take, fq)
            for q, fq, take in zip(pts[::-1], fp[::-1], ((fp < 0.0) & (pts > lo))[::-1]):
                np.putmask(hi, take, q)
                np.putmask(fhi, take, fq)
            # the best point: the end of smaller |f|, or an exact zero in the
            # bracket
            if (fp == 0.0).any():
                for q, take in zip(pts, fp == 0.0):
                    np.putmask(best, take, q)
                    np.putmask(f_best, take, 0.0)
            zero = f_best == 0.0
            end_lo = np.abs(flo) <= np.abs(fhi)
            ends, f_ends = np.where(end_lo, lo, hi), np.where(end_lo, flo, fhi)
            if zero.any():
                zero &= (lo <= best) & (best <= hi)
                np.putmask(ends, zero, best)
                np.putmask(f_ends, zero, 0.0)
            best, f_best = ends, f_ends

            # a certified row ends once no float lies between its ends (so
            # every float in the bracket has been evaluated), once they are at
            # most two resolutions apart (so f cannot tell the floats between
            # them apart), on f == 0, or once f is NaN around its midpoint too
            # (so the bracket holds the points where it is NaN); one not yet
            # certified goes on until it is, or until it is stuck
            known_lo, known_hi = flo >= 0.0, fhi <= 0.0
            certified = known_lo & known_hi
            done = certified & (zero | (lost & ~near)
                                | (hi <= np.fmax(np.nextafter(lo, np.inf), lo + 2.0 * res)))
            if rounds >= _MAX_ROUNDS:
                done = certified
            if not certified.all():
                # a side still unknown after its limit was evaluated cannot be had
                stuck = (~known_lo & (pts[0] <= lo)) | (~known_hi & (pts[2] >= hi))
                stuck_rows[rows[stuck]] = True
                done |= stuck
                step = np.where(certified, step, 4.0 * step + 16.0 * _U * scale[rows])
            state = (best, lo, hi, flo, fhi, f_best)
            if done.all():
                out[:, rows] = state
                break
            out[:, rows[done]] = [a[done] for a in state]
            keep = ~done
            rows, lo, hi, flo, fhi, best, f_best, slope, step, certified, nan_x = (
                a[keep] for a in (rows, lo, hi, flo, fhi, best, f_best, slope, step, certified,
                                  nan_x))

    root, lo, hi, flo, fhi, f_root = out
    return root, lo, hi, flo, fhi, np.abs(f_root), stuck_rows


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
