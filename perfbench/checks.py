"""Output checks applied to every timed operation before it counts.

Each check returns a `Verdict`; an op whose verdict fails counts as failed.
The oracles here are independent of the solver's root refinement: they use
only the pole/weight data the solver returned and numpy.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9          # |root - oracle| <= REL_TOL * max(1, |root|)
EXACT_BRACKET = 1e-9    # half-width of the sign-change bracket, relative


@dataclass(frozen=True)
class Verdict:
    ok: bool
    roots: int = 0       # roots in the output that passed
    reason: str = ""


def closed_form_n_max(sizes: dict) -> int:
    return sizes["n_s"] * (sizes["n_p"] * sizes["n_prime"] + 1)


def arrowhead_roots(poles: np.ndarray, weights: np.ndarray, eps0: float) -> np.ndarray:
    """Eigenvalues of [[eps0, sqrt(w)^T], [sqrt(w), diag(p)]]: the secular roots."""
    m = np.diag(np.concatenate(([eps0], poles)))
    m[0, 1:] = m[1:, 0] = np.sqrt(weights)
    return np.linalg.eigvalsh(m)


def check_interlaced_state(poles, weights, eps0, roots, f_lo, f_hi) -> str:
    """Empty string when one base state's roots pass every approx-mode check."""
    if len(roots) != len(poles) + 1:
        return f"{len(roots)} roots for {len(poles)} poles"
    merged = np.empty(len(poles) + len(roots))
    merged[0::2] = roots
    merged[1::2] = poles
    if not np.all(np.diff(merged) > 0.0):
        return "roots and poles do not strictly interlace"
    if len(poles) and not np.all((f_lo > 0.0) & (f_hi < 0.0)):
        return "bracket signs are not f_lo > 0 > f_hi"
    oracle = arrowhead_roots(poles, weights, eps0)
    err = np.abs(roots - oracle) - REL_TOL * np.maximum(1.0, np.abs(roots))
    worst = int(np.argmax(err))
    if err[worst] > 0.0:
        return (f"root {float(roots[worst])!r} differs from the arrowhead "
                f"eigenvalue {float(oracle[worst])!r}")
    return ""


def check_approx(sizes: dict, result, ensemble=None) -> Verdict:
    """Count law, interlacing, bracket signs and the arrowhead oracle."""
    n_max = closed_form_n_max(sizes)
    if result.counts.n_max != n_max:
        return Verdict(False, reason=f"n_max {result.counts.n_max} != closed form {n_max}")
    observed = 0
    for st in result.states:
        rs = st.rootset
        why = check_interlaced_state(st.table.poles, st.table.weights, st.epsilon0,
                                     rs.roots, rs.f_lo, rs.f_hi)
        if why:
            return Verdict(False, reason=f"base state {st.n}: {why}")
        observed += len(rs.roots)
    if observed + result.degeneracy_deficit != n_max or result.degeneracy_deficit < 0:
        return Verdict(False, reason=f"{observed} roots + deficit "
                                     f"{result.degeneracy_deficit} != n_max {n_max}")
    if ensemble is not None:
        grouped = sorted((m.n, m.j) for r in ensemble.realisations for m in r.members)
        expected = sorted((st.n, j) for st in result.states
                          for j in range(1, len(st.roots) + 1))
        if ensemble.n_r != sizes["n_p"] or grouped != expected:
            return Verdict(False, reason="realisations do not partition the roots")
    return Verdict(True, roots=observed)


def exact_residual(members, total_energy: float, eps0: float, eps: float) -> float:
    """The exact dispersion relation sum w/d(eps) - eps + eps0, in plain floats."""
    terms = []
    for m in members:
        d = eps - m.eps0_aux - m.eps_p \
            - 2.0 * m.cos_alpha * math.sqrt((total_energy - eps) * m.eps_p)
        terms.append(m.weight / d)
    terms.append(eps0 - eps)
    return math.fsum(terms)


def _denominator_signs(members, total_energy: float, eps: float) -> list[bool]:
    return [eps - m.eps0_aux - m.eps_p
            - 2.0 * m.cos_alpha * math.sqrt((total_energy - eps) * m.eps_p) > 0.0
            for m in members]


def check_exact(result) -> Verdict:
    """Every root <= E and a sign change of the relation (not a pole) around it."""
    found = 0
    for st in result.states:
        e = st.table.total_energy
        members = [m for entry in st.table.entries for m in entry.members]
        for r in map(float, st.roots):
            if not r <= e:
                return Verdict(False, reason=f"base state {st.n}: root {r!r} above E={e!r}")
            half = EXACT_BRACKET * max(1.0, abs(r))
            lo, hi = r - half, min(r + half, e)
            if _denominator_signs(members, e, lo) != _denominator_signs(members, e, hi):
                return Verdict(False,
                               reason=f"base state {st.n}: root {r!r} brackets a pole")
            f_lo = exact_residual(members, e, st.epsilon0, lo)
            f_hi = exact_residual(members, e, st.epsilon0, hi)
            if f_lo * f_hi > 0.0:
                return Verdict(False, reason=f"base state {st.n}: no sign change within "
                                             f"{half!r} of root {r!r}")
            found += 1
    return Verdict(True, roots=found)


# -- CLI artifacts -------------------------------------------------------------

ROOT_FILES = ("roots.csv", "sweep.csv", "intersections.csv")


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact except manifest.json, which records wall time."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_roots_csv(out_dir: Path, sizes: dict, deficit: int) -> str:
    """roots.csv obeys the count law and interlaces with poles.csv per state."""
    roots_by_n: dict[int, list[float]] = {}
    for row in _rows(out_dir / "roots.csv"):
        roots_by_n.setdefault(int(row["n"]), []).append(float(row["root"]))
    poles_by_n: dict[int, set[float]] = {}
    for row in _rows(out_dir / "poles.csv"):
        poles_by_n.setdefault(int(row["n"]), set()).add(float(row["pole"]))
    total = 0
    for n in range(1, sizes["n_s"] + 1):
        roots = roots_by_n.get(n, [])
        poles = sorted(poles_by_n.get(n, ()))
        if len(roots) != len(poles) + 1:
            return f"roots.csv: state {n} has {len(roots)} roots for {len(poles)} poles"
        merged = np.empty(len(poles) + len(roots))
        merged[0::2] = roots
        merged[1::2] = poles
        if not np.all(np.diff(merged) > 0.0):
            return f"roots.csv: state {n} roots do not interlace with poles.csv"
        total += len(roots)
    n_max = closed_form_n_max(sizes)
    if total + deficit != n_max:
        return f"roots.csv: {total} roots + deficit {deficit} != n_max {n_max}"
    return ""


def count_output_roots(out_dir: Path) -> int:
    return sum(len(_rows(out_dir / name)) for name in ROOT_FILES
               if (out_dir / name).is_file())
