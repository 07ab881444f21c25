"""Time the batched secular-equation solver and the exact-mode scan.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats 5] [--tables 200] \
        [--sizes 1,2,4,8,12,64]

For each table size P a batch of random pole/weight tables is stacked and
solved by one `mws._kernels.solve_secular_batch` call. Every root is checked
against the eigenvalues of the arrowhead matrix
[[eps0, sqrt(w)^T], [sqrt(w), diag(p)]] to 1e-9*max(1,|root|), and every
bracket against its sign certificate f_lo > 0 > f_hi, before the timings
(best of the repeats) are reported. The `rounds` column counts the batch's
`_residual` calls (the seed evaluation, then one per round of Newton point
and neighbours). With the default --tables, --sizes and --seed the run fails
when a size takes more rounds than ROUNDS lists.

The exact-mode section runs `mws.spectra.find_roots_exact` on the pole
tables of a fixed set of exact spatial configs. It prints, per table, the
dimension of the K eigenproblem, the `_exact_vnn` calls and the energies
they evaluate, and the rounds of the shared root loop (`_kernels.polish`).
Every root is checked first: a plain float sum of the exact relation must
change sign within 1e-9*max(1,|root|) of it, with no denominator changing
sign there (no pole). Then the timings (best of the repeats) are reported.
The run fails when the tables take more `_exact_vnn` calls or loop rounds
in total than EXACT_COUNTS lists.

The V_nn section evaluates `mws.effpot.vnn_eval` on figure1's curve of the
documented spatial config (VNN_CONFIG), in both denominator forms. Each
array of energies is checked bit for bit against one-energy `vnn_eval`
calls before it is timed (best of the repeats).
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

try:
    import mws  # noqa: F401
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mws.spectra
from mws import _kernels
from mws.effpot import build_bases, build_pole_weight_tables, vnn_eval
from mws.model import build_spec


def make_batch(rng, tables, p_count):
    batch = []
    for _ in range(tables):
        gaps = rng.uniform(0.1, 10.0, size=p_count)
        poles = rng.uniform(-50.0, 0.0) + np.cumsum(gaps)
        weights = rng.uniform(0.05, 20.0, size=p_count)
        eps0 = float(rng.uniform(-60.0, 60.0))
        batch.append((poles, weights, eps0))
    return batch


def run_batch(batch):
    t0 = time.perf_counter()
    results = _kernels.solve_secular_batch(batch)
    return time.perf_counter() - t0, results


# `_residual` calls per batch with the default --tables, --sizes and --seed:
# the seed evaluation, one round of Newton point and neighbours, and for
# P >= 8 one more round for the few rows that round leaves open
ROUNDS = {1: 2, 2: 2, 4: 2, 8: 3, 12: 3, 64: 3}


def count_rounds(batch):
    """(`_residual` calls, results) of one solve of the batch."""
    calls = []
    residual = _kernels._residual

    def counted(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    _kernels._residual = counted
    try:
        results = _kernels.solve_secular_batch(batch)
    finally:
        _kernels._residual = residual
    return len(calls), results


def arrowhead_roots(poles, weights, eps0):
    """Roots of eps - eps0 = sum w/(eps - p) as arrowhead eigenvalues."""
    n = len(poles) + 1
    a = np.zeros((n, n))
    a[0, 0] = eps0
    a[0, 1:] = a[1:, 0] = np.sqrt(weights)
    a[np.arange(1, n), np.arange(1, n)] = poles
    return np.linalg.eigvalsh(a)


EXACT_CELLS = [(n_p, n_prime, energy) for n_p in (2, 4) for n_prime in (1, 2, 4)
               for energy in (9.5, 16.0)]      # N_p, n', E; N_s = 2

# `_exact_vnn` calls and shared-loop rounds over the 24 EXACT_CELLS tables:
# per table the window check and one round of Newton point and neighbours
EXACT_COUNTS = {"calls": 48, "rounds": 24}


def exact_doc(n_p, n_prime, energy):
    """A spatial exact-mode config: n_p/2 conjugate pairs of off-centre bumps."""
    box = float(np.pi)
    harmonics = []
    for g in range(1, n_p // 2 + 1):
        amp = {"kind": "gaussian", "height": 0.6 / g, "center": box * (0.3 + 0.1 * g),
               "width": box * 0.2}
        harmonics += [{"index": g, "amplitude": amp}, {"index": -g, "amplitude": dict(amp)}]
    return {
        "box": {"length": box},
        "grid": {"points": 200},
        "base_potential": {"kind": "constant", "value": 0.0},
        "perturbation": {"kind": "spatial", "period": 6.5, "bloch_wavenumber": 0.0,
                         "real": True, "harmonics": harmonics},
        "energy": {"total": energy},
        "truncation": {"n_base": 2, "n_prime": n_prime},
        "modes": {"denominator": "exact", "basis": "unperturbed"},
    }


def exact_relation(members, total_energy, eps0, eps):
    """sum w/d(eps) - eps + eps0 in plain floats, and the denominators' signs."""
    terms, signs = [], []
    for m in members:
        d = eps - m.eps0_aux - m.eps_p \
            - 2.0 * m.cos_alpha * math.sqrt((total_energy - eps) * m.eps_p)
        terms.append(m.weight / d)
        signs.append(d > 0.0)
    return math.fsum(terms + [eps0 - eps]), signs


def check_exact_roots(label, table, eps0, roots):
    e = table.total_energy
    members = [m for entry in table.entries for m in entry.members]
    for r in roots.tolist():
        half = 1e-9 * max(1.0, abs(r))
        f_lo, signs_lo = exact_relation(members, e, eps0, r - half)
        f_hi, signs_hi = exact_relation(members, e, eps0, min(r + half, e))
        if signs_lo != signs_hi:
            raise SystemExit(f"{label}: root {r!r} brackets a pole")
        if f_lo * f_hi > 0.0:
            raise SystemExit(f"{label}: no sign change within {half!r} of root {r!r}")


def bench_exact_scan(repeats):
    """Check, count and time `find_roots_exact` on the EXACT_CELLS tables."""
    cases = []
    for n_p, n_prime, energy in EXACT_CELLS:
        spec = build_spec(exact_doc(n_p, n_prime, energy))
        bases = build_bases(spec)
        for table in build_pole_weight_tables(spec, bases):
            n = table.base_state
            cases.append((f"Np={n_p} n'={n_prime} E={energy} n={n}", table,
                          float(bases.base.eigenvalues[n - 1])))
    vnn, polish = mws.spectra._exact_vnn, _kernels.polish
    counts = []         # per table: V_nn calls, energies, loop rounds, roots

    def counting_vnn(members, total_energy, eps, **kwargs):
        counts[-1][0] += 1
        counts[-1][1] += eps.size
        return vnn(members, total_energy, eps, **kwargs)

    def counting_polish(evaluate, *args):
        def rounds(rows, x):
            counts[-1][2] += 1
            return evaluate(rows, x)
        return polish(rounds, *args)

    mws.spectra._exact_vnn, _kernels.polish = counting_vnn, counting_polish
    try:
        for label, table, eps0 in cases:
            counts.append([0, 0, 0, 0])
            roots = mws.spectra.find_roots_exact(table, eps0).roots
            check_exact_roots(label, table, eps0, roots)
            counts[-1][3] = len(roots)
    finally:
        mws.spectra._exact_vnn, _kernels.polish = vnn, polish
    times = []
    for label, table, eps0 in cases:
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            mws.spectra.find_roots_exact(table, eps0)
            best = min(best, time.perf_counter() - t0)
        times.append(best)

    dims = [len(mws.spectra._k_companion(t.members, t.total_energy, e)) for _, t, e in cases]
    print(f"\n{'exact table':<26}  {'T':>3}  {'dim':>3}  {'roots':>5}  {'calls':>5}  "
          f"{'energies':>8}  {'rounds':>6}  {'ms':>7}")
    for (label, table, _), dim, (calls, energies, rounds, n_roots), t in \
            zip(cases, dims, counts, times):
        print(f"{label:<26}  {len(table.members.weight):>3}  {dim:>3}  {n_roots:>5}  "
              f"{calls:>5}  {energies:>8}  {rounds:>6}  {t * 1e3:>7.2f}")
    total = [sum(c[i] for c in counts) for i in range(4)]
    print(f"{'total':<26}  {'':>3}  {'':>3}  {total[3]:>5}  {total[0]:>5}  {total[1]:>8}  "
          f"{total[2]:>6}  {sum(times) * 1e3:>7.2f}")
    for name, got in (("calls", total[0]), ("rounds", total[2])):
        if got > EXACT_COUNTS[name]:
            raise SystemExit(f"{got} exact {name} for {len(cases)} tables: more than the "
                             f"{EXACT_COUNTS[name]} recorded")


VNN_CONFIG = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "doc_spatial.json"


def bench_vnn(repeats):
    """Check and time `vnn_eval` on figure1's curve energies (its default 200
    per interval), both forms."""
    print(f"\n{'V_nn curve':<26}  {'T':>3}  {'energies':>8}  {'ms':>7}")
    for mode in ("approx", "exact"):
        doc = json.loads(VNN_CONFIG.read_text())
        doc["modes"]["denominator"] = mode
        for st in mws.spectra.solve_spectrum(build_spec(doc)).states:
            edges = mws.spectra.curve_edges(st.table, st.epsilon0)
            xs = np.concatenate([np.linspace(a + 1e-4 * (b - a), b - 1e-4 * (b - a), 200)
                                 for a, b in zip(edges, edges[1:])])
            label = f"{VNN_CONFIG.stem} {mode} n={st.n}"
            one = np.array([vnn_eval(st.table, x) for x in xs.tolist()])
            if vnn_eval(st.table, xs).tobytes() != one.tobytes():
                raise SystemExit(f"{label}: array V_nn differs from one-energy V_nn")
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                vnn_eval(st.table, xs)
                best = min(best, time.perf_counter() - t0)
            terms = st.table.members.weight if st.table.exact_spatial else st.table.poles
            print(f"{label:<26}  {len(terms):>3}  {len(xs):>8}  {best * 1e3:>7.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tables", type=int, default=200)
    ap.add_argument("--sizes", default="1,2,4,8,12,64")
    ap.add_argument("--seed", type=int, default=1234)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    gated = all(getattr(args, k) == ap.get_default(k) for k in ("tables", "sizes", "seed"))
    print(f"{'P':>3}  {'roots':>6}  {'rounds':>6}  {'ms':>9}  {'us/root':>8}  {'max rel err':>11}")
    rng = np.random.default_rng(args.seed)
    for p_count in sizes:
        batch = make_batch(rng, args.tables, p_count)
        elapsed = min(run_batch(batch)[0] for _ in range(args.repeats))
        rounds, results = count_rounds(batch)
        worst = 0.0
        for (poles, weights, eps0), (roots, _, _, flo, fhi, _) in zip(batch, results):
            want = arrowhead_roots(poles, weights, eps0)
            if len(roots) != len(want):
                raise SystemExit(f"{len(roots)} roots for {p_count} poles")
            if not (np.all(flo > 0.0) and np.all(fhi < 0.0)):
                raise SystemExit(f"bracket certificate failed at P={p_count}")
            err = np.abs(roots - want) / np.maximum(1.0, np.abs(want))
            worst = max(worst, float(err.max()))
        if worst > 1e-9:
            raise SystemExit(f"roots disagree with the arrowhead oracle at P={p_count}: "
                             f"relative error {worst:.3e}")
        n_roots = args.tables * (p_count + 1)
        print(f"{p_count:>3}  {n_roots:>6}  {rounds:>6}  {elapsed * 1e3:>9.2f}  "
              f"{elapsed * 1e6 / n_roots:>8.2f}  {worst:>11.2e}")
        if gated and rounds > ROUNDS[p_count]:
            raise SystemExit(f"{rounds} residual rounds at P={p_count}: more than the "
                             f"{ROUNDS[p_count]} recorded")
    bench_exact_scan(args.repeats)
    bench_vnn(args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
