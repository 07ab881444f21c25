"""Time the batched secular-equation solver.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats 5] [--tables 200] \
        [--sizes 1,2,4,8,12,64]

For each table size P a batch of random pole/weight tables is stacked and
solved by one `mws._kernels.solve_secular_batch` call. Every root is checked
against the eigenvalues of the arrowhead matrix
[[eps0, sqrt(w)^T], [sqrt(w), diag(p)]] to 1e-9*max(1,|root|), and every
bracket against its sign certificate f_lo > 0 > f_hi, before the timings
(best of the repeats) are reported.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

try:
    import mws  # noqa: F401
except ImportError:  # run from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mws import _kernels


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


def arrowhead_roots(poles, weights, eps0):
    """Roots of eps - eps0 = sum w/(eps - p) as arrowhead eigenvalues."""
    n = len(poles) + 1
    a = np.zeros((n, n))
    a[0, 0] = eps0
    a[0, 1:] = a[1:, 0] = np.sqrt(weights)
    a[np.arange(1, n), np.arange(1, n)] = poles
    return np.linalg.eigvalsh(a)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tables", type=int, default=200)
    ap.add_argument("--sizes", default="1,2,4,8,12,64")
    ap.add_argument("--seed", type=int, default=1234)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]

    print(f"{'P':>3}  {'roots':>6}  {'ms':>9}  {'us/root':>8}  {'max rel err':>11}")
    rng = np.random.default_rng(args.seed)
    for p_count in sizes:
        batch = make_batch(rng, args.tables, p_count)
        elapsed = min(run_batch(batch)[0] for _ in range(args.repeats))
        _, results = run_batch(batch)
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
        print(f"{p_count:>3}  {n_roots:>6}  {elapsed * 1e3:>9.2f}  "
              f"{elapsed * 1e6 / n_roots:>8.2f}  {worst:>11.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
