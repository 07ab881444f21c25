"""End-to-end and per-layer benchmark of the mws solver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    cli-docs    `python -m mws.cli` subprocesses on the documented configs
    api-sweep   build_spec -> solve_spectrum -> group_realisations, in process
    exact-scan  solve_spectrum in exact denominator mode, in process
    ladder      the size ladder N_p x n' x N_s up to 16 x 16 x 16, in process

`ladder` is not in BENCHMARK.json: its 60 cells cost from 1 ms to 10 s and
its median falls in a gap between two clusters of cell costs, so its median
and tail move by more than any usable bound from run to run. Run it for the
robustness frontier (every failing cell is printed with its sizes) and, with
--trace 1, for where time goes at large P.

One client runs operations in a closed loop: the next op starts when the
previous one has ended. The seed fixes the workload's op list; a run repeats
that list in whole passes, at least three, and starts another pass only while
it is expected to end within S seconds. Every run of an op is checked
(see checks.py) before it counts; an op that raises, exits non-zero or fails
its check in any pass counts as failed, and every failed op is printed with
its sizes. `attempted` and `failed` count distinct ops of the list, so they
depend on the seed alone; throughput divides by the sum of each op's median
time over the passes, so one slow pass of one op moves it little. Latency
percentiles cover the runs that passed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the ops run under the span tracer (tracing.py) and the last line
holds the per-layer metrics, every time and count divided by the number of
traced ops. Earlier stdout lines are JSON records: the environment stamp, the
run summary and the failures.

The program is imported from `src/` of the checkout this file sits in; the
run exits with status 2 when that tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracing import Tracer
from workloads import OPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5        # fresh-interpreter set-ups per run; the median counts
TAIL_BEYOND = 10         # the tail percentile keeps this many samples above it
MIN_PASSES = 3           # each op's time is the median of at least this many runs
OVERHEAD_SHARE = 0.15    # overhead re-run budget per side, share of traced busy time
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def require_checkout() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 without a result."""
    if not (SRC / "mws" / "__init__.py").is_file():
        print(f"perfbench: no mws sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import mws
    if SRC not in Path(mws.__file__).resolve().parents:
        print(f"perfbench: mws imported from {mws.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# -- op execution ----------------------------------------------------------------

@dataclass
class Record:
    """One op's outcome; it keeps no reference to the op's inputs or outputs,
    so the benchmark's own memory does not grow with the number of ops."""

    index: int                    # position in the run, over all passes
    op: int                       # position in the workload's op list
    label: str
    latency_s: float
    status: str = "ok"            # ok | error | check
    error: str = ""
    message: str = ""
    roots: int = 0
    n_max: int = 0
    check_s: float = 0.0
    bytes_written: int = 0
    files_written: int = 0
    sizes: dict | None = None     # kept for failed ops only

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    def fail(self, op, status: str, error: str, message: str) -> None:
        self.status, self.error, self.message, self.sizes = status, error, message, op.sizes

    def failure(self) -> dict:
        return {"op": self.op, "label": self.label, "sizes": self.sizes,
                "status": self.status, "error": self.error,
                "message": self.message[:300]}


def execute_api(op):
    """Time one in-process op; returns (latency_s, outputs or the exception)."""
    from mws import model, spectra
    start = time.perf_counter()
    try:
        spec = model.build_spec(op.doc)
        result = spectra.solve_spectrum(spec)
        ensemble = spectra.group_realisations(result) if op.group else None
    except Exception as exc:  # every failure is data: class and message recorded
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, (result, ensemble)


def judge_api(index: int, pos: int, op, latency_s: float, outcome) -> Record:
    rec = Record(index, pos, op.label, latency_s,
                 n_max=checks.closed_form_n_max(op.sizes))
    if isinstance(outcome, Exception):
        rec.fail(op, "error", type(outcome).__name__, str(outcome))
        return rec
    result, ensemble = outcome
    start = time.perf_counter()
    if op.sizes["mode"] == "exact" and op.sizes["drive"] == "spatial":
        verdict = checks.check_exact(result)
    else:
        verdict = checks.check_approx(op.sizes, result, ensemble)
    rec.check_s = time.perf_counter() - start
    if verdict.ok:
        rec.roots = verdict.roots
    else:
        rec.fail(op, "check", "CheckFailed", verdict.reason)
    return rec


class CliRunner:
    """Runs CLI ops in a scratch directory and checks them against a reference."""

    def __init__(self, work: Path):
        self.work = work
        self.reference: dict[str, dict | None] = {}

    def out_dir(self, name: str) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        return d

    def subprocess_op(self, op, out: Path) -> tuple[float, int, str]:
        argv = [sys.executable, "-m", "mws.cli", *op.argv, "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return time.perf_counter() - start, proc.returncode, proc.stderr

    def inprocess_op(self, op, out: Path, main=None) -> tuple[float, int, str]:
        from mws import cli
        main = main or cli.main
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = main([*op.argv, "--out", str(out)])
        return time.perf_counter() - start, code, err.getvalue()

    def run(self, index: int, pos: int, op, execute) -> Record:
        """Run one op with `execute` (subprocess_op or inprocess_op), judge it."""
        out = self.out_dir("op")
        rec = self.judge(index, pos, op, *execute(op, out), out)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def make_reference(self, ops) -> None:
        """Artifacts of one untimed in-process run of each distinct op."""
        for op in ops:
            if op.key() in self.reference:
                continue
            out = self.out_dir("reference")
            _, code, _ = self.inprocess_op(op, out)
            self.reference[op.key()] = checks.artifact_digests(out) if code == 0 else None
            shutil.rmtree(out, ignore_errors=True)

    def judge(self, index: int, pos: int, op, latency_s: float, code: int,
              stderr: str, out: Path) -> Record:
        rec = Record(index, pos, op.label, latency_s,
                     n_max=checks.closed_form_n_max(op.sizes))
        if out.is_dir():
            files = [p for p in out.iterdir() if p.is_file()]
            rec.files_written = len(files)
            rec.bytes_written = sum(p.stat().st_size for p in files)
        if code != 0:
            error, message = f"exit {code}", stderr.strip().rpartition("\n")[2]
            with contextlib.suppress(ValueError, KeyError, TypeError):
                diagnostic = json.loads(message)    # the CLI's exit record
                error, message = diagnostic["error"], diagnostic["message"]
            rec.fail(op, "error", error, message)
            return rec
        start = time.perf_counter()
        try:
            reason = self._check(op, out)
        except (OSError, ValueError, KeyError) as exc:
            reason = f"unreadable artifact: {type(exc).__name__}: {exc}"
        rec.check_s = time.perf_counter() - start
        if reason:
            rec.fail(op, "check", "CheckFailed", reason)
        else:
            rec.roots = checks.count_output_roots(out)
        return rec

    def _check(self, op, out: Path) -> str:
        digests = checks.artifact_digests(out)
        if digests != self.reference.get(op.key()):
            return "artifacts differ from the reference run"
        manifest = json.loads((out / "manifest.json").read_text())
        if sorted(manifest["outputs"]) != sorted(digests):
            return "manifest outputs do not match the files written"
        if "roots.csv" in digests:
            deficit = json.loads((out / "counts.json").read_text())["degeneracy_deficit"]
            return checks.check_roots_csv(out, op.sizes, deficit)
        return ""


# -- measurement loop ------------------------------------------------------------

@dataclass
class Measurement:
    ops: int                      # length of the op list
    records: list = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0

    def by_op(self) -> list[list[Record]]:
        """The records of each op of the list, one per pass."""
        runs = [[] for _ in range(self.ops)]
        for rec in self.records:
            runs[rec.op].append(rec)
        return runs

    def failed_ops(self) -> list[list[Record]]:
        """The runs of each op that failed in at least one pass."""
        return [runs for runs in self.by_op() if any(r.failed for r in runs)]


def measure(ops, seconds: float, run_op, min_passes: int = MIN_PASSES) -> Measurement:
    """Whole passes over `ops` in a closed loop: at least `min_passes`, then
    another only while it is expected to end within the time budget."""
    m = Measurement(len(ops))
    start = time.perf_counter()
    while True:
        for pos, op in enumerate(ops):
            m.records.append(run_op(len(m.records), pos, op))
        m.passes += 1
        m.wall_s = time.perf_counter() - start
        if m.passes >= min_passes and m.wall_s * (m.passes + 1) / m.passes > seconds:
            return m


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - TAIL_BEYOND)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def setup_seconds(workload: str, seed: int, first_op, cli: CliRunner | None) -> float:
    """Median wall time of fresh interpreters importing mws.cli and running the
    first op. One unmeasured start writes the bytecode caches first."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        if cli is not None:
            out = cli.out_dir("setup")
            wall, code, err = cli.subprocess_op(first_op, out)
        else:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--probe", "setup",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=170)
            wall, code, err = time.perf_counter() - start, proc.returncode, proc.stderr
        if code != 0 and cli is None:   # a CLI op's own exit code is its outcome
            raise RuntimeError(f"set-up probe failed (exit {code}): {err.strip()}")
        if i:
            times.append(wall)
    return statistics.median(times)


def import_seconds() -> float:
    """Median time of `import mws` in fresh interpreters (bytecode cached)."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import mws; "
             "print(time.perf_counter() - t)"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def env_stamp() -> dict:
    import numpy
    import scipy
    try:
        from mws._kernels import BACKEND as backend
    except ImportError:
        backend = "absent"
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "env": {
            "kernels_backend": backend,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        }
    }


# -- metrics ---------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(m: Measurement, setup_s: float, cli: bool) -> tuple[dict, dict]:
    """Throughput over one pass at each op's median time; latency percentiles
    over every run that passed its check. A failed run has no result to wait
    for, and most fail fast: counted, they would make a fix that turns a
    failure into a result read as a slowdown."""
    lats = [r.latency_s for r in m.records if not r.failed]
    if not lats:
        raise RuntimeError("no op passed its check, so latency is undefined")
    busy = roots = 0.0
    for runs in m.by_op():
        busy += statistics.median(r.latency_s for r in runs)
        if not any(r.failed for r in runs):
            roots += runs[0].roots
    value, pct, beyond = tail(lats)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(m.ops / busy, "1/s"),
        "roots_per_s": metric(roots / busy, "1/s"),
        "latency_p50_ms": metric(statistics.median(lats) * 1e3, "ms"),
        "latency_tail_ms": metric(value * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    tail_info = {"percentile": round(pct, 2), "samples": len(lats),
                 "samples_beyond": beyond}
    return metrics, tail_info


def per_layer(tracer, m: Measurement, import_s: float, overhead: float,
              process_ms: float) -> dict:
    n = len(m.records)
    total, self_ms = tracer.totals_ms()
    counters = tracer.counters

    def ms(name):
        return metric(total.get(name, 0.0) / n, "ms/op")

    def per_op(count, unit="count/op"):
        return metric(count / n, unit)

    kernel_roots = counters.get("kernels.solve_secular.roots", 0)
    certified = sum(r.roots for r in m.records)
    errors = [r.error for r in m.records if r.failed]
    return {
        "mws.import_s": metric(import_s, "s"),
        "cli.main_ms": ms("cli.main"),
        "cli.self_ms": metric(self_ms.get("cli.main", 0.0) / n, "ms/op"),
        "cli.process_ms": metric(process_ms, "ms/op"),
        "cli.bytes_written": per_op(sum(r.bytes_written for r in m.records), "B/op"),
        "cli.files_written": per_op(sum(r.files_written for r in m.records)),
        "model.build_spec_ms": ms("model.build_spec"),
        "model.specs": per_op(tracer.calls("model.build_spec")),
        "eigenbasis.solve_ms": ms("eigenbasis.solve"),
        "eigenbasis.solves": per_op(tracer.calls("eigenbasis.solve")),
        "eigenbasis.grid_points": per_op(counters.get("eigenbasis.solve.grid_points", 0)),
        "effpot.bases_ms": ms("effpot.build_bases"),
        "effpot.table_ms": ms("effpot.build_pole_weight_table"),
        "effpot.tables": per_op(tracer.calls("effpot.build_pole_weight_table")),
        "effpot.matrix_elements": per_op(tracer.calls("effpot.matrix_element")),
        "effpot.poles": per_op(counters.get("effpot.build_pole_weight_table.poles", 0)),
        "effpot.merged_poles": per_op(
            counters.get("effpot.build_pole_weight_table.merged_poles", 0)),
        "effpot.vnn_ms": ms("effpot.vnn_eval"),
        "effpot.vnn_evals": per_op(tracer.calls("effpot.vnn_eval")),
        "effpot.kernel_matrix_ms": ms("effpot.ep_kernel_matrix"),
        "kernels.solve_ms": ms("kernels.solve_secular"),
        "kernels.calls": per_op(tracer.calls("kernels.solve_secular")),
        "kernels.roots": per_op(kernel_roots),
        "kernels.us_per_root": metric(
            1e3 * total.get("kernels.solve_secular", 0.0) / kernel_roots
            if kernel_roots else 0.0, "us/root"),
        "kernels.residual_ms": ms("kernels.secular_residual"),
        "kernels.residual_calls": per_op(tracer.calls("kernels.secular_residual")),
        "spectra.solve_spectrum_ms": ms("spectra.solve_spectrum"),
        "spectra.self_ms": metric(sum(v for k, v in self_ms.items()
                                      if k.startswith("spectra.")) / n, "ms/op"),
        "spectra.find_roots_exact_ms": ms("spectra.find_roots_exact"),
        "spectra.group_ms": ms("spectra.group_realisations"),
        "spectra.roots_certified": per_op(certified),
        "spectra.count_law_ratio": metric(
            certified / max(1, sum(r.n_max for r in m.records)), "ratio"),
        "spectra.errors.SolverError": per_op(errors.count("SolverError")),
        "spectra.errors.BracketError": per_op(errors.count("BracketError")),
        "reconstruct.assemble_ms": ms("reconstruct.assemble_wavefunction"),
        "reconstruct.field_samples": per_op(
            counters.get("reconstruct.assemble_wavefunction.field_samples", 0)),
        "oracle.run_all_ms": ms("oracle.run_all_oracles"),
        "oracle.coupled_matrix_ms": ms("oracle.coupled_matrix"),
        "oracle.polynomial_ms": ms("oracle.polynomial_roots"),
        "bench.check_ms": metric(1e3 * sum(r.check_s for r in m.records) / n, "ms/op"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }


# -- runs ------------------------------------------------------------------------

def op_list(workload: str, seed: int, max_ops=None) -> tuple[list, int]:
    """(ops, minimum passes): the seeded list, or for a short self-test run
    its first `max_ops` ops once."""
    ops = OPS[workload](seed)
    return (ops, MIN_PASSES) if max_ops is None else (ops[:max_ops], 1)


def run_untraced(workload: str, seed: int, seconds: float, work: Path, max_ops=None):
    ops, min_passes = op_list(workload, seed, max_ops)
    if workload == "cli-docs":
        cli = CliRunner(work)
        cli.make_reference(ops)
        setup_s = setup_seconds(workload, seed, ops[0], cli)

        def run_op(i, pos, op):
            return cli.run(i, pos, op, cli.subprocess_op)
    else:
        cli = None
        setup_s = setup_seconds(workload, seed, ops[0], None)
        execute_api(ops[0])         # warm the in-process caches, untimed

        def run_op(i, pos, op):
            return judge_api(i, pos, op, *execute_api(op))
    m = measure(ops, seconds, run_op, min_passes)
    metrics, tail_info = end_to_end(m, setup_s, cli is not None)
    return m, metrics, tail_info


def run_traced(workload: str, seed: int, seconds: float, work: Path, max_ops=None):
    from mws import cli as mws_cli
    ops, min_passes = op_list(workload, seed, max_ops)
    import_s = import_seconds()
    tracer = Tracer()
    is_cli = workload == "cli-docs"
    cli = CliRunner(work) if is_cli else None

    def run_plain(i, pos, op, main=None):
        if is_cli:
            return cli.run(i, pos, op, functools.partial(cli.inprocess_op, main=main))
        return judge_api(i, pos, op, *execute_api(op))

    def run_traced_op(i, pos, op):
        tracer.op = i
        return run_plain(i, pos, op,
                         lambda argv: tracer.call("cli.main", mws_cli.main, argv))

    if is_cli:
        cli.make_reference(ops)     # also warms the in-process path
    else:
        execute_api(ops[0])
    tracer.install()
    try:
        m = measure(ops, seconds, run_traced_op, min_passes)
    finally:
        tracer.restore()

    # tracing overhead: a prefix of the ops again, each run untraced and under
    # a scratch tracer in alternating order, so drift in machine speed cancels
    budget = OVERHEAD_SHARE * sum(r.latency_s for r in m.records)
    plain_s = traced_s = 0.0
    for rec in m.records:
        if plain_s >= budget:
            break
        for traced in (rec.index % 2 == 0, rec.index % 2 == 1):
            scratch = Tracer()
            if traced:
                scratch.install()
            try:
                latency = run_plain(rec.index, rec.op, ops[rec.op]).latency_s
            finally:
                scratch.restore()
            if traced:
                traced_s += latency
            else:
                plain_s += latency

    # the CLI's process around main() (start, import, exit): the first pass
    # once as a subprocess and once in process
    process = []
    if is_cli:
        for pos, op in enumerate(ops):
            out = cli.out_dir("process")
            wall, _, _ = cli.subprocess_op(op, out)
            shutil.rmtree(out, ignore_errors=True)
            process.append(1e3 * (wall - run_plain(pos, pos, op).latency_s))
    process_ms = statistics.fmean(process) if process else 0.0
    metrics = per_layer(tracer, m, import_s, traced_s / plain_s, process_ms)
    info = {"absent_targets": tracer.absent, "spans": len(tracer.spans),
            "by_op": breakdown(tracer, m.records)}
    return m, metrics, info


def breakdown(tracer, records) -> dict:
    """Mean latency and span ms per op, grouped by op label (sizes, command)."""
    groups: dict[str, dict] = {}
    label_of = {}
    for rec in records:
        g = groups.setdefault(rec.label, {"ops": 0, "latency_ms": 0.0})
        g["ops"] += 1
        g["latency_ms"] += 1e3 * rec.latency_s
        label_of[rec.index] = rec.label
    for s in tracer.spans:
        g = groups[label_of[s.op]]
        g[s.name] = g.get(s.name, 0.0) + s.dur_ns / 1e6
        if s.name == "cli.main":
            g["cli.main.self"] = g.get("cli.main.self", 0.0) + s.self_ns / 1e6
    for g in groups.values():
        ops = g["ops"]
        for key in g:
            if key != "ops":
                g[key] = round(g[key] / ops, 4)
    return groups


def probe(workload: str, seed: int) -> int:
    """Set-up probe: import mws.cli and complete the workload's first op, which
    may fail like any op; a non-zero exit means the probe itself broke."""
    import mws.cli  # noqa: F401  (the import is what is being timed)
    execute_api(OPS[workload](seed)[0])
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    if args.probe:
        return probe(args.workload, args.seed)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"run-{os.getpid()}"
    work.mkdir()
    try:
        runner = run_traced if args.trace else run_untraced
        m, metrics, info = runner(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failures = []
    for runs in m.failed_ops():
        bad = [r for r in runs if r.failed]
        failures.append(dict(bad[0].failure(), failed_passes=len(bad), passes=len(runs)))
    correct = not any(r.status == "check" for r in m.records)
    print(json.dumps(env_stamp()))
    print(json.dumps({"failures": failures}))
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": m.ops, "passes": m.passes, "op_runs": len(m.records),
        "measured_s": m.wall_s, "failed_ratio": len(failures) / m.ops,
        ("trace" if args.trace else "latency_tail"): info}}))
    print(json.dumps({"correct": correct, "attempted": m.ops,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    require_checkout()
    raise SystemExit(main())
