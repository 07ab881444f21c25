"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for a few ops and asserts that
  * every metric in BENCHMARK.json is emitted with its unit,
  * a deliberately corrupted output counts as a failed op,
  * two traced runs with the same seed produce identical op lists and
    identical counts.
Exits 0 when all hold, 1 with a message on the first that does not.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
import warnings

import run

SHORT_OPS = {"cli-docs": 3, "api-sweep": 12, "ladder": 9, "exact-scan": 8}
SEED = 7
EXACT_COUNTS = ("kernels.roots", "kernels.calls", "spectra.roots_certified",
                "spectra.errors.SolverError", "spectra.errors.BracketError",
                "effpot.tables", "effpot.matrix_elements", "eigenbasis.solves")


class SelfTestError(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def check_emitted(metrics: dict, declared: list[dict], where: str) -> None:
    names = {d["name"]: d["unit"] for d in declared}
    odd = sorted(set(metrics) ^ set(names))
    expect(not odd, f"{where}: metrics {odd} differ from BENCHMARK.json")
    for name, unit in names.items():
        value = metrics[name]
        expect(value["unit"] == unit, f"{where}: {name} has unit {value['unit']!r}")
        expect(isinstance(value["value"], float) and math.isfinite(value["value"]),
               f"{where}: {name} is not a finite number")


def check_corruption(work) -> None:
    """Corrupted roots fail their check, in approx, exact and CLI ops."""
    from workloads import OPS
    for workload in ("api-sweep", "exact-scan"):
        ops = OPS[workload](SEED)
        for i, op in enumerate(ops):
            latency, outcome = run.execute_api(op)
            if not isinstance(outcome, Exception) and len(outcome[0].states[0].roots):
                break
        else:
            raise SelfTestError(f"{workload}: no op succeeded to corrupt")
        expect(run.judge_api(i, i, op, latency, outcome).status == "ok",
               f"{workload}: clean op {op.label} failed its check")
        state = outcome[0].states[0]
        state.rootset.roots[len(state.roots) // 2] *= 1.0 + 1e-6
        expect(run.judge_api(i, i, op, latency, outcome).status == "check",
               f"{workload}: a corrupted root passed the check")

    cli = run.CliRunner(work)
    op = OPS["cli-docs"](SEED)[0]
    cli.make_reference([op])
    out = cli.out_dir("corrupt")
    wall, code, err = cli.subprocess_op(op, out)
    expect(cli.judge(0, 0, op, wall, code, err, out).status == "ok",
           "cli-docs: clean op failed its check")
    roots = out / "roots.csv"
    lines = roots.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells)
    roots.write_text("\n".join(lines) + "\n")
    expect(cli.judge(0, 0, op, wall, code, err, out).status == "check",
           "cli-docs: a corrupted roots.csv passed the check")


def main() -> int:
    warnings.simplefilter("ignore")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_corruption(work)
        print("corrupted outputs count as failed ops", flush=True)
        for workload, max_ops in SHORT_OPS.items():
            _, metrics, _ = run.run_untraced(workload, SEED, 0.0, work, max_ops)
            check_emitted(metrics, declared["end_to_end"], f"{workload} untraced")
            runs = [run.run_traced(workload, SEED, 0.0, work, max_ops)
                    for _ in range(2)]
            for m, metrics, _ in runs:
                check_emitted(metrics, declared["per_layer"], f"{workload} traced")
            (m1, lay1, _), (m2, lay2, _) = runs
            keys = [[op.key() for op in run.OPS[workload](SEED)] for _ in range(2)]
            expect(keys[0] == keys[1] and
                   [r.label for r in m1.records] == [r.label for r in m2.records],
                   f"{workload}: same seed gave different op lists")
            expect([r.error for r in m1.records] == [r.error for r in m2.records],
                   f"{workload}: same seed gave different failures")
            for name in EXACT_COUNTS:
                expect(lay1[name] == lay2[name],
                       f"{workload}: {name} {lay1[name]} != {lay2[name]}")
            print(f"{workload}: {len(m1.records)} ops, "
                  f"{sum(r.failed for r in m1.records)} failed, metrics and "
                  f"counts repeat", flush=True)
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    run.require_checkout()
    raise SystemExit(main())
