"""Command-line pipeline: config in, deterministic CSV/JSON artifacts out.

Exit codes: 0 success, 2 invalid config, 3 numerical/solver failure,
4 I/O failure. Errors print a one-line JSON record to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from mws import __version__
from mws.effpot import build_bases, ep_kernel_matrix, vnn_eval
from mws.errors import ConfigError, MwsError, SolverError
from mws.model import SystemSpec, build_spec
from mws.oracle import coupled_matrix_diagonalization, run_all_oracles, \
    subset_recovery_distance
from mws.reconstruct import assemble_wavefunction
from mws.spectra import exact_scan_edges, group_realisations, realisation_separation, \
    solve_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_EPILOG = """exit codes:
  0  success
  2  invalid or malformed config
  3  numerical/solver failure
  4  I/O failure (unreadable config, unwritable output)
"""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    """String cells as they are, every other cell as `_fmt` spells it: one
    '%' template per row shape (the cell types), one '%' call per row."""
    templates: dict[tuple, str] = {}
    lines = [",".join(header)]
    for row in rows:
        shape = tuple(map(type, row))
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = ",".join(
                "%s" if issubclass(t, str) else "%.17g" for t in shape)
        lines.append(template % tuple(row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(path: str) -> tuple[dict, str]:
    raw_bytes = Path(path).read_bytes()
    digest = hashlib.sha256(raw_bytes).hexdigest()
    try:
        doc = json.loads(raw_bytes)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return doc, digest


def _apply_overrides(doc: dict, args) -> dict:
    modes = dict(doc.get("modes", {}))
    for flag, key in (("mode", "denominator"), ("backend", "basis")):
        if getattr(args, flag, None) is not None:
            modes[key] = getattr(args, flag)
    return dict(doc, modes=modes)


def _manifest(out_dir: Path, subcommand: str, digest: str, outputs: list[str],
              spec: SystemSpec, started: float) -> None:
    payload = {
        "config_sha256": digest,
        "subcommand": subcommand,
        "outputs": outputs,
        "wall_time_s": time.perf_counter() - started,
        "version": __version__,
        "mode": spec.denominator_mode,
        "backend": spec.basis_backend,
    }
    _write_json(out_dir / "manifest.json", payload)


def cmd_basis(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    bases = build_bases(spec)
    b = bases.base
    header = ["n", "eigenvalue"] + [f"psi_{i}" for i in range(spec.grid_points)]
    rows = [[str(n), value] + funcs for n, (value, funcs) in
            enumerate(zip(b.eigenvalues.tolist(), b.eigenfunctions.tolist()), start=1)]
    _write_csv(out_dir / "basis.csv", header, rows)
    return ["basis.csv"]


def _spectrum_outputs(spec: SystemSpec, out_dir: Path):
    result = solve_spectrum(spec)

    rows = []
    for st in result.states:
        rs = st.rootset
        for j in range(len(rs.roots)):
            rows.append([str(st.n), str(j + 1), rs.roots[j], rs.residuals[j],
                         rs.bracket_lo[j], rs.bracket_hi[j]])
    _write_csv(out_dir / "roots.csv",
               ["n", "j", "root", "residual", "bracket_lo", "bracket_hi"], rows)

    rows = []
    for st in result.states:
        m = st.table.members
        poles = np.repeat(st.table.poles, np.diff(st.table.starts))   # each member's entry
        rows += [[str(st.n), str(g), str(k), p, w] for g, k, p, w in
                 zip(m.channel.tolist(), m.n_prime.tolist(), poles.tolist(), m.weight.tolist())]
    _write_csv(out_dir / "poles.csv",
               ["n", "g_or_k", "n_prime", "pole", "weight"], rows)

    counts = dict(asdict(result.counts), observed_total=result.observed_total,
                  degeneracy_deficit=result.degeneracy_deficit, mode=result.mode)
    try:
        sep = realisation_separation(spec, want_min=spec.is_spatial)
        counts["separation_max_estimate"] = sep.max_estimate
        if sep.min_estimate is not None:
            counts["separation_min_estimate"] = sep.min_estimate
    except MwsError:
        pass
    _write_json(out_dir / "counts.json", counts)

    try:
        ensemble = group_realisations(result)
    except SolverError:
        ensemble = group_realisations(result, 1)
    _write_json(out_dir / "realisations.json", {
        "method": ensemble.method,
        "n_r": ensemble.n_r,
        "realisations": [
            {"index": r.index,
             "members": [{"n": m.n, "j": m.j, "root": m.value} for m in r.members]}
            for r in ensemble.realisations
        ],
    })
    return result, ensemble, ["roots.csv", "poles.csv", "counts.json", "realisations.json"]


def cmd_spectrum(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    return _spectrum_outputs(spec, out_dir)[2]


def cmd_kernel(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    if args.epsilon is None:
        raise ConfigError("the kernel subcommand needs --epsilon")
    bases = build_bases(spec)
    k = ep_kernel_matrix(spec, bases, args.epsilon)
    stride = max(1, (spec.grid_points - 1) // 256) if args.stride is None else args.stride
    idx = range(0, spec.grid_points, stride)
    grid = spec.grid
    header = ["x"] + [_fmt(grid[j]) for j in idx]
    outputs = []
    for name, part in (("kernel_re.csv", k.real), ("kernel_im.csv", k.imag)):
        rows = [[grid[i]] + [part[i, j] for j in idx] for i in idx]
        _write_csv(out_dir / name, header, rows)
        outputs.append(name)
    return outputs


def cmd_reconstruct(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    result, ensemble, outputs = _spectrum_outputs(spec, out_dir)
    wanted = args.realisation
    match = [r for r in ensemble.realisations if r.index == wanted]
    if not match:
        raise ConfigError(
            f"realisation {wanted} not available (ensemble has {ensemble.n_r})"
        )
    roots_by_n: dict[int, float] = {}
    for m in match[0].members:
        roots_by_n.setdefault(m.n, m.value)  # lowest root per base state
    n_second = 65 if args.samples is None else args.samples
    field = assemble_wavefunction(spec, result.bases, roots_by_n, n_second=n_second,
                                  allow_evanescent=args.allow_evanescent)

    n_x, n_y = field.psi.shape
    rows = np.column_stack([np.repeat(field.x, n_y), np.tile(field.second_axis, n_x),
                            field.psi.real.ravel(), field.psi.imag.ravel(),
                            field.rho.ravel()]).tolist()
    axis = "r_p" if field.axis_kind == "r_p" else "t"
    _write_csv(out_dir / "field.csv", ["x", axis, "re_psi", "im_psi", "rho"], rows)
    return outputs + ["field.csv"]


def cmd_verify(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    reports = run_all_oracles(spec)
    _write_json(out_dir / "verify.json", {
        "reports": [r.as_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    })
    return ["verify.json"]


def cmd_figure1(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    if spec.n_base != 1:
        warnings.warn("the graphical dump is designed for a single base state")
    per_interval = 200 if args.samples is None else args.samples

    curve_rows = []
    asym_rows = []
    root_rows = []
    for st in solve_spectrum(spec).states:
        n, eps0, table = st.n, st.epsilon0, st.table
        poles = table.poles
        asym_rows += [[str(n), p, str(g), str(k)] for p, g, k in
                      zip(np.repeat(poles, np.diff(table.starts)).tolist(),
                          table.members.channel.tolist(), table.members.n_prime.tolist())]
        for j, r in enumerate(st.roots, start=1):
            root_rows.append([str(n), str(j), r])

        if table.spatial and table.mode == "exact":
            # the exact relation ends at E, so the curve ends where the scan does
            edges = exact_scan_edges(table, eps0)
            segments = [(a, b, b - a) for a, b in zip(edges[:-1], edges[1:])]
        elif len(poles) == 0:
            segments = [(eps0 - 1.0, eps0 + 1.0, 2.0)]
        else:
            margin = max(float(poles[-1] - poles[0]), 1.0)
            edges = [poles[0] - margin] + list(poles) + [poles[-1] + margin]
            segments = [(a, b, b - a) for a, b in zip(edges[:-1], edges[1:])]
        xs = np.concatenate([np.linspace(a + 1e-4 * gap, b - 1e-4 * gap, per_interval)
                             for a, b, gap in segments])
        curve_rows += [[str(n), eps, v, eps - eps0] for eps, v in
                       zip(xs.tolist(), vnn_eval(table, xs).tolist())]

    _write_csv(out_dir / "curve.csv", ["n", "epsilon", "v_nn", "line"], curve_rows)
    _write_csv(out_dir / "asymptotes.csv", ["n", "pole", "g_or_k", "n_prime"], asym_rows)
    _write_csv(out_dir / "intersections.csv", ["n", "j", "root"], root_rows)
    return ["curve.csv", "asymptotes.csv", "intersections.csv"]


def _set_by_path(doc: dict, dotted: str, value: float) -> dict:
    keys = dotted.split(".")
    out = json.loads(json.dumps(doc))  # deep copy
    node = out
    for key in keys[:-1]:
        if isinstance(node, list):
            node = node[int(key)]
        elif key in node:
            node = node[key]
        else:
            raise ConfigError(f"sweep path segment {key!r} not found in config")
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return out


def cmd_sweep(spec: SystemSpec, doc: dict, out_dir: Path, args) -> list[str]:
    if not args.param:
        raise ConfigError("the sweep subcommand needs --param")
    if not args.values:
        raise ConfigError("the sweep subcommand needs a nonempty --values list")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("the sweep subcommand needs a nonempty --values list")

    rows = []
    for value in values:
        swept = build_spec(_set_by_path(doc, args.param, value))
        result = solve_spectrum(swept)
        eigs = coupled_matrix_diagonalization(swept).eigenvalues
        roots = np.array([v for (_, _, v) in result.all_roots()])
        dist = subset_recovery_distance(roots, eigs)
        for (n, j, root) in result.all_roots():
            rows.append([value, str(n), str(j), root, dist])
    _write_csv(out_dir / "sweep.csv",
               ["value", "n", "j", "root", "oracle_distance"], rows)
    return ["sweep.csv"]


_COMMANDS = {
    "basis": cmd_basis,
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "figure1": cmd_figure1,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to the JSON config")
    shared.add_argument("--out", required=True, help="output directory")
    # the base eigenbasis that `basis` writes depends on neither override
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--mode", choices=["approx", "exact"],
                           help="override modes.denominator")
    overrides.add_argument("--backend", choices=["unperturbed", "v1"],
                           help="override modes.basis")

    parser = argparse.ArgumentParser(
        prog="mws",
        description="effective-potential solver for periodically perturbed "
                    "1D quantum systems",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("basis", parents=[shared], help="base eigenpairs as CSV")
    sub.add_parser("spectrum", parents=[shared, overrides],
                   help="roots, poles, counts, realisations")
    k = sub.add_parser("kernel", parents=[shared, overrides], help="nonlocal kernel matrix dump")
    k.add_argument("--epsilon", type=float, default=None,
                   help="energy at which to evaluate the kernel")
    k.add_argument("--stride", type=int,
                   help="grid stride >= 1 for the dump (default: about 256 rows)")
    r = sub.add_parser("reconstruct", parents=[shared, overrides],
                       help="wavefunction and density for one realisation")
    r.add_argument("--realisation", type=int, default=1,
                   help="1-based realisation index (default 1)")
    r.add_argument("--allow-evanescent", action="store_true",
                   help="assemble evanescent states with imaginary wavenumber")
    r.add_argument("--samples", type=int, help="points along the second axis (default 65)")
    sub.add_parser("verify", parents=[shared, overrides], help="run all oracles")
    f = sub.add_parser("figure1", parents=[shared, overrides],
                       help="graphical-solution data: curves, asymptotes, intersections")
    f.add_argument("--samples", type=int, help="curve points per pole interval (default 200)")
    s = sub.add_parser("sweep", parents=[shared, overrides], help="spectrum across a parameter")
    s.add_argument("--param", help="dotted config path, e.g. perturbation.scale")
    s.add_argument("--values", help="comma-separated numeric values")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        for flag in ("samples", "stride"):   # the count flags
            count = getattr(args, flag, None)
            if count is not None and count < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {count}")
        doc, digest = _load_config(args.config)
        doc = _apply_overrides(doc, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = build_spec(doc)
        outputs = _COMMANDS[args.subcommand](spec, doc, out_dir, args)
        _manifest(out_dir, args.subcommand, digest, outputs, spec, started)
        return EXIT_OK
    except ConfigError as exc:
        _emit_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except SolverError as exc:
        _emit_error(exc, EXIT_SOLVER)
        return EXIT_SOLVER
    except OSError as exc:
        _emit_error(exc, EXIT_IO)
        return EXIT_IO


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
