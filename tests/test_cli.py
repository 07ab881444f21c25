"""End-to-end CLI runs: artifacts, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mws.effpot
import mws.spectra
from conftest import fig_anchor_harmonics, gaussian, spatial_config, \
    temporal_config, weak_harmonics
from mws.cli import _write_csv, main
from mws.effpot import PoleWeightTable, build_bases, build_pole_weight_table, \
    build_pole_weight_tables, vnn_eval
from mws.model import build_spec
from mws.spectra import curve_edges, find_roots_exact

DOC_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run(args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_csv_per_cell(path, header, rows):
    """The writer as it was: one format call per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else f"{float(cell):.17g}" for cell in row
        ))
    path.write_text("\n".join(lines) + "\n")


def test_csv_writer_matches_per_cell_formatting(tmp_path):
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 1.0 / 3.0,
                np.float64(-0.0), np.float64("nan"), np.float64(2.5e-17), 7, np.int64(-3)]
    rows = [[str(i), x, "lbl", np.float64(x) if i % 2 else x] for i, x in enumerate(specials)]
    rows += [[x, y] for x, y in zip(specials, reversed(specials))]
    rows += [["only", "strings"], [], [np.float64(np.pi)] * 6]
    header = ["a", "b", "c", "d"]
    _write_csv(tmp_path / "new.csv", header, rows)
    write_csv_per_cell(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_spectrum_artifacts_and_counts(tmp_path):
    cfg_path = write_config(tmp_path, spatial_config(fig_anchor_harmonics()))
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    for name in ("roots.csv", "poles.csv", "counts.json", "realisations.json",
                 "manifest.json"):
        assert (out / name).exists()
    counts = json.loads((out / "counts.json").read_text())
    assert counts["n_max"] == 9
    assert counts["observed_total"] == 9
    assert counts["degeneracy_deficit"] == 0
    assert counts["separation_min_estimate"] > 0.0
    header, rows = read_rows(out / "roots.csv")
    assert header == ["n", "j", "root", "residual", "bracket_lo", "bracket_hi"]
    assert len(rows) == 9
    header, rows = read_rows(out / "poles.csv")
    assert header == ["n", "g_or_k", "n_prime", "pole", "weight"]
    assert len(rows) == 8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert len(manifest["config_sha256"]) == 64
    assert manifest["mode"] == "approx"
    assert set(manifest["outputs"]) == {"roots.csv", "poles.csv", "counts.json",
                                        "realisations.json"}


@pytest.mark.filterwarnings("ignore:root count")
def test_zero_perturbation_spectrum_and_fallback_grouping(tmp_path):
    zero = {"kind": "constant", "value": 0.0}
    cfg = temporal_config([
        {"index": 1, "amplitude": zero},
        {"index": -1, "amplitude": zero},
    ], n_base=2, n_prime=2)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    counts = json.loads((out / "counts.json").read_text())
    assert counts["observed_total"] == 2
    assert counts["degeneracy_deficit"] == counts["n_max"] - 2
    reals = json.loads((out / "realisations.json").read_text())
    # auto grouping cannot make N_p groups from one root per state
    assert reals["n_r"] == 1
    assert reals["method"] == "largest-gaps"


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"


def test_invalid_config_contents(tmp_path):
    cfg = spatial_config(fig_anchor_harmonics())
    cfg["truncation"]["n_base"] = 0
    cfg_path = write_config(tmp_path, cfg)
    assert run(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("parent,good,bad,path", [
    (("modes",), "denominator", "denominater", "modes.denominater"),
    (("perturbation",), "scale", "scal", "perturbation.scal"),
    (("perturbation", "harmonics", 0), "index", "indx", "perturbation.harmonics[0].indx"),
    (("perturbation", "harmonics", 0, "amplitude"), "width", "widht",
     "perturbation.harmonics[0].amplitude.widht"),
], ids=("modes", "perturbation", "harmonic", "gaussian"))
def test_undocumented_key_is_config_error(tmp_path, capsys, parent, good, bad, path):
    # a misspelt optional key would otherwise run on its default
    cfg = spatial_config(fig_anchor_harmonics())
    node = cfg
    for key in parent:
        node = node[key]
    node[bad] = node.pop(good)
    cfg_path = write_config(tmp_path, cfg)
    assert run(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert path in err["message"]


def _anchor_bytes(**patch):
    return json.dumps(dict(spatial_config(fig_anchor_harmonics()), **patch)).encode()


def _sweep(param):
    return ["sweep", "--param", param, "--values", "1"]


@pytest.mark.parametrize("raw,argv,path", [
    (b"[1, 2]", ["basis"], "config root"),
    (_anchor_bytes(modes="exact"), ["spectrum", "--mode", "exact"], "modes"),
    (_anchor_bytes(modes=["a"]), ["basis"], "modes"),
    (b"\xff\xfe{", ["spectrum"], "config is not valid JSON"),
    (_anchor_bytes(), _sweep("perturbation.harmonics.x.index"), "perturbation.harmonics"),
    (_anchor_bytes(), _sweep("perturbation.harmonics.9.index"), "perturbation.harmonics"),
    (_anchor_bytes(), _sweep("box.length.x"), "box.length"),
    (_anchor_bytes(energy={"total": float("nan")}), ["spectrum"], "non-finite number NaN"),
    (_anchor_bytes(energy={"total": float("inf")}), ["figure1"], "non-finite number Infinity"),
    (_anchor_bytes(box={"length": -float("inf")}), ["basis"], "non-finite number -Infinity"),
    (_anchor_bytes(), ["sweep", "--param", "energy.total", "--values", "nan"], "energy.total"),
    (_anchor_bytes(), ["sweep", "--param", "base_potential.value", "--values", "inf"],
     "base_potential.value must be finite"),
], ids=("list-root", "modes-string", "modes-list", "undecodable", "sweep-word-index",
        "sweep-index-out-of-range", "sweep-into-number", "nan-literal", "infinity-literal",
        "minus-infinity-literal", "sweep-nan", "sweep-inf-profile"))
def test_malformed_config_is_config_error(tmp_path, capsys, raw, argv, path):
    # a config error each: the JSON record and exit 2, never a traceback (exit 1)
    cfg = tmp_path / "config.json"
    cfg.write_bytes(raw)
    assert run(argv[:1] + ["--config", str(cfg), "--out", str(tmp_path / "o")] + argv[1:]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert path in err["message"]


@pytest.mark.parametrize("sub", ("spectrum", "reconstruct"))
def test_empty_drive_keeps_each_base_level(tmp_path, sub):
    cfg = temporal_config([], n_base=2)
    out = tmp_path / "out"
    assert run([sub, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    counts = json.loads((out / "counts.json").read_text())
    assert counts["n_delta"] == 0
    assert all(v >= 0 for v in counts.values() if isinstance(v, (int, float)))
    _, roots = read_rows(out / "roots.csv")
    eps0 = build_bases(build_spec(cfg)).base.eigenvalues
    assert [(r[0], r[1]) for r in roots] == [("1", "1"), ("2", "1")]
    assert np.allclose([float(r[2]) for r in roots], eps0[:2], rtol=1e-12)
    reals = json.loads((out / "realisations.json").read_text())
    assert reals["n_r"] == 1
    assert [m["root"] for m in reals["realisations"][0]["members"]] == \
        [float(r[2]) for r in roots]


def test_zero_harmonic_index_is_config_error(tmp_path):
    cfg = spatial_config([{"index": 0, "amplitude": gaussian(0.3, 0.5, 0.2)}])
    cfg_path = write_config(tmp_path, cfg)
    assert run(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_io_error(tmp_path, capsys):
    missing = str(tmp_path / "does-not-exist.json")
    assert run(["spectrum", "--config", missing, "--out", str(tmp_path / "o")]) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 4


@pytest.mark.filterwarnings("ignore:total energy does not dominate")
def test_solver_failure_exit_code(tmp_path, capsys):
    # E < 0 puts the approximate spatial poles' square roots out of reach
    cfg = spatial_config(fig_anchor_harmonics(), energy=-1.0)
    cfg_path = write_config(tmp_path, cfg)
    assert run(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 3


@pytest.mark.parametrize("sub", (["spectrum"], ["basis"], ["verify"],
                                 ["kernel", "--epsilon", "-30"],
                                 ["sweep", "--param", "perturbation.scale", "--values", "1"]))
def test_samples_rejected_where_unread(tmp_path, sub):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    with pytest.raises(SystemExit) as exc:
        run(sub + ["--config", cfg_path, "--out", str(tmp_path / "o"), "--samples", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("sub", ("spectrum", "figure1"))
def test_table_writers_read_arrays_not_entries(tmp_path, monkeypatch, sub):
    def unbuilt(table):
        raise AssertionError("entries built")

    monkeypatch.setattr(PoleWeightTable, "entries", property(unbuilt))
    cfg_path = write_config(tmp_path, spatial_config(fig_anchor_harmonics()))
    assert run([sub, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0


def test_kernel_requires_epsilon(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    assert run(["kernel", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("epsilon", ("nan", "inf", "-inf"))
def test_kernel_refuses_non_finite_epsilon(tmp_path, capsys, epsilon):
    # a NaN epsilon would write nan cells, an infinite one an all-zero kernel
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    out = tmp_path / "o"
    assert run(["kernel", "--config", cfg_path, "--out", str(out), f"--epsilon={epsilon}"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
    assert "--epsilon" in json.loads(lines[0])["message"]
    assert not (out / "kernel_re.csv").exists()


def test_kernel_dump(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics(), points=128))
    out = tmp_path / "out"
    assert run(["kernel", "--config", cfg_path, "--out", str(out),
                "--epsilon", "-30.0"]) == 0
    for name in ("kernel_re.csv", "kernel_im.csv"):
        header, rows = read_rows(out / name)
        assert header[0] == "x"
        assert len(rows) == len(header) - 1   # square dump
    # real conjugate-paired profiles: the kernel is real and symmetric
    _, rows_im = read_rows(out / "kernel_im.csv")
    assert all(abs(float(v)) < 1e-12 for row in rows_im for v in row[1:])


def test_reconstruct_outputs(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(
        weak_harmonics(), n_base=1, points=128))
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", cfg_path, "--out", str(out),
                "--samples", "9"]) == 0
    header, rows = read_rows(out / "field.csv")
    assert header == ["x", "t", "re_psi", "im_psi", "rho"]
    assert len(rows) == 128 * 9
    rho = np.array([float(r[4]) for r in rows])
    assert np.all(rho >= 0.0)


def test_reconstruct_reuses_the_spectrum_bases(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, temporal_config(
        weak_harmonics(), n_base=2, points=128, basis="v1"))
    assert run(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0

    def no_second_solve(spec):
        raise AssertionError("reconstruct built the bases a second time")

    monkeypatch.setattr("mws.cli.build_bases", no_second_solve)
    assert run(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "field.csv").read_bytes() \
        == (tmp_path / "a" / "field.csv").read_bytes()
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["outputs"] == ["roots.csv", "poles.csv", "counts.json",
                                   "realisations.json", "field.csv"]


def test_reconstruct_unknown_realisation(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(
        weak_harmonics(), n_base=1, points=128))
    assert run(["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "o"),
                "--realisation", "99"]) == 2


def test_verify_all_passed(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    out = tmp_path / "out"
    assert run(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    verify = json.loads((out / "verify.json").read_text())
    assert verify["all_passed"] is True
    assert [r["name"] for r in verify["reports"]] == \
        ["polynomial-roots", "coupled-matrix-sweep", "refined-grid"]


def test_figure1_anchor_counts(tmp_path):
    cfg_path = write_config(tmp_path, spatial_config(fig_anchor_harmonics()))
    out = tmp_path / "out"
    assert run(["figure1", "--config", cfg_path, "--out", str(out),
                "--samples", "40"]) == 0
    _, asym = read_rows(out / "asymptotes.csv")
    assert len(asym) == 8
    _, inter = read_rows(out / "intersections.csv")
    assert len(inter) == 9
    header, curve = read_rows(out / "curve.csv")
    assert header == ["n", "epsilon", "v_nn", "line"]
    assert len(curve) == 9 * 40   # one batch per pole interval
    # line column is epsilon - eps0, so eps - line must be one constant
    eps = np.array([float(r[1]) for r in curve])
    line = np.array([float(r[3]) for r in curve])
    assert np.allclose(eps - line, (eps - line)[0], atol=1e-9)


def test_figure1_exact_mode_spatial(tmp_path):
    # exact square-root denominators: intersections come from the exact scan
    # and every curve segment ends at or below E
    cfg = spatial_config(fig_anchor_harmonics(), energy=12.0)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(["figure1", "--config", cfg_path, "--out", str(out),
                "--samples", "40", "--mode", "exact"]) == 0
    _, inter = read_rows(out / "intersections.csv")
    spec = build_spec(dict(cfg, modes={"denominator": "exact", "basis": "unperturbed"}))
    bases = build_bases(spec)
    table = build_pole_weight_table(spec, bases, 1)
    want = find_roots_exact(table, float(bases.base.eigenvalues[0])).roots
    assert [float(r[2]) for r in inter] == want.tolist()
    assert len(want) > 0 and np.all(want <= 12.0)
    _, curve = read_rows(out / "curve.csv")
    eps = np.array([float(r[1]) for r in curve])
    below = table.poles[table.poles < 12.0]
    assert len(curve) == 40 * (len(below) + 1)
    assert np.all(eps < 12.0)


def write_curve_per_point(path, spec, per_interval):
    """The figure1 curve as it was written: one scalar vnn_eval per sample."""
    bases = build_bases(spec)
    rows = []
    for n, table in enumerate(build_pole_weight_tables(spec, bases), start=1):
        eps0 = float(bases.base.eigenvalues[n - 1])
        poles = table.poles
        if table.exact_spatial:
            edges = curve_edges(table, eps0)
            segments = [(a, b, b - a) for a, b in zip(edges[:-1], edges[1:])]
        elif len(poles) == 0:
            segments = [(eps0 - 1.0, eps0 + 1.0, 2.0)]
        else:
            margin = max(float(poles[-1] - poles[0]) if len(poles) > 1 else 1.0, 1.0)
            edges = [poles[0] - margin] + list(poles) + [poles[-1] + margin]
            segments = [(a, b, b - a) for a, b in zip(edges[:-1], edges[1:])]
        for a, b, gap in segments:
            delta = 1e-4 * gap
            for eps in np.linspace(a + delta, b - delta, per_interval):
                rows.append([str(n), eps, vnn_eval(table, float(eps)), eps - eps0])
    write_csv_per_cell(path, ["n", "epsilon", "v_nn", "line"], rows)


@pytest.mark.filterwarnings("ignore:the graphical dump")
@pytest.mark.parametrize("name,mode", [("doc_spatial", "approx"), ("doc_spatial", "exact"),
                                       ("doc_temporal", "approx")])
def test_figure1_curve_matches_per_point_writer(tmp_path, name, mode):
    cfg = json.loads((DOC_CONFIGS / f"{name}.json").read_text())
    out = tmp_path / "out"
    assert run(["figure1", "--config", str(DOC_CONFIGS / f"{name}.json"), "--out", str(out),
                "--mode", mode]) == 0
    spec = build_spec(dict(cfg, modes=dict(cfg["modes"], denominator=mode)))
    write_curve_per_point(tmp_path / "want.csv", spec, 200)
    assert (out / "curve.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("mode", ("approx", "exact"))
def test_figure1_fails_like_spectrum(tmp_path, capsys, mode):
    # n' = 6: approx fails the residual gate, exact has a closed channel
    cfg = str(DOC_CONFIGS / "doc_spatial_nprime6.json")
    records = []
    for sub in ("spectrum", "figure1"):
        assert run([sub, "--config", cfg, "--out", str(tmp_path / sub), "--mode", mode]) == 3
        records.append(json.loads(capsys.readouterr().err.strip().split("\n")[-1]))
    assert records[0] == records[1]
    assert records[0]["error"] == "SolverError"
    assert not (tmp_path / "figure1" / "intersections.csv").exists()


@pytest.mark.filterwarnings("ignore:the graphical dump")
@pytest.mark.parametrize("name", ("doc_spatial", "doc_temporal"))
@pytest.mark.parametrize("mode", ("approx", "exact"))
def test_figure1_intersections_are_the_spectrum_roots(tmp_path, name, mode):
    cfg = str(DOC_CONFIGS / f"{name}.json")
    for sub in ("spectrum", "figure1"):
        assert run([sub, "--config", cfg, "--out", str(tmp_path / sub), "--mode", mode]) == 0
    header, roots = read_rows(tmp_path / "spectrum" / "roots.csv")
    assert read_rows(tmp_path / "figure1" / "intersections.csv") == \
        (header[:3], [row[:3] for row in roots])


def test_exact_roots_csv_prints_brackets_and_residuals(tmp_path):
    # exact rows carry the shared loop's bracket and residual: no nan cell,
    # and each bracket holds its root
    cfg = str(DOC_CONFIGS / "doc_spatial.json")
    assert run(["spectrum", "--config", cfg, "--out", str(tmp_path), "--mode", "exact"]) == 0
    header, rows = read_rows(tmp_path / "roots.csv")
    assert header == ["n", "j", "root", "residual", "bracket_lo", "bracket_hi"] and rows
    for row in rows:
        root, residual, lo, hi = map(float, row[2:])
        assert np.all(np.isfinite([root, residual, lo, hi])), row
        assert lo <= root <= hi and hi - lo <= 1e-12 * max(1.0, abs(root)), row


@pytest.mark.parametrize("samples", ("0", "-1"))
@pytest.mark.parametrize("sub,flag", (("figure1", "--samples"), ("reconstruct", "--samples"),
                                      ("kernel", "--stride")), ids=("figure1", "reconstruct", "kernel"))
def test_samples_below_one_is_config_error(tmp_path, capsys, sub, flag, samples):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics(), n_base=1))
    assert run([sub, "--config", cfg_path, "--out", str(tmp_path / "o"),
                flag, samples]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert flag in err["message"]


def test_figure1_multi_state_warns(tmp_path):
    cfg_path = write_config(tmp_path, spatial_config(fig_anchor_harmonics(),
                                                     n_base=2))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="single base state"):
        assert run(["figure1", "--config", cfg_path, "--out", str(out)]) == 0


def test_mode_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, spatial_config(fig_anchor_harmonics()))
    out_a = tmp_path / "a"
    out_e = tmp_path / "e"
    assert run(["spectrum", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert run(["spectrum", "--config", cfg_path, "--out", str(out_e),
                "--mode", "exact"]) == 0
    ma = json.loads((out_a / "manifest.json").read_text())
    me = json.loads((out_e / "manifest.json").read_text())
    assert ma["mode"] == "approx"
    assert me["mode"] == "exact"
    assert (out_a / "poles.csv").read_bytes() != (out_e / "poles.csv").read_bytes()


def test_sweep_distances_shrink(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg_path, "--out", str(out),
                "--param", "perturbation.scale",
                "--values", "1.0,0.5,0.25"]) == 0
    header, rows = read_rows(out / "sweep.csv")
    assert header == ["value", "n", "j", "root", "oracle_distance"]
    by_value = {}
    for r in rows:
        by_value[float(r[0])] = float(r[4])
    assert by_value[1.0] / by_value[0.5] >= 3.0
    assert by_value[0.5] / by_value[0.25] >= 3.0


def test_sweep_requires_param_and_values(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics()))
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o1"),
                "--values", "1.0"]) == 2
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o2"),
                "--param", "perturbation.scale"]) == 2
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o3"),
                "--param", "perturbation.scale", "--values", " , "]) == 2
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o4"),
                "--param", "nonsense.path", "--values", "1.0"]) == 2


def test_sweep_integer_key_takes_integer_values(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics(), points=128))
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg_path, "--out", str(out),
                "--param", "truncation.n_prime", "--values", "1, +2"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert sorted({r[0] for r in rows}) == ["1", "2"]
    # 1.5 is no JSON integer
    assert run(["sweep", "--config", cfg_path, "--out", str(tmp_path / "o2"),
                "--param", "truncation.n_prime", "--values", "1.5"]) == 2


def test_console_entry_subprocess(tmp_path):
    cfg_path = write_config(tmp_path, temporal_config(weak_harmonics(), points=128))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "mws.cli", "spectrum",
         "--config", cfg_path, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "roots.csv").exists()


@pytest.mark.parametrize("sub", ("spectrum", "reconstruct"))
@pytest.mark.parametrize("config", ("doc_spatial.json", "doc_temporal.json"))
def test_one_base_eigensolve_per_run(tmp_path, monkeypatch, sub, config):
    # counts.json takes its level spacing from the basis the spectrum was
    # solved on, not from a second solve of the same eigenproblem
    calls = []
    solve = mws.effpot.solve_base_eigenproblem

    def counted(spec, n_states=None):
        calls.append(n_states)
        return solve(spec, n_states)

    monkeypatch.setattr(mws.effpot, "solve_base_eigenproblem", counted)
    monkeypatch.setattr(mws.spectra, "solve_base_eigenproblem", counted)
    out = tmp_path / "out"
    assert run([sub, "--config", str(DOC_CONFIGS / config), "--out", str(out)]) == 0
    assert calls == [None]
    assert "separation_max_estimate" in json.loads((out / "counts.json").read_text())
