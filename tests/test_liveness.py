"""Every CLI flag and every documented config key changes what a run produces.

The inputs are enumerated from the parser (each flag of each subcommand) and
from docs/configuration.md (its key tables, and each profile kind's keys).
Each input has a witness: two `mws` runs on a small config that differ only
in that input. The runs must differ in exit code or in the bytes of some
artifact other than manifest.json, which records wall time. An input without
a witness fails the coverage test, and so does a witness for an input that
is no longer enumerated, so no flag or documented key can go dead unnoticed.
"""

import argparse
import copy
import json
import re
from pathlib import Path

import pytest

from conftest import fig_anchor_harmonics, gaussian, spatial_config, temporal_config, \
    weak_harmonics
from mws import cli, model

DOC = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"

SPATIAL = spatial_config(fig_anchor_harmonics())      # n_x = 200, N_p = 4, N_s = 1
TEMPORAL = temporal_config(weak_harmonics(), n_base=1)
UNPAIRED = spatial_config(fig_anchor_harmonics()[:1] + [
    {"index": -1, "amplitude": gaussian(0.2, 0.47, 0.22)}])
COSINE = {"kind": "cosine", "amplitude": 0.6, "cycles": 1.0, "phase": 0.0}

# the arguments each subcommand needs to run at all
NEEDS = {"kernel": ("--epsilon", "-30"),
         "sweep": ("--param", "perturbation.scale", "--values", "1,0.5")}
DROP = object()   # with_key: remove the key


def parser_inputs(parser: argparse.ArgumentParser) -> set[str]:
    """'<subcommand> <flag>' for every flag, 'mws <flag>' for top-level ones."""
    found = set()

    def walk(prefix, p):
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, subparser in action.choices.items():
                    walk(name, subparser)
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                found.add(f"{prefix} {action.option_strings[-1]}")

    walk("mws", parser)
    return found


def documented_keys() -> set[str]:
    """Dotted keys of the doc's key tables; '<kind>.<key>' for profile keys."""
    keys, section = set(), None
    for line in DOC.read_text().splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
        elif line.startswith("| `"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            name = cells[0].strip("`")
            if section == "Profile objects":
                keys |= {f"{name}.{k}" for k in re.findall(r"`(\w+)`", cells[1])}
            elif section == "Perturbation":
                keys.add(f"perturbation.{name}")
            elif section == "Top-level keys":
                keys.add(name)
    return keys


def with_key(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def flag(sub, extra, doc=SPATIAL, base=()):
    """Witness: `sub` on `doc` with `base` arguments, then with `extra` added
    (a flag given twice takes its last value)."""
    args = (sub, *NEEDS.get(sub, ()), *base)
    return (args, doc), ((*args, *extra), doc)


def key(path, a, b, doc=SPATIAL, sub="spectrum"):
    """Witness: `sub` on `doc` with the key at `path` set to `a`, then to `b`."""
    args = (sub, *NEEDS.get(sub, ()))
    return (args, with_key(doc, path, a)), (args, with_key(doc, path, b))


def _shared_witnesses():
    out = {}
    for sub in ("basis", "spectrum", "kernel", "reconstruct", "verify", "figure1", "sweep"):
        args = (sub, *NEEDS.get(sub, ()))
        out[f"{sub} --config"] = (args, SPATIAL), (args, with_key(SPATIAL, ("box", "length"), 3.1))
        out[f"{sub} --out"] = (args + ("--out", "a"), SPATIAL), (args + ("--out", "b"), SPATIAL)
        if sub != "basis":
            out[f"{sub} --mode"] = flag(sub, ("--mode", "exact"))
            out[f"{sub} --backend"] = flag(sub, ("--backend", "v1"), doc=TEMPORAL)
    return out


HARMONIC_0 = ("perturbation", "harmonics", 0)
AMPLITUDE_0 = HARMONIC_0 + ("amplitude",)

WITNESSES = {
    **_shared_witnesses(),
    "kernel --epsilon": flag("kernel", ("--epsilon", "-20")),
    "kernel --stride": flag("kernel", ("--stride", "3")),
    "reconstruct --realisation": flag("reconstruct", ("--realisation", "2")),
    # realisation 4's lowest root lies above E = 12
    "reconstruct --allow-evanescent": flag("reconstruct", ("--allow-evanescent",),
                                           base=("--realisation", "4")),
    "reconstruct --samples": flag("reconstruct", ("--samples", "9")),
    "figure1 --samples": flag("figure1", ("--samples", "40")),
    "sweep --param": flag("sweep", ("--param", "energy.total")),
    "sweep --values": flag("sweep", ("--values", "1,0.25")),

    "box.length": key(("box", "length"), 3.14, 3.0),
    "grid.points": key(("grid", "points"), 200, 128),
    "base_potential": key(("base_potential",), SPATIAL["base_potential"], COSINE),
    "perturbation": key(("perturbation",), SPATIAL["perturbation"],
                        TEMPORAL["perturbation"]),
    "energy.total": key(("energy", "total"), 12.0, 14.0),
    "truncation.n_base": key(("truncation", "n_base"), 1, 2),
    "truncation.n_prime": key(("truncation", "n_prime"), 2, 3),
    "modes.denominator": key(("modes", "denominator"), "approx", "exact"),
    "modes.basis": key(("modes", "basis"), "unperturbed", "v1", doc=TEMPORAL),
    "perturbation.kind": key(("perturbation", "kind"), "spatial", "temporal"),
    "perturbation.harmonics": key(("perturbation", "harmonics"),
                                  SPATIAL["perturbation"]["harmonics"], []),
    "perturbation.harmonics[].index": key(HARMONIC_0 + ("index",), 1, 3),
    "perturbation.harmonics[].amplitude": key(AMPLITUDE_0, gaussian(0.31, 0.47, 0.22),
                                              gaussian(0.31, 0.3, 0.22)),
    "perturbation.scale": key(("perturbation", "scale"), 1.0, 0.5),
    "perturbation.real": key(("perturbation", "real"), False, True, doc=UNPAIRED),
    "perturbation.period": key(("perturbation", "period"), 6.283185307179586, 9.0),
    "perturbation.bloch_wavenumber": key(("perturbation", "bloch_wavenumber"), 0.0, 0.5),
    "perturbation.angular_frequency": key(("perturbation", "angular_frequency"), 5.0, 6.0,
                                          doc=TEMPORAL),
    "constant.value": key(("base_potential", "value"), 0.0, 0.5, sub="basis"),
    "cosine.amplitude": key(("base_potential",), COSINE, dict(COSINE, amplitude=0.3),
                            sub="basis"),
    "cosine.cycles": key(("base_potential",), COSINE, dict(COSINE, cycles=2.0), sub="basis"),
    "cosine.phase": key(("base_potential",), COSINE, dict(COSINE, phase=0.5), sub="basis"),
    "gaussian.height": key(AMPLITUDE_0 + ("height",), 0.31, 0.4),
    "gaussian.center": key(AMPLITUDE_0 + ("center",), 1.476, 1.3),
    "gaussian.width": key(AMPLITUDE_0 + ("width",), 0.691, DROP),
    "samples.values": key(("base_potential",), {"kind": "samples", "values": [0.0] * 200},
                          {"kind": "samples", "values": [0.0] * 100 + [0.5] * 100},
                          sub="basis"),
}


def coverage_gaps():
    """(enumerated inputs without a witness, witnesses of inputs not enumerated)."""
    inputs = parser_inputs(cli._build_parser()) | documented_keys()
    return inputs - set(WITNESSES), set(WITNESSES) - inputs


def outcome(root: Path, args, doc):
    """Exit code and the bytes of every artifact under `root` but manifest.json."""
    root.mkdir()
    config = root.parent / f"{root.name}.json"
    config.write_text(json.dumps(doc))
    args = list(args)
    if "--out" in args:
        i = args.index("--out") + 1
        args[i] = str(root / args[i])
    else:
        args += ["--out", str(root / "out")]
    code = cli.main(args + ["--config", str(config)])
    return code, {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                  if p.is_file() and p.name != "manifest.json"}


def test_every_input_has_a_witness():
    assert coverage_gaps() == (set(), set())


def test_documented_keys_are_the_keys_build_spec_accepts():
    accepted = {f"{section}.{k}" for section, keys in model._SECTION_KEYS.items()
                for k in keys}
    accepted |= set(model._TOP_KEYS) - set(model._SECTION_KEYS)
    accepted |= {f"perturbation.{k}" for keys in model._PERTURBATION_KEYS.values()
                 for k in keys}
    accepted |= {f"perturbation.harmonics[].{k}" for k in model._HARMONIC_KEYS}
    accepted |= {f"{kind}.{k}" for kind, keys in model._PROFILE_KEYS.items() for k in keys}
    assert accepted == documented_keys()


def test_coverage_check_catches_an_unwitnessed_flag(monkeypatch):
    build = cli._build_parser

    def with_dummy():
        parser = build()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub.choices["spectrum"].add_argument("--dummy")
        return parser

    monkeypatch.setattr(cli, "_build_parser", with_dummy)
    assert coverage_gaps()[0] == {"spectrum --dummy"}


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_input_changes_the_outcome(tmp_path, name):
    (args_a, doc_a), (args_b, doc_b) = WITNESSES[name]
    a = outcome(tmp_path / "a", args_a, doc_a)
    b = outcome(tmp_path / "b", args_b, doc_b)
    assert a != b, f"{name}: both runs exit {a[0]} and write the same artifacts"
