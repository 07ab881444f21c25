"""Seeded operation lists for the four benchmark workloads.

A workload's op list is a pure function of the seed, so the same seed always
yields the same operations; a run repeats that list pass after pass. The
first op of the list is the set-up probe's warm-up op.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BOX = float(np.pi)
CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Op:
    """One timed operation: an in-process API call chain or one CLI run."""

    label: str
    sizes: dict
    doc: dict | None = None          # config for in-process ops
    argv: tuple[str, ...] = ()       # CLI arguments after `python -m mws.cli`
    group: bool = False              # api-sweep: also group realisations

    def key(self) -> str:
        """Canonical text identity, used to compare op lists across runs."""
        return json.dumps([self.label, self.sizes, self.doc, list(self.argv),
                           self.group], sort_keys=True)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _harmonics(rng: np.random.Generator, n_p: int) -> list[dict]:
    """n_p/2 conjugate pairs of real, off-centre gaussian amplitudes."""
    out = []
    for g in range(1, n_p // 2 + 1):
        side = 1.0 if rng.random() < 0.5 else -1.0
        amp = {
            "kind": "gaussian",
            "height": float(rng.uniform(0.2, 0.8)),
            "center": BOX * (0.5 + side * float(rng.uniform(0.05, 0.2))),
            "width": BOX * float(rng.uniform(0.15, 0.25)),
        }
        out.append({"index": g, "amplitude": amp})
        out.append({"index": -g, "amplitude": dict(amp)})
    return out


def config(rng: np.random.Generator, drive: str, n_p: int, n_prime: int,
           n_s: int, n_x: int, mode: str = "approx", basis: str = "unperturbed",
           energy: float | None = None, omega: float | None = None) -> dict:
    """A seeded config document; E dominates the channel offsets unless given."""
    harmonics = _harmonics(rng, n_p)
    if drive == "temporal":
        if omega is None:
            omega = float(rng.uniform(3.0, 7.0))
        pert = {"kind": "temporal", "angular_frequency": omega,
                "real": True, "harmonics": harmonics}
        e = float(rng.uniform(6.0, 10.0))
    else:
        period = float(rng.uniform(5.5, 7.5))
        kinetic = 0.5 * (2.0 * np.pi * (n_p // 2) / period) ** 2
        pert = {"kind": "spatial", "period": period, "bloch_wavenumber": 0.0,
                "real": True, "harmonics": harmonics}
        e = kinetic + float(rng.uniform(4.0, 10.0))
    if energy is not None:
        e = energy
    return {
        "box": {"length": BOX},
        "grid": {"points": n_x},
        "base_potential": {"kind": "constant", "value": 0.0},
        "perturbation": pert,
        "energy": {"total": e},
        "truncation": {"n_base": n_s, "n_prime": n_prime},
        "modes": {"denominator": mode, "basis": basis},
    }


def _sizes(drive, n_p, n_prime, n_s, n_x, mode, basis) -> dict:
    return {"drive": drive, "n_p": n_p, "n_prime": n_prime, "n_s": n_s,
            "n_x": n_x, "mode": mode, "basis": basis}


def _api_op(prefix: str, doc: dict, suffix: str = "", group: bool = False) -> Op:
    """An in-process op; its label names the sizes but no seeded value."""
    t = doc["truncation"]
    sizes = _sizes(doc["perturbation"]["kind"], len(doc["perturbation"]["harmonics"]),
                   t["n_prime"], t["n_base"], doc["grid"]["points"],
                   doc["modes"]["denominator"], doc["modes"]["basis"])
    label = (f"{prefix} {sizes['drive']} Np={sizes['n_p']} n'={sizes['n_prime']} "
             f"Ns={sizes['n_s']} nx={sizes['n_x']} {sizes['mode']}/{sizes['basis']}"
             f"{suffix}")
    return Op(label=label, sizes=sizes, doc=doc, group=group)


# -- api-sweep ---------------------------------------------------------------

API_SIZES = (2, 4, 8), (1, 2, 4), (1, 2, 4)          # N_p, n', N_s
API_DRIVES = (("temporal", "unperturbed"), ("temporal", "v1"),
              ("spatial", "unperturbed"))
API_GRIDS = (200, 256, 400)
API_SCALES = (1.0, 0.5, 0.25)


def api_sweep_ops(seed: int) -> list[Op]:
    """Every (N_p, n', N_s, drive, basis) once, so the list covers the region
    evenly; the grid size and the amplitudes are drawn from the seed."""
    rng = _rng(seed, 1)
    ops = []
    for n_p, n_prime, n_s, (drive, basis) in itertools.product(*API_SIZES, API_DRIVES):
        n_x = int(rng.choice(API_GRIDS))
        doc = config(rng, drive, n_p, n_prime, n_s, n_x, basis=basis)
        for scale in API_SCALES:
            scaled = json.loads(json.dumps(doc))
            scaled["perturbation"]["scale"] = scale
            ops.append(_api_op("api", scaled, f" scale={scale}", group=True))
    return ops


# -- ladder ------------------------------------------------------------------

LADDER_NP = (2, 4, 8, 16)
LADDER_NPRIME = (1, 2, 4, 8, 16)
LADDER_NS = (1, 4, 16)


def ladder_ops(seed: int) -> list[Op]:
    """Only the amplitudes are seeded: the drive frequency sets the pole
    spacing, which the solver's cost follows, so it stays that of the
    documented temporal example."""
    rng = _rng(seed, 2)
    ops = []
    for n_p in LADDER_NP:
        for n_prime in LADDER_NPRIME:
            for n_s in LADDER_NS:
                n_x = max(200, 50 * n_prime)
                ops.append(_api_op("ladder", config(rng, "temporal", n_p, n_prime,
                                                    n_s, n_x, energy=8.0, omega=5.0)))
    return ops


# -- exact-scan --------------------------------------------------------------

EXACT_NP = (2, 4)
EXACT_NPRIME = (1, 2, 4, 6)
EXACT_NS = (1, 2)
EXACT_ENERGY = (8.0, 20.0)
EXACT_STRATA = 6


def exact_scan_ops(seed: int) -> list[Op]:
    """Each (N_p, n', N_s) cell at one seeded energy in each of EXACT_STRATA
    equal slices of EXACT_ENERGY, so every list spans the whole range and
    two seeds differ in the draws, not in how much of the range they cover."""
    rng = _rng(seed, 3)
    lo, hi = EXACT_ENERGY
    width = (hi - lo) / EXACT_STRATA
    ops = []
    for n_p in EXACT_NP:
        for n_prime in EXACT_NPRIME:
            for n_s in EXACT_NS:
                for j in range(EXACT_STRATA):
                    energy = lo + width * (j + float(rng.random()))
                    op = _api_op("exact", config(rng, "spatial", n_p, n_prime, n_s,
                                                 200, mode="exact", energy=energy))
                    ops.append(Op(op.label, dict(op.sizes, energy=energy), op.doc))
    return ops


# -- cli-docs ----------------------------------------------------------------
# configs/doc_spatial.json and configs/doc_temporal.json are the two annotated
# examples of docs/configuration.md; doc_spatial_nprime6.json is the spatial
# one with n' = 6, where the solver fails today.

CLI_SUBCOMMANDS = (
    ("spectrum",),
    ("reconstruct",),
    ("figure1",),
    ("verify",),
    ("basis",),
    ("kernel", "--epsilon", "-30"),
    ("sweep", "--param", "perturbation.scale", "--values", "1,0.5,0.25"),
)


def _cli_op(config_name: str, args: tuple[str, ...]) -> Op:
    path = CONFIG_DIR / f"{config_name}.json"
    doc = json.loads(path.read_text())
    t = doc["truncation"]
    mode = doc["modes"]["denominator"]
    if "--mode" in args:
        mode = args[args.index("--mode") + 1]
    sizes = _sizes(doc["perturbation"]["kind"], len(doc["perturbation"]["harmonics"]),
                   t["n_prime"], t["n_base"], doc["grid"]["points"], mode,
                   doc["modes"]["basis"])
    return Op(label=f"cli {' '.join(args)} [{config_name}]", sizes=sizes,
              argv=args + ("--config", str(path)))


def cli_docs_fixed() -> list[Op]:
    """The fixed 16 ops: every subcommand on both doc configs, plus n'=6."""
    ops = [_cli_op(name, sub) for name in ("doc_spatial", "doc_temporal")
           for sub in CLI_SUBCOMMANDS]
    ops.append(_cli_op("doc_spatial_nprime6", ("spectrum", "--mode", "approx")))
    ops.append(_cli_op("doc_spatial_nprime6", ("spectrum", "--mode", "exact")))
    return ops


def cli_docs_ops(seed: int) -> list[Op]:
    """The seed permutes every op but the first, which stays the warm-up op."""
    ops = cli_docs_fixed()
    order = _rng(seed, 4).permutation(len(ops) - 1) + 1
    return [ops[0]] + [ops[i] for i in order]


OPS = {
    "cli-docs": cli_docs_ops,
    "api-sweep": api_sweep_ops,
    "ladder": ladder_ops,
    "exact-scan": exact_scan_ops,
}
