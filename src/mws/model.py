"""Problem definition: geometry, potentials, perturbation harmonics, channels.

Dimensionless units throughout: hbar = m = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from mws.errors import ConfigError

HBAR = 1.0
MASS = 1.0

DENOMINATOR_MODES = ("approx", "exact")
BASIS_BACKENDS = ("unperturbed", "v1")

# Every key docs/configuration.md documents; build_spec rejects any other, so a
# misspelt optional key cannot silently fall back to its default.
_SECTION_KEYS = {
    "box": ("length",),
    "grid": ("points",),
    "energy": ("total",),
    "truncation": ("n_base", "n_prime"),
    "modes": ("denominator", "basis"),
}
_TOP_KEYS = tuple(_SECTION_KEYS) + ("base_potential", "perturbation")
_PERTURBATION_KEYS = {
    "spatial": ("kind", "harmonics", "scale", "real", "period", "bloch_wavenumber"),
    "temporal": ("kind", "harmonics", "scale", "real", "angular_frequency"),
}
_HARMONIC_KEYS = ("index", "amplitude")
_PROFILE_KEYS = {
    "constant": ("value",),
    "cosine": ("amplitude", "cycles", "phase"),
    "gaussian": ("height", "center", "width"),
    "samples": ("values",),
}


@dataclass(frozen=True)
class SpatialPeriodic:
    """Perturbation periodic in a second spatial coordinate."""

    period: float            # d_p


@dataclass(frozen=True)
class TimePeriodic:
    """Perturbation periodic in time."""

    angular_frequency: float  # omega_p


@dataclass(frozen=True, eq=False)
class Harmonic:
    index: int               # g (spatial) or k (temporal); never 0
    amplitude: np.ndarray    # complex samples on the grid

    def __post_init__(self):
        self.amplitude.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Harmonic):
            return NotImplemented
        return self.index == other.index and np.array_equal(self.amplitude, other.amplitude)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Validated, immutable problem definition."""

    box_length: float
    grid_points: int
    base_potential: np.ndarray          # real samples, length grid_points
    perturbation: SpatialPeriodic | TimePeriodic
    harmonics: tuple[Harmonic, ...]     # sorted by index
    total_energy: float
    n_base: int                         # N_s
    n_prime: int                        # N_p'
    denominator_mode: str               # "approx" | "exact"
    basis_backend: str                  # "unperturbed" | "v1"
    declared_real: bool = False
    grid: np.ndarray = field(init=False, repr=False)  # read-only, built once

    def __post_init__(self):
        self.base_potential.setflags(write=False)
        grid = np.linspace(0.0, self.box_length, self.grid_points)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @property
    def grid_step(self) -> float:
        return self.box_length / (self.grid_points - 1)

    @property
    def is_spatial(self) -> bool:
        return isinstance(self.perturbation, SpatialPeriodic)

    @property
    def exact_spatial(self) -> bool:
        """Square-root channel denominators: exact mode on a spatial drive.
        Time-periodic denominators are linear in both modes."""
        return self.denominator_mode == "exact" and self.is_spatial

    @property
    def n_harmonics(self) -> int:
        """N_p, the number of retained harmonics."""
        return len(self.harmonics)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(h.index for h in self.harmonics)

    def harmonic(self, index: int) -> Harmonic:
        for h in self.harmonics:
            if h.index == index:
                return h
        raise KeyError(f"no harmonic with index {index}")

    def __eq__(self, other):
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return (
            self.box_length == other.box_length
            and self.grid_points == other.grid_points
            and np.array_equal(self.base_potential, other.base_potential)
            and self.perturbation == other.perturbation
            and self.harmonics == other.harmonics
            and self.total_energy == other.total_energy
            and self.n_base == other.n_base
            and self.n_prime == other.n_prime
            and self.denominator_mode == other.denominator_mode
            and self.basis_backend == other.basis_backend
            and self.declared_real == other.declared_real
        )


@dataclass(frozen=True)
class ChannelEnergy:
    """Kinetic bookkeeping for one perturbation channel."""

    index: int
    epsilon_p: float          # g_p^2/2 spatial; 0 temporal
    cos_alpha: float          # sign of the channel index (+1 or -1)
    wavenumber: float         # g_p = 2*pi*g/d_p spatial; omega_p*k temporal


def _as_complex_scalar(value: Any, where: str) -> complex:
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if not (isinstance(re, (int, float)) and isinstance(im, (int, float))
            and bool not in (type(re), type(im))):
        raise ConfigError(f"{where}: expected a number or a [re, im] pair, got {value!r}")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return complex(re, im)   # complex(x, 0.0) is complex(x) bit for bit


def sample_profile(doc: Mapping[str, Any], x: np.ndarray, where: str,
                   real_only: bool = False) -> np.ndarray:
    """Sample a named analytic profile (or literal samples) on the grid."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigError(
            f"{where}.kind must be one of constant/cosine/gaussian/samples, got {kind!r}"
        )
    _known_keys(doc, where, ("kind",) + _PROFILE_KEYS[kind])
    length = x[-1] - x[0]
    if kind == "constant":
        c = _as_complex_scalar(doc.get("value", 0.0), f"{where}.value")
        out = np.full(x.shape, c, dtype=complex)
    elif kind == "cosine":
        a = _as_complex_scalar(doc.get("amplitude", 1.0), f"{where}.amplitude")
        cycles = _get(doc, "cycles", where, float, 1.0)
        phase = _get(doc, "phase", where, float, 0.0)
        out = a * np.cos(2.0 * np.pi * cycles * x / length + phase)
    elif kind == "gaussian":
        h = _as_complex_scalar(doc.get("height", 1.0), f"{where}.height")
        center = _get(doc, "center", where, float, 0.5 * length)
        width = _get(doc, "width", where, float, 0.1 * length)
        if width <= 0:
            raise ConfigError(f"{where}.width must be > 0")
        out = h * np.exp(-((x - center) ** 2) / (2.0 * width * width))
    else:
        values = doc.get("values")
        if not isinstance(values, Sequence) or len(values) != len(x):
            raise ConfigError(
                f"{where}.values must be a list of length {len(x)} (the grid size)"
            )
        out = np.array([_as_complex_scalar(v, f"{where}.values[{i}]")
                        for i, v in enumerate(values)])
    if real_only:
        if np.any(out.imag != 0.0):
            raise ConfigError(f"{where}: profile must be real")
        return np.ascontiguousarray(out.real)
    return np.ascontiguousarray(out)


# documented JSON type -> (its name, the Python types that hold it); no bool is a number
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", int), bool: ("a bool", bool)}


def _get(doc: Mapping[str, Any], key: str, where: str, kind: type | None = None,
         default: Any = None) -> Any:
    """doc[key], or `default` when the key is absent (a ConfigError when
    `default` is None). With `kind` float, int or bool the value must have
    that JSON type, and a float must be finite, else a ConfigError names its
    dotted path; it comes back as `kind`."""
    if key not in doc:
        if default is None:
            raise ConfigError(f"missing required key {where}.{key}" if where else
                              f"missing required key {key}")
        return default
    value = doc[key]
    if kind is None:
        return value
    name, types = _JSON_TYPES[kind]
    if isinstance(value, types) and (type(value) is bool) is (kind is bool):
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
        return kind(value)
    raise ConfigError(f"{where}.{key} must be {name}, got {value!r}")


def _known_keys(doc: Any, where: str, known: Sequence[str]) -> Mapping[str, Any]:
    """`doc` itself, once it is an object holding no key outside `known`."""
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{where or 'config root'} must be an object")
    unknown = [f"{where}.{key}" if where else str(key) for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)} "
                          f"(docs/configuration.md lists every key)")
    return doc


def _section(raw: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    return _known_keys(_get(raw, key, ""), key, _SECTION_KEYS[key])


def build_spec(raw: Mapping[str, Any]) -> SystemSpec:
    """Validate a raw config document and produce a SystemSpec.

    Raises ConfigError naming the violated rule on any invalid input, and
    naming the dotted path of any key docs/configuration.md does not list.
    """
    _known_keys(raw, "", _TOP_KEYS)
    box = _section(raw, "box")
    grid = _section(raw, "grid")
    length = _get(box, "length", "box", float)
    if not (length > 0):
        raise ConfigError("box.length must be > 0")
    n_x = _get(grid, "points", "grid", int)

    trunc = _section(raw, "truncation")
    n_base = _get(trunc, "n_base", "truncation", int)
    n_prime = _get(trunc, "n_prime", "truncation", int)
    if n_base < 1:
        raise ConfigError("truncation.n_base must be >= 1")
    if n_prime < 1:
        raise ConfigError("truncation.n_prime must be >= 1")
    if n_x < max(64, 8 * n_base):
        raise ConfigError(
            f"grid.points must be >= max(64, 8*n_base) = {max(64, 8 * n_base)}, got {n_x}"
        )

    x = np.linspace(0.0, length, n_x)
    v0 = sample_profile(_get(raw, "base_potential", ""), x, "base_potential",
                        real_only=True)

    pert = _get(raw, "perturbation", "")
    kind = pert.get("kind") if isinstance(pert, Mapping) else None
    if not isinstance(kind, str) or kind not in _PERTURBATION_KEYS:
        raise ConfigError(f"perturbation.kind must be 'spatial' or 'temporal', got {kind!r}")
    _known_keys(pert, "perturbation", _PERTURBATION_KEYS[kind])
    if kind == "spatial":
        d_p = _get(pert, "period", "perturbation", float)
        if not (d_p > 0):
            raise ConfigError("perturbation.period must be > 0")
        if _get(pert, "bloch_wavenumber", "perturbation", float, 0.0) != 0.0:
            raise ConfigError("perturbation.bloch_wavenumber must be 0: the reconstructed "
                              "field takes its wavenumber from each root")
        perturbation: SpatialPeriodic | TimePeriodic = SpatialPeriodic(d_p)
    else:
        omega = _get(pert, "angular_frequency", "perturbation", float)
        if not (omega > 0):
            raise ConfigError("perturbation.angular_frequency must be > 0")
        perturbation = TimePeriodic(omega)

    scale = _get(pert, "scale", "perturbation", float, 1.0)
    raw_harmonics = pert.get("harmonics", [])
    if not isinstance(raw_harmonics, Sequence):
        raise ConfigError("perturbation.harmonics must be a list")
    seen: set[int] = set()
    harmonics = []
    for i, hdoc in enumerate(raw_harmonics):
        where = f"perturbation.harmonics[{i}]"
        idx = _get(_known_keys(hdoc, where, _HARMONIC_KEYS), "index", where, int)
        if idx == 0:
            raise ConfigError(f"{where}: zero harmonic index is forbidden")
        if idx in seen:
            raise ConfigError(f"{where}: duplicate harmonic index {idx}")
        seen.add(idx)
        amp = sample_profile(_get(hdoc, "amplitude", where), x, f"{where}.amplitude")
        harmonics.append(Harmonic(idx, scale * amp))
    harmonics.sort(key=lambda h: h.index)

    energy = _get(_section(raw, "energy"), "total", "energy", float)

    modes = _known_keys(raw.get("modes", {}), "modes", _SECTION_KEYS["modes"])
    denom = modes.get("denominator", "approx")
    if denom not in DENOMINATOR_MODES:
        raise ConfigError(f"modes.denominator must be one of {DENOMINATOR_MODES}, got {denom!r}")
    backend = modes.get("basis", "unperturbed")
    if backend not in BASIS_BACKENDS:
        raise ConfigError(f"modes.basis must be one of {BASIS_BACKENDS}, got {backend!r}")
    if backend == "v1" and kind != "temporal":
        raise ConfigError("modes.basis 'v1' requires perturbation.kind 'temporal'")

    declared_real = _get(pert, "real", "perturbation", bool, False)
    spec = SystemSpec(
        box_length=length,
        grid_points=n_x,
        base_potential=v0,
        perturbation=perturbation,
        harmonics=tuple(harmonics),
        total_energy=energy,
        n_base=n_base,
        n_prime=n_prime,
        denominator_mode=denom,
        basis_backend=backend,
        declared_real=declared_real,
    )

    if declared_real:
        _check_real_pairing(spec)
    if denom == "approx" and spec.is_spatial and harmonics:
        kinetic = max(0.5 * ch.wavenumber ** 2 for ch in channel_energies(spec))
        if energy <= kinetic:
            warnings.warn(
                "total energy does not dominate the channel kinetic offsets; "
                "the approximate denominator mode may be inaccurate",
                stacklevel=2,
            )
    return spec


def _check_real_pairing(spec: SystemSpec) -> None:
    by_index = {h.index: h for h in spec.harmonics}
    for h in spec.harmonics:
        partner = by_index.get(-h.index)
        if partner is None:
            raise ConfigError(
                f"perturbation declared real but harmonic {-h.index} is missing "
                f"(pair of {h.index})"
            )
        if not np.array_equal(partner.amplitude, np.conjugate(h.amplitude)):
            raise ConfigError(
                f"perturbation declared real but amplitude of harmonic {-h.index} "
                f"is not the conjugate of harmonic {h.index}"
            )


def channel_energies(spec: SystemSpec) -> list[ChannelEnergy]:
    """One ChannelEnergy per harmonic, in index order."""
    out = []
    for h in spec.harmonics:
        if spec.is_spatial:
            p: SpatialPeriodic = spec.perturbation
            g_p = 2.0 * np.pi * h.index / p.period
            eps_p = HBAR * HBAR * g_p * g_p / (2.0 * MASS)
            out.append(ChannelEnergy(h.index, eps_p, 1.0 if h.index > 0 else -1.0, g_p))
        else:
            t: TimePeriodic = spec.perturbation
            out.append(ChannelEnergy(h.index, 0.0, 1.0 if h.index > 0 else -1.0,
                                     t.angular_frequency * h.index))
    return out


def scale_amplitudes(spec: SystemSpec, factor: float) -> SystemSpec:
    """A copy of the spec with every harmonic amplitude multiplied by factor."""
    scaled = tuple(Harmonic(h.index, factor * h.amplitude) for h in spec.harmonics)
    return replace(spec, harmonics=scaled)


def _profile_doc(samples: np.ndarray) -> dict[str, Any]:
    if np.iscomplexobj(samples):
        values = [[float(v.real), float(v.imag)] for v in samples]
    else:
        values = [float(v) for v in samples]
    return {"kind": "samples", "values": values}


def to_document(spec: SystemSpec) -> dict[str, Any]:
    """Serialize back to a config document; build_spec round-trips it."""
    if spec.is_spatial:
        p: SpatialPeriodic = spec.perturbation
        pert: dict[str, Any] = {"kind": "spatial", "period": p.period}
    else:
        t: TimePeriodic = spec.perturbation
        pert = {"kind": "temporal", "angular_frequency": t.angular_frequency}
    pert["scale"] = 1.0
    pert["real"] = spec.declared_real
    pert["harmonics"] = [
        {"index": h.index, "amplitude": _profile_doc(h.amplitude)}
        for h in spec.harmonics
    ]
    return {
        "box": {"length": spec.box_length},
        "grid": {"points": spec.grid_points},
        "base_potential": _profile_doc(spec.base_potential),
        "perturbation": pert,
        "energy": {"total": spec.total_energy},
        "truncation": {"n_base": spec.n_base, "n_prime": spec.n_prime},
        "modes": {"denominator": spec.denominator_mode, "basis": spec.basis_backend},
    }
