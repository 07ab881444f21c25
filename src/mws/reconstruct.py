"""Wavefunction assembly: channel components, total field, density.

Each base state n carries its eigenvalue eps_sn; its channel components are
linear in the harmonic amplitudes and inherit the mode denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from mws.effpot import ChannelBases, channel_terms
from mws.errors import SolverError
from mws.model import HBAR, MASS, SystemSpec, channel_energies


@dataclass(frozen=True, eq=False)
class WaveField:
    """Sampled total wavefunction over (x, r_p) or (x, t) and its density."""

    x: np.ndarray             # spatial grid, length n_x
    second_axis: np.ndarray   # r_p over one period, or t over one period
    axis_kind: str            # "r_p" | "t"
    psi: np.ndarray           # complex, shape (n_x, len(second_axis))
    rho: np.ndarray           # |psi|^2, same shape
    coefficients: np.ndarray  # c_n actually used
    roots_by_n: dict[int, float]
    evanescent: tuple[int, ...]  # flagged base states (spatial mode)

    def __post_init__(self):
        for a in (self.x, self.second_axis, self.psi, self.rho, self.coefficients):
            a.setflags(write=False)


def component_functions(spec: SystemSpec, bases: ChannelBases, root: float,
                        n: int) -> dict[int, np.ndarray]:
    """Channel components psi_{g n}(x) at the eigenvalue `root` (one per harmonic)."""
    if not (1 <= n <= bases.base.n_states):
        raise IndexError(f"base state {n} out of range 1..{bases.base.n_states}")
    terms = channel_terms(spec, bases)
    coeff = terms.couplings[:, n - 1] / terms.denominators(root)
    return {h.index: coeff[terms.channel == h.index] @ terms.psi[terms.channel == h.index]
            for h in spec.harmonics}


def bloch_wavenumber(total_energy: float, root: float) -> complex:
    """K_{p n} with eps_sn = E - K^2/2; imaginary for evanescent states."""
    arg = 2.0 * MASS * (total_energy - root) / (HBAR * HBAR)
    if arg >= 0.0:
        return complex(np.sqrt(arg))
    return 1j * np.sqrt(-arg)


def default_coefficients(bases: ChannelBases, ns: Sequence[int],
                         initial_profile: np.ndarray | None = None) -> np.ndarray:
    """Projection coefficients of an initial profile; ground state if none given."""
    if initial_profile is None:
        c = np.zeros(len(ns), dtype=complex)
        c[0] = 1.0
        return c
    w = bases.base.quad_weights
    return np.array([
        np.sum(w * bases.base.eigenfunctions[n - 1] * np.asarray(initial_profile))
        for n in ns
    ], dtype=complex)


def assemble_wavefunction(spec: SystemSpec, bases: ChannelBases,
                          roots_by_n: Mapping[int, float],
                          coefficients: np.ndarray | None = None,
                          n_second: int = 65,
                          allow_evanescent: bool = False) -> WaveField:
    """Total field for one realisation's roots (one eigenvalue per base state).

    Spatial mode attaches exp(i K_{p n} r_p) per state and exp(i g_p r_p) per
    channel; temporal mode attaches exp(-i eps_sn t) and exp(i omega k t).
    """
    ns = sorted(roots_by_n)
    if not ns:
        raise SolverError("need at least one (base state, root) pair")
    for n in ns:
        if not (1 <= n <= bases.base.n_states):
            raise IndexError(f"base state {n} out of range")
    if coefficients is None:
        coefficients = default_coefficients(bases, ns)
    c = np.asarray(coefficients, dtype=complex)
    if c.shape != (len(ns),):
        raise ValueError(f"need exactly {len(ns)} coefficients")

    evanescent: list[int] = []
    if spec.is_spatial:
        for n in ns:
            if spec.total_energy - roots_by_n[n] < 0.0:
                evanescent.append(n)
        if evanescent and not allow_evanescent:
            raise SolverError(
                f"evanescent base states {evanescent} (root above E); "
                f"pass allow_evanescent=True to assemble anyway"
            )
        period = spec.perturbation.period
        axis_kind = "r_p"
    else:
        period = 2.0 * np.pi / spec.perturbation.angular_frequency
        axis_kind = "t"
    y = np.linspace(0.0, period, n_second)

    chans = {ch.index: ch for ch in channel_energies(spec)}
    psi = np.zeros((spec.grid_points, n_second), dtype=complex)
    for c_n, n in zip(c, ns):
        if c_n == 0.0:
            continue
        root = float(roots_by_n[n])
        comps = component_functions(spec, bases, root, n)
        inner = bases.base.eigenfunctions[n - 1].astype(complex)[:, None] \
            * np.ones(n_second)
        for g, comp in comps.items():
            # ChannelEnergy.wavenumber is g_p (spatial) or omega*k (temporal)
            phase = np.exp(1j * chans[g].wavenumber * y)
            inner = inner + comp[:, None] * phase[None, :]
        if spec.is_spatial:
            carrier = np.exp(1j * bloch_wavenumber(spec.total_energy, root) * y)
        else:
            carrier = np.exp(-1j * root * y / HBAR)
        psi += c_n * inner * carrier[None, :]

    rho = np.abs(psi) ** 2
    return WaveField(
        x=spec.grid.copy(),
        second_axis=y,
        axis_kind=axis_kind,
        psi=psi,
        rho=rho,
        coefficients=c,
        roots_by_n={int(n): float(roots_by_n[n]) for n in ns},
        evanescent=tuple(evanescent),
    )
