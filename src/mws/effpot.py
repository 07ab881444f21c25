"""Effective-potential machinery: pole/weight tables, nonlocal kernel, action.

The channel-elimination step turns the coupled problem into an
energy-dependent diagonal function V_nn(eps) (a sum of simple poles in the
approximate regime) plus a nonlocal integral kernel; both live here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from mws import _kernels
from mws.errors import PoleProximityError, SolverError, UnsupportedModeError
from mws.eigenbasis import EigenBasis, matrix_element, solve_base_eigenproblem, \
    solve_v1_eigenproblem
from mws.model import ChannelEnergy, SystemSpec, channel_energies


@dataclass(frozen=True)
class ChannelBases:
    """Basis for the retained base states plus one basis per channel."""

    base: EigenBasis
    channels: Mapping[int, EigenBasis]  # keyed by harmonic index


def build_bases(spec: SystemSpec, jobs: int = 1) -> ChannelBases:
    """Solve the eigenproblems the spec's basis backend calls for.

    The "unperturbed" backend shares one basis across all channels; the "v1"
    backend diagonalizes a separate potential per excluded harmonic.
    """
    base = solve_base_eigenproblem(spec)
    if spec.basis_backend == "unperturbed":
        channels = {h.index: base for h in spec.harmonics}
        return ChannelBases(base=base, channels=channels)

    indices = [h.index for h in spec.harmonics]
    if jobs > 1 and len(indices) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(solve_v1_eigenproblem, spec, k) for k in indices]
            solved = [f.result() for f in futures]  # gathered in index order
    else:
        solved = [solve_v1_eigenproblem(spec, k) for k in indices]
    return ChannelBases(base=base, channels=dict(zip(indices, solved)))


@dataclass(frozen=True)
class PoleMember:
    """One (channel, n') contribution, kept through merging for exact mode."""

    channel: int
    n_prime: int
    weight: float
    eps0_aux: float   # channel-basis eigenvalue the denominator is built from
    eps_p: float
    cos_alpha: float


@dataclass(frozen=True)
class PoleEntry:
    pole: float
    weight: float                      # sum of member weights
    members: tuple[PoleMember, ...]

    @property
    def labels(self) -> tuple[tuple[int, int], ...]:
        return tuple((m.channel, m.n_prime) for m in self.members)


@dataclass(frozen=True, eq=False)
class PoleWeightTable:
    """Poles and weights defining V_nn(eps) for one base state."""

    base_state: int                    # n, 1-based
    entries: tuple[PoleEntry, ...]     # sorted ascending by pole
    merge_tol: float
    mode: str                          # "approx" | "exact"
    total_energy: float
    spatial: bool
    poles: np.ndarray = field(init=False, repr=False)    # read-only, from entries
    weights: np.ndarray = field(init=False, repr=False)  # read-only, from entries

    def __post_init__(self) -> None:
        # built once: V_nn evaluation reads both on every call
        for name, values in (("poles", [e.pole for e in self.entries]),
                             ("weights", [e.weight for e in self.entries])):
            arr = np.array(values)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def proximity_tol(self) -> float:
        # merge_tol with a unit floor, for "too close to a pole" checks
        return max(self.merge_tol, 1e-9)


def pole_position(spec: SystemSpec, channel: ChannelEnergy, eps0_aux: float,
                  mode: str | None = None) -> float:
    """Singularity position for one (channel, auxiliary-eigenvalue) term."""
    if mode is None:
        mode = spec.denominator_mode
    if not spec.is_spatial:
        # linear denominator: same position in both modes
        return eps0_aux + channel.wavenumber
    eps_p = channel.epsilon_p
    e = spec.total_energy
    if mode == "approx":
        arg = e * eps_p
        if arg < 0.0:
            raise SolverError(
                f"approximate pole needs E*eps_p >= 0, got E={e!r}, eps_p={eps_p!r}"
            )
        return eps0_aux + eps_p + 2.0 * channel.cos_alpha * math.sqrt(arg)
    if mode == "exact":
        arg = eps_p * (e - eps0_aux)
        if arg < 0.0:
            raise SolverError(
                f"exact pole needs E >= eps0 (E={e!r}, eps0={eps0_aux!r})"
            )
        return eps0_aux - eps_p + 2.0 * channel.cos_alpha * math.sqrt(arg)
    raise UnsupportedModeError(f"unknown denominator mode {mode!r}")


def exact_pole_pair(eps0_aux: float, eps_p: float, total_energy: float) -> tuple[float, float]:
    """Both exact-mode singularities (plus branch, minus branch)."""
    arg = eps_p * (total_energy - eps0_aux)
    if arg < 0.0:
        raise SolverError(
            f"exact pole pair needs E >= eps0 (E={total_energy!r}, eps0={eps0_aux!r})"
        )
    s = 2.0 * math.sqrt(arg)
    return eps0_aux - eps_p + s, eps0_aux - eps_p - s


def exact_pole_general(eps0_aux: float, eps_p: float, total_energy: float,
                       cos_alpha: float) -> float:
    """General-angle singularity; reduces to the 1D pair at cos^2(alpha) = 1."""
    sin2 = 1.0 - cos_alpha * cos_alpha
    arg = eps_p * (total_energy - eps_p * sin2 - eps0_aux)
    if arg < 0.0:
        raise SolverError("negative square-root argument in general pole form")
    return eps0_aux + eps_p * (1.0 - 2.0 * cos_alpha * cos_alpha) \
        + 2.0 * cos_alpha * math.sqrt(arg)


def build_pole_weight_table(spec: SystemSpec, bases: ChannelBases, n: int) -> PoleWeightTable:
    """Assemble the (pole, weight) list for base state n under the spec mode."""
    if not (1 <= n <= spec.n_base):
        raise IndexError(f"base state {n} out of range 1..{spec.n_base}")
    raw: list[PoleMember] = []
    for channel in channel_energies(spec):
        harm = spec.harmonic(channel.index)
        basis = bases.channels[channel.index]
        for n_prime in range(1, spec.n_prime + 1):
            elem = matrix_element(basis, bases.base, harm.amplitude, n_prime, n)
            w = abs(elem) ** 2
            if w == 0.0:
                continue
            eps0_aux = float(basis.eigenvalues[n_prime - 1])
            raw.append(PoleMember(channel.index, n_prime, w, eps0_aux,
                                  channel.epsilon_p, channel.cos_alpha))

    mode = spec.denominator_mode
    scored = sorted(
        ((pole_position(spec, ch, m.eps0_aux, mode), m)
         for ch, m in _with_channels(spec, raw)),
        key=lambda t: (t[0], t[1].channel, t[1].n_prime),
    )
    poles = [p for p, _ in scored]
    spread = (poles[-1] - poles[0]) if len(poles) > 1 else 0.0
    merge_tol = 1e-9 * spread

    entries: list[PoleEntry] = []
    for p, member in scored:
        if entries and p - entries[-1].pole <= merge_tol:
            prev = entries[-1]
            entries[-1] = PoleEntry(prev.pole, prev.weight + member.weight,
                                    prev.members + (member,))
        else:
            entries.append(PoleEntry(p, member.weight, (member,)))
    return PoleWeightTable(
        base_state=n,
        entries=tuple(entries),
        merge_tol=merge_tol,
        mode=mode,
        total_energy=spec.total_energy,
        spatial=spec.is_spatial,
    )


def _with_channels(spec: SystemSpec, members: list[PoleMember]):
    by_index = {ch.index: ch for ch in channel_energies(spec)}
    for m in members:
        yield by_index[m.channel], m


def vnn_eval(table: PoleWeightTable, epsilon: float) -> float:
    """V_nn at one energy: rational sum (approx) or full denominators (exact)."""
    if not table.entries:
        return 0.0
    poles = table.poles
    tol = table.proximity_tol()
    nearest = int(np.argmin(np.abs(poles - epsilon)))
    if abs(poles[nearest] - epsilon) <= tol:
        raise PoleProximityError(
            f"epsilon {epsilon!r} is within {tol!r} of pole {poles[nearest]!r}"
        )
    if table.mode == "approx" or not table.spatial:
        return float(_kernels.secular_sum(poles, table.weights, epsilon))
    e = table.total_energy
    if epsilon > e:
        raise SolverError(f"exact mode requires epsilon <= E, got {epsilon!r} > {e!r}")
    value = float(_exact_vnn(table, np.array([epsilon]))[0])
    if math.isnan(value):
        for m in _members(table):
            if _exact_denominator(m, epsilon, e - epsilon) == 0.0:
                raise PoleProximityError(
                    f"exact denominator vanished at epsilon {epsilon!r} "
                    f"(channel {m.channel}, n'={m.n_prime})"
                )
    return value


def _members(table: PoleWeightTable):
    for entry in table.entries:
        yield from entry.members


def _exact_denominator(m: PoleMember, eps, room):
    """eps - eps0' - eps_p - 2 cos(alpha) sqrt((E - eps) eps_p), room = E - eps."""
    return eps - m.eps0_aux - m.eps_p - 2.0 * m.cos_alpha * np.sqrt(room * m.eps_p)


def _exact_vnn(table: PoleWeightTable, eps: np.ndarray) -> np.ndarray:
    """Exact-mode V_nn at every element of a 1-D array of energies.

    Members are summed in table order with the compensated (Neumaier) update,
    so each element rounds exactly as a one-energy evaluation would. Elements
    where `vnn_eval` raises (within `proximity_tol()` of a pole, above E, or a
    vanishing denominator) are NaN. A zero denominator needs no mask: its
    infinite term turns the compensation into inf - inf.
    """
    if not table.entries:
        return np.zeros(len(eps))
    poles = table.poles
    right = np.minimum(np.searchsorted(poles, eps), len(poles) - 1)
    left = np.maximum(right - 1, 0)
    gap = np.minimum(np.abs(poles[left] - eps), np.abs(poles[right] - eps))
    undefined = (gap <= table.proximity_tol()) | (eps > table.total_energy)
    room = table.total_energy - eps
    total = np.zeros(len(eps))
    comp = np.zeros(len(eps))
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in _members(table):
            term = m.weight / _exact_denominator(m, eps, room)
            t = total + term
            comp += np.where(np.abs(total) >= np.abs(term),
                             (total - t) + term, (term - t) + total)
            total = t
    out = total + comp
    out[undefined] = np.nan
    return out


def _denominators(spec: SystemSpec, bases: ChannelBases, epsilon_s: float):
    """(channel, n', bra basis, denominator) per retained term, fixed order."""
    out = []
    e = spec.total_energy
    exact_spatial = spec.is_spatial and spec.denominator_mode == "exact"
    for channel in channel_energies(spec):
        basis = bases.channels[channel.index]
        for n_prime in range(1, spec.n_prime + 1):
            eps0_aux = float(basis.eigenvalues[n_prime - 1])
            if exact_spatial:
                if epsilon_s > e:
                    raise SolverError(
                        f"exact mode requires epsilon <= E, got {epsilon_s!r}"
                    )
                d = epsilon_s - eps0_aux - channel.epsilon_p \
                    - 2.0 * channel.cos_alpha * math.sqrt((e - epsilon_s) * channel.epsilon_p)
            else:
                d = epsilon_s - pole_position(spec, channel, eps0_aux)
            out.append((channel, n_prime, basis, d))
    poles_for_tol = [epsilon_s - d for (_, _, _, d) in out]
    if poles_for_tol:
        spread = max(poles_for_tol) - min(poles_for_tol)
        tol = max(1e-9 * spread, 1e-9)
        for (channel, n_prime, _, d) in out:
            if abs(d) <= tol:
                raise PoleProximityError(
                    f"epsilon {epsilon_s!r} is within {tol!r} of the "
                    f"(channel {channel.index}, n'={n_prime}) singularity"
                )
    return out


def _negated_amplitude(spec: SystemSpec, index: int) -> np.ndarray:
    """Amplitude of harmonic -index, or zeros when it is not retained."""
    for h in spec.harmonics:
        if h.index == -index:
            return h.amplitude
    return np.zeros(spec.grid_points, dtype=complex)


def ep_kernel_eval(spec: SystemSpec, bases: ChannelBases, epsilon_s: float,
                   x_index: int, xp_index: int) -> complex:
    """Nonlocal kernel K(x, x') at two grid indices."""
    total = 0.0 + 0.0j
    for channel, n_prime, basis, d in _denominators(spec, bases, epsilon_s):
        v_minus = _negated_amplitude(spec, channel.index)
        v_plus = spec.harmonic(channel.index).amplitude
        psi = basis.eigenfunctions[n_prime - 1]
        total += v_minus[x_index] * v_plus[xp_index] \
            * psi[x_index] * np.conjugate(psi[xp_index]) / d
    return complex(total)


def ep_kernel_matrix(spec: SystemSpec, bases: ChannelBases,
                     epsilon_s: float) -> np.ndarray:
    """Full kernel matrix K(x_i, x_j); term accumulation in fixed order."""
    n_x = spec.grid_points
    k = np.zeros((n_x, n_x), dtype=complex)
    for channel, n_prime, basis, d in _denominators(spec, bases, epsilon_s):
        v_minus = _negated_amplitude(spec, channel.index)
        v_plus = spec.harmonic(channel.index).amplitude
        psi = basis.eigenfunctions[n_prime - 1]
        left = v_minus * psi
        right = v_plus * np.conjugate(psi)
        k += np.outer(left, right) / d
    return k


def apply_effective_potential(spec: SystemSpec, bases: ChannelBases,
                              epsilon_s: float, phi: np.ndarray) -> np.ndarray:
    """(V0 + nonlocal kernel) applied to grid samples phi."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (spec.grid_points,):
        raise ValueError(f"phi must have shape ({spec.grid_points},)")
    out = spec.base_potential * phi
    w = bases.base.quad_weights
    for channel, n_prime, basis, d in _denominators(spec, bases, epsilon_s):
        v_minus = _negated_amplitude(spec, channel.index)
        v_plus = spec.harmonic(channel.index).amplitude
        psi = basis.eigenfunctions[n_prime - 1]
        # factored outer product: coefficient first, then the column
        coeff = np.sum(w * v_plus * np.conjugate(psi) * phi) / d
        out = out + (v_minus * psi) * coeff
    return out


def series_ep_kernel(spec: SystemSpec, base0: EigenBasis, k: int, eps0_k: float,
                     x_index: int, xp_index: int) -> complex:
    """First-order series kernel for channel k at caller-supplied eps0_k."""
    if spec.is_spatial:
        raise UnsupportedModeError("the series kernel applies to temporal mode only")
    if k not in spec.indices:
        raise SolverError(f"channel {k} is not a retained harmonic")
    omega = spec.perturbation.angular_frequency
    amp_sum = 0.0 + 0.0j
    for h in spec.harmonics:
        if h.index == k:
            continue
        v_minus = _negated_amplitude(spec, h.index)
        amp_sum += h.amplitude[x_index] * v_minus[xp_index]
    total = 0.0 + 0.0j
    for i, eps0_0n in enumerate(base0.eigenvalues):
        d = eps0_k - float(eps0_0n) + omega * k
        if abs(d) <= 1e-9 * max(1.0, abs(eps0_k)):
            raise PoleProximityError(
                f"series denominator vanished for base state {i + 1}"
            )
        psi = base0.eigenfunctions[i]
        total += amp_sum * psi[x_index] * np.conjugate(psi[xp_index]) / d
    return complex(total)
