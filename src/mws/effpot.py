"""Effective-potential machinery: pole/weight tables, nonlocal kernel, action.

The channel-elimination step turns the coupled problem into an
energy-dependent diagonal function V_nn(eps) (a sum of simple poles in the
approximate regime) plus a nonlocal integral kernel; both live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from mws import _kernels
from mws.errors import PoleProximityError, SolverError, UnsupportedModeError
from mws.eigenbasis import EigenBasis, matrix_element_block, solve_base_eigenproblem, \
    solve_v1_eigenproblem, v1_potential
from mws.model import ChannelEnergy, SystemSpec, channel_energies


@dataclass(frozen=True)
class ChannelBases:
    """Basis for the retained base states plus one basis per channel."""

    base: EigenBasis
    channels: Mapping[int, EigenBasis]  # keyed by harmonic index


def build_bases(spec: SystemSpec) -> ChannelBases:
    """Solve the eigenproblems the spec's basis backend calls for.

    The "unperturbed" backend shares one basis across all channels. The "v1"
    backend diagonalizes h0 + V1 once per distinct potential V1 (channels +-k
    of a real drive, or a V1 equal to V0, share one); each channel gets a
    basis over those arrays tagged with its own index.
    """
    base = solve_base_eigenproblem(spec)
    if spec.basis_backend == "unperturbed":
        channels = {h.index: base for h in spec.harmonics}
        return ChannelBases(base=base, channels=channels)

    solved = {spec.base_potential.tobytes(): base}
    channels = {}
    for k in spec.indices:
        key = v1_potential(spec, k).tobytes()
        if key not in solved:
            solved[key] = solve_v1_eigenproblem(spec, k)
        channels[k] = replace(solved[key], backend_tag=f"v1[k={k}]")
    return ChannelBases(base=base, channels=channels)


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


def build_pole_weight_tables(spec: SystemSpec, bases: ChannelBases) -> list[PoleWeightTable]:
    """The (pole, weight) tables of base states 1..N_s under the spec mode."""
    return _build_tables(spec, bases, range(1, spec.n_base + 1))


def build_pole_weight_table(spec: SystemSpec, bases: ChannelBases, n: int) -> PoleWeightTable:
    """The (pole, weight) table of base state n under the spec mode."""
    if not (1 <= n <= spec.n_base):
        raise IndexError(f"base state {n} out of range 1..{spec.n_base}")
    return _build_tables(spec, bases, [n])[0]


def _build_tables(spec: SystemSpec, bases: ChannelBases, ns) -> list[PoleWeightTable]:
    """Tables of the base states ns; each one's weights, poles and errors
    are those of its own members, in (channel, n') order.

    Weights come from one matrix-element block per channel; pole positions
    and the (pole, channel, n') order are computed once for all states.
    """
    mode = spec.denominator_mode
    n_top = max(ns)
    members = []   # (channel, n', eps0_aux, eps_p, cos_alpha), (channel, n') order
    blocks = []
    poles: dict[int, float] = {}
    failed: dict[int, SolverError] = {}
    for channel in channel_energies(spec):
        basis = bases.channels[channel.index]
        blocks.append(matrix_element_block(basis, bases.base,
                                           spec.harmonic(channel.index).amplitude,
                                           spec.n_prime, n_top))
        for n_prime in range(1, spec.n_prime + 1):
            eps0_aux = float(basis.eigenvalues[n_prime - 1])
            try:
                poles[len(members)] = pole_position(spec, channel, eps0_aux, mode)
            except SolverError as exc:  # raised below for a state with this member
                failed[len(members)] = exc
            members.append((channel.index, n_prime, eps0_aux,
                            channel.epsilon_p, channel.cos_alpha))
    order = sorted(poles, key=lambda i: (poles[i], members[i][0], members[i][1]))
    elems = np.concatenate(blocks) if blocks else np.zeros((0, n_top), dtype=complex)

    tables = []
    for n in ns:
        weights = [abs(z) ** 2 for z in elems[:, n - 1].tolist()]
        for i, exc in failed.items():
            if weights[i] != 0.0:
                raise exc
        kept = [i for i in order if weights[i] != 0.0]
        spread = poles[kept[-1]] - poles[kept[0]] if len(kept) > 1 else 0.0
        merge_tol = 1e-9 * spread

        entries: list[PoleEntry] = []
        for i in kept:
            p = poles[i]
            channel, n_prime, eps0_aux, eps_p, cos_alpha = members[i]
            member = PoleMember(channel, n_prime, weights[i], eps0_aux, eps_p, cos_alpha)
            if entries and p - entries[-1].pole <= merge_tol:
                prev = entries[-1]
                entries[-1] = PoleEntry(prev.pole, prev.weight + member.weight,
                                        prev.members + (member,))
            else:
                entries.append(PoleEntry(p, member.weight, (member,)))
        tables.append(PoleWeightTable(
            base_state=n,
            entries=tuple(entries),
            merge_tol=merge_tol,
            mode=mode,
            total_energy=spec.total_energy,
            spatial=spec.is_spatial,
        ))
    return tables


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
