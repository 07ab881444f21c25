"""Effective-potential machinery: channel terms, pole/weight tables, kernel, action.

The channel-elimination step turns the coupled problem into an
energy-dependent diagonal function V_nn(eps) (a sum of simple poles in the
approximate regime) plus a nonlocal integral kernel; both live here. Every
quantity is a sum over the retained (channel, n') terms of `ChannelTerms`,
each divided by the term's denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple

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


class Members(NamedTuple):
    """PoleMember's fields as arrays, one element per member in table order."""

    channel: np.ndarray
    n_prime: np.ndarray
    weight: np.ndarray
    eps0_aux: np.ndarray
    eps_p: np.ndarray
    cos_alpha: np.ndarray


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
    """Poles and weights defining V_nn(eps) for one base state; arrays read-only."""

    base_state: int                    # n, 1-based
    poles: np.ndarray                  # ascending, one per merged entry
    weights: np.ndarray                # sum of each entry's member weights
    starts: np.ndarray                 # entry i holds members starts[i]:starts[i+1]
    members: Members
    merge_tol: float
    exact_spatial: bool                # square-root denominators (SystemSpec.exact_spatial)
    total_energy: float

    def __post_init__(self) -> None:
        for arr in (self.poles, self.weights, self.starts, *self.members):
            arr.setflags(write=False)

    @cached_property
    def entries(self) -> tuple[PoleEntry, ...]:
        """The table as PoleEntry objects, ascending by pole; built on first read."""
        rows = [PoleMember(*row) for row in zip(*(col.tolist() for col in self.members))]
        s = self.starts.tolist()
        return tuple(PoleEntry(p, w, tuple(rows[a:b])) for p, w, a, b in
                     zip(self.poles.tolist(), self.weights.tolist(), s, s[1:]))

    def proximity_tol(self) -> float:
        # merge_tol with a unit floor, for "too close to a pole" checks
        return max(self.merge_tol, 1e-9)


def merge_poles(sorted_poles: np.ndarray,
                weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(merge_tol, starts, entry_weights): entry i holds poles starts[i]:starts[i+1],
    each within merge_tol = 1e-9 * spread of its first pole, and its weight is
    theirs added left to right."""
    poles = sorted_poles.tolist()
    merge_tol = 1e-9 * (poles[-1] - poles[0]) if len(poles) > 1 else 0.0
    starts, sums = [], []
    for i, (p, w) in enumerate(zip(poles, weights.tolist())):
        if starts and p - poles[starts[-1]] <= merge_tol:
            sums[-1] += w
        else:
            starts.append(i)
            sums.append(w)
    return merge_tol, np.array(starts + [len(poles)]), np.array(sums)


def pole_position(spec: SystemSpec, channel: ChannelEnergy, eps0_aux: float) -> float:
    """Singularity position for one (channel, eps0') term under the spec mode."""
    if not spec.is_spatial:
        # linear denominator: same position in both modes
        return eps0_aux + channel.wavenumber
    eps_p = channel.epsilon_p
    e = spec.total_energy
    if spec.exact_spatial:
        return exact_pole_general(eps0_aux, eps_p, e, channel.cos_alpha)
    arg = e * eps_p
    if arg < 0.0:
        raise SolverError(
            f"approximate pole needs E*eps_p >= 0, got E={e!r}, eps_p={eps_p!r}"
        )
    return eps0_aux + eps_p + 2.0 * channel.cos_alpha * math.sqrt(arg)


def exact_pole_pair(eps0_aux: float, eps_p: float, total_energy: float) -> tuple[float, float]:
    """Both exact-mode singularities (plus branch, minus branch): `exact_pole_general`
    at cos(alpha) = +1 and -1, raising its SolverError when E < eps0."""
    return (exact_pole_general(eps0_aux, eps_p, total_energy, 1.0),
            exact_pole_general(eps0_aux, eps_p, total_energy, -1.0))


def exact_pole_general(eps0_aux: float, eps_p: float, total_energy: float,
                       cos_alpha: float) -> float:
    """The one exact-mode singularity formula; eps0' - eps_p +- 2 sqrt(eps_p (E - eps0'))
    at cos^2(alpha) = 1. SolverError "exact pole needs E >= eps0 (E=..., eps0=...)"
    where the square root's argument is negative; at cos^2(alpha) < 1 the
    bound on E also includes eps_p sin^2(alpha)."""
    sin2 = 1.0 - cos_alpha * cos_alpha
    arg = eps_p * (total_energy - eps_p * sin2 - eps0_aux)
    if arg < 0.0:
        raise SolverError(
            f"exact pole needs E >= eps0 (E={total_energy!r}, eps0={eps0_aux!r})"
        )
    return eps0_aux + eps_p * (1.0 - 2.0 * cos_alpha * cos_alpha) \
        + 2.0 * cos_alpha * math.sqrt(arg)


@dataclass(frozen=True, eq=False)
class ChannelTerms:
    """The T retained (channel, n') terms of one (spec, bases), in (channel, n') order.

    Pole tables, kernel, operator and channel components are all sums over
    these terms, each divided by `denominators`; nothing else builds a term.
    """

    spec: SystemSpec
    bases: ChannelBases
    channel: np.ndarray     # harmonic index g, shape (T,)
    n_prime: np.ndarray     # 1-based channel-basis level
    eps0_aux: np.ndarray    # its eigenvalue eps0'
    eps_p: np.ndarray
    cos_alpha: np.ndarray
    poles: np.ndarray       # pole_position under the spec mode; NaN where it raised
    errors: Mapping[int, SolverError]  # term -> its pole's error, raised by users of it

    @cached_property
    def couplings(self) -> np.ndarray:
        """<psi_t|v_g|psi0_n> for every base state, shape (T, base.n_states)."""
        return self._coupling_block(self.bases.base.n_states)

    @cached_property
    def retained_couplings(self) -> np.ndarray:
        """The first N_s columns of `couplings`, shape (T, N_s), which the pole
        tables read; bitwise equal to them (each entry is its own reduction)."""
        return self._coupling_block(self.spec.n_base)

    def _coupling_block(self, n: int) -> np.ndarray:
        # one matrix_element_block per channel, in the rows' channel order
        blocks = [matrix_element_block(self.bases.channels[g], self.bases.base,
                                       self.spec.harmonic(g).amplitude, self.spec.n_prime, n)
                  for g in self.channel[::self.spec.n_prime].tolist()]
        return np.concatenate(blocks + [np.zeros((0, n), complex)])

    @cached_property
    def psi(self) -> np.ndarray:
        """Channel eigenfunctions psi_t, shape (T, n_x)."""
        return self._stack(self.bases.channels[g].eigenfunctions[k - 1]
                           for g, k in zip(self.channel.tolist(), self.n_prime.tolist()))

    @cached_property
    def left(self) -> np.ndarray:
        """v_{-g} psi_t, shape (T, n_x); zero where -g is not retained."""
        return self._stack(_negated_amplitude(self.spec, g) for g in self.channel.tolist()) \
            * self.psi

    @cached_property
    def right(self) -> np.ndarray:
        """v_g conj(psi_t), shape (T, n_x)."""
        return self._stack(self.spec.harmonic(g).amplitude for g in self.channel.tolist()) \
            * np.conjugate(self.psi)

    def _stack(self, rows) -> np.ndarray:
        return np.array(list(rows)).reshape(len(self.poles), self.spec.grid_points)

    def denominators(self, epsilon: float) -> np.ndarray:
        """Every term's denominator at epsilon, shape (T,): the square-root form
        in exact spatial mode (needs epsilon <= E, no pole), else epsilon - pole."""
        if not len(self.poles):
            return np.zeros(0)
        e = self.spec.total_energy
        if self.spec.exact_spatial:
            if epsilon > e:
                raise SolverError(f"exact mode requires epsilon <= E, got {epsilon!r}")
            d = _exact_denominator(self, epsilon, e - epsilon)
        else:
            for exc in self.errors.values():
                raise exc
            d = epsilon - self.poles
        tol = max(1e-9 * float(np.ptp(epsilon - d)), 1e-9)
        near = np.flatnonzero(np.abs(d) <= tol)
        if len(near):
            raise PoleProximityError(
                f"epsilon {epsilon!r} is within {tol!r} of the (channel "
                f"{self.channel[near[0]]}, n'={self.n_prime[near[0]]}) singularity"
            )
        return d


def channel_terms(spec: SystemSpec, bases: ChannelBases) -> ChannelTerms:
    """The channel-term table: rows and poles; the couplings are built on first use."""
    chans = channel_energies(spec)
    rows = [(ch, k, float(bases.channels[ch.index].eigenvalues[k - 1]))
            for ch in chans for k in range(1, spec.n_prime + 1)]
    poles = np.full(len(rows), np.nan)
    errors = {}
    for i, (ch, _, eps0_aux) in enumerate(rows):
        try:
            poles[i] = pole_position(spec, ch, eps0_aux)
        except SolverError as exc:
            errors[i] = exc
    return ChannelTerms(
        spec=spec,
        bases=bases,
        channel=np.array([ch.index for ch, _, _ in rows], dtype=int),
        n_prime=np.array([k for _, k, _ in rows], dtype=int),
        eps0_aux=np.array([r[2] for r in rows]),
        eps_p=np.array([ch.epsilon_p for ch, _, _ in rows]),
        cos_alpha=np.array([ch.cos_alpha for ch, _, _ in rows]),
        poles=poles,
        errors=errors,
    )


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
    are those of its own terms. The (pole, channel, n') order is computed
    once for all states; the error terms' NaN poles sort last."""
    terms = channel_terms(spec, bases)
    order = np.lexsort((terms.n_prime, terms.channel, terms.poles))

    tables = []
    for n in ns:
        weights = np.array([abs(z) ** 2 for z in terms.retained_couplings[:, n - 1].tolist()])
        for i, exc in terms.errors.items():
            if weights[i] != 0.0:
                raise exc
        kept = order[weights[order] != 0.0]
        members = Members(terms.channel[kept], terms.n_prime[kept], weights[kept],
                          terms.eps0_aux[kept], terms.eps_p[kept], terms.cos_alpha[kept])
        merge_tol, starts, entry_weights = merge_poles(terms.poles[kept], members.weight)
        tables.append(PoleWeightTable(
            base_state=n,
            poles=terms.poles[kept[starts[:-1]]],   # each entry's first member
            weights=entry_weights,
            starts=starts,
            members=members,
            merge_tol=merge_tol,
            exact_spatial=spec.exact_spatial,
            total_energy=spec.total_energy,
        ))
    return tables


def vnn_eval(table: PoleWeightTable, epsilon):
    """V_nn at one energy (a float back) or a 1-D array of energies (an array
    back): rational sum (approx, temporal) or full denominators (exact spatial).

    Raises for the first energy where V_nn is undefined: within
    `proximity_tol()` of a pole, above E in exact mode, or where an exact
    denominator vanishes.
    """
    eps = np.asarray(epsilon, dtype=float)
    values = _vnn(table, eps.reshape(-1))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        _raise_undefined(table, float(eps.flat[i]))
    return values.reshape(eps.shape) if eps.ndim else float(values[0])


def _raise_undefined(table: PoleWeightTable, epsilon: float) -> None:
    """Raise why V_nn is NaN at epsilon, checking in the order: nearest pole,
    epsilon > E, vanishing exact denominator. Returns if none applies."""
    poles = table.poles
    tol = table.proximity_tol()
    nearest = int(np.argmin(np.abs(poles - epsilon)))
    if abs(poles[nearest] - epsilon) <= tol:
        raise PoleProximityError(
            f"epsilon {epsilon!r} is within {tol!r} of pole {poles[nearest]!r}"
        )
    if not table.exact_spatial:
        return
    e = table.total_energy
    if epsilon > e:
        raise SolverError(f"exact mode requires epsilon <= E, got {epsilon!r} > {e!r}")
    m = table.members
    zero = np.flatnonzero(_exact_denominator(m, epsilon, e - epsilon) == 0.0)
    if len(zero):
        raise PoleProximityError(
            f"exact denominator vanished at epsilon {epsilon!r} "
            f"(channel {m.channel[zero[0]]}, n'={m.n_prime[zero[0]]})"
        )


def _exact_denominator(m: Members | ChannelTerms, eps, room, j=slice(None)):
    """eps - eps0' - eps_p - 2 cos(alpha) sqrt((E - eps) eps_p), room = E - eps;
    as arrays, of every channel term or table member, or of member j."""
    return eps - m.eps0_aux[..., j] - m.eps_p[..., j] \
        - 2.0 * m.cos_alpha[..., j] * np.sqrt(room * m.eps_p[..., j])


def _vnn(table: PoleWeightTable, eps: np.ndarray) -> np.ndarray:
    """V_nn at every element of a 1-D array of energies, NaN where undefined.

    The rational form (approx mode, temporal drives) sums w/(eps - p) over
    the table's poles, the exact spatial form (`_exact_vnn`) w/d(eps) over
    its members' square-root denominators; both are `_kernels._pole_sums`,
    so each element rounds exactly as a one-energy evaluation would.
    Elements within `proximity_tol()` of a pole, above E in exact mode, or
    where an exact denominator vanishes are NaN. A zero denominator needs no
    mask: its infinite term turns the compensation into inf - inf.
    """
    if not len(table.poles):
        return np.zeros(len(eps))
    poles = table.poles
    right = np.minimum(np.searchsorted(poles, eps), len(poles) - 1)
    left = np.maximum(right - 1, 0)
    gap = np.minimum(np.abs(poles[left] - eps), np.abs(poles[right] - eps))
    undefined = gap <= table.proximity_tol()
    if table.exact_spatial:
        undefined |= eps > table.total_energy
        out = _exact_vnn(table.members, table.total_energy, eps)
    else:
        out = _kernels._pole_sums(poles, table.weights, eps)[0]
    out[undefined] = np.nan
    return out


def _exact_vnn(m: Members, total_energy: float, eps: np.ndarray, slope=None):
    """sum_t w_t / d_t(eps) over the members in table order, d_t the exact
    denominator `_exact_denominator`, by `_kernels._pole_sums`. With `slope`,
    an index of eps's first axis, also its derivative sum_t -w_t d_t'/d_t^2
    at eps[slope], d_t' = 1 + cos(alpha) sqrt(eps_p/(E - eps)) (infinite at
    E), added in the same order."""
    def denominators(e, j, slope):
        room = total_energy - e
        grow = None if slope is None else \
            1.0 + m.cos_alpha[..., j] * np.sqrt(m.eps_p[..., j] / room[slope])
        return _exact_denominator(m, e, room, j), grow

    sums, squares = _kernels._pole_sums(denominators, m.weight, eps, slope)
    return sums if slope is None else (sums, -squares)


def _negated_amplitude(spec: SystemSpec, index: int) -> np.ndarray:
    """Amplitude of harmonic -index, or zeros when it is not retained."""
    for h in spec.harmonics:
        if h.index == -index:
            return h.amplitude
    return np.zeros(spec.grid_points, dtype=complex)


def ep_kernel_matrix(spec: SystemSpec, bases: ChannelBases,
                     epsilon_s: float) -> np.ndarray:
    """Full kernel matrix K(x_i, x_j) = sum_t v_-g psi_t(x_i) v_g conj(psi_t)(x_j) / d_t."""
    terms = channel_terms(spec, bases)
    d = terms.denominators(epsilon_s)
    return (terms.left / d[:, None]).T @ terms.right


def apply_effective_potential(spec: SystemSpec, bases: ChannelBases,
                              epsilon_s: float, phi: np.ndarray) -> np.ndarray:
    """(V0 + nonlocal kernel) applied to grid samples phi."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (spec.grid_points,):
        raise ValueError(f"phi must have shape ({spec.grid_points},)")
    terms = channel_terms(spec, bases)
    d = terms.denominators(epsilon_s)
    # factored outer product: one coefficient per term, then the columns
    coeff = np.sum(terms.right * (bases.base.quad_weights * phi), axis=1) / d
    return spec.base_potential * phi + coeff @ terms.left


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
