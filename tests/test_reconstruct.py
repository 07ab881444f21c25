"""Channel components, field assembly, and density properties."""

import numpy as np
import pytest

from conftest import gaussian, spatial_config, temporal_config
from mws.effpot import build_bases, build_pole_weight_table
from mws.eigenbasis import matrix_element
from mws.errors import SolverError
from mws.model import build_spec, channel_energies
from mws.reconstruct import (
    assemble_wavefunction,
    bloch_wavenumber,
    component_functions,
    default_coefficients,
)
from mws.spectra import find_roots, solve_spectrum
from test_effpot import CASES, EPSILONS, assert_close, case_spec, reference_denominators


def pair(height=0.3):
    # off-center bump: keeps every (n, n') coupling clear of parity zeros
    return [
        {"index": 1, "amplitude": gaussian(height, 0.43, 0.2)},
        {"index": -1, "amplitude": gaussian(height, 0.43, 0.2)},
    ]


def zero_pair():
    zero = {"kind": "constant", "value": 0.0}
    return [{"index": 1, "amplitude": zero}, {"index": -1, "amplitude": zero}]


def first_root_map(result):
    return {st.n: float(st.roots[np.argmin(np.abs(st.roots - st.epsilon0))])
            for st in result.states}


def test_components_vanish_without_perturbation():
    spec = build_spec(temporal_config(zero_pair()))
    bases = build_bases(spec)
    comps = component_functions(spec, bases, 0.77, 1)
    assert set(comps) == {-1, 1}
    for v in comps.values():
        assert np.all(v == 0.0)


def test_component_single_term_hand_formula():
    cfg = temporal_config(pair(0.5), n_base=1, n_prime=1, omega=3.0)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    root = -6.3
    comps = component_functions(spec, bases, root, 1)
    psi1 = bases.base.eigenfunctions[0]
    w = bases.base.quad_weights
    eps1 = float(bases.base.eigenvalues[0])
    v = spec.harmonic(1).amplitude
    elem = np.sum(w * psi1 * v * psi1)
    for k in (1, -1):
        want = psi1 * (elem / (root - (eps1 + 3.0 * k)))
        assert np.allclose(comps[k], want, rtol=1e-12, atol=1e-15)


def test_components_scale_linearly_with_amplitude():
    cfg1 = temporal_config(pair(0.4))
    cfg2 = temporal_config(pair(0.8))
    s1, s2 = build_spec(cfg1), build_spec(cfg2)
    b1, b2 = build_bases(s1), build_bases(s2)
    root = -20.0   # same evaluation point: denominators are amplitude-free
    c1 = component_functions(s1, b1, root, 1)
    c2 = component_functions(s2, b2, root, 1)
    for k in (1, -1):
        assert np.allclose(c2[k], 2.0 * c1[k], rtol=1e-12, atol=1e-15)


def reference_components(spec, bases, root, n):
    """One matrix_element and one column per (channel, n') term."""
    out = {h.index: np.zeros(spec.grid_points, dtype=complex) for h in spec.harmonics}
    for channel, n_prime, basis, d in reference_denominators(spec, bases, root):
        elem = matrix_element(basis, bases.base, spec.harmonic(channel.index).amplitude,
                              n_prime, n)
        out[channel.index] += basis.eigenfunctions[n_prime - 1].astype(complex) \
            * (elem / d)
    return out


@pytest.mark.parametrize("n_prime", (1, 2, 4))
@pytest.mark.parametrize("kind,denominator,basis", CASES)
def test_components_match_per_term_loop(kind, denominator, basis, n_prime):
    spec = case_spec(kind, denominator, basis, n_prime, 2)
    bases = build_bases(spec)
    for root in EPSILONS:
        for n in range(1, bases.base.n_states + 1):
            got = component_functions(spec, bases, root, n)
            want = reference_components(spec, bases, root, n)
            assert list(got) == list(want)
            for g in want:
                assert_close(got[g], want[g])


def test_bloch_wavenumber_regimes():
    assert bloch_wavenumber(8.0, 0.0) == pytest.approx(4.0)
    k = bloch_wavenumber(1.0, 3.0)
    assert k.real == 0.0
    assert k.imag == pytest.approx(2.0)


def test_default_coefficients_unit_vector_and_projection():
    spec = build_spec(temporal_config(pair(), n_base=3, n_prime=2))
    bases = build_bases(spec)
    c = default_coefficients(bases, [1, 2, 3])
    assert c.tolist() == [1.0, 0.0, 0.0]
    proj = default_coefficients(bases, [1, 2, 3],
                                initial_profile=bases.base.eigenfunctions[1])
    assert proj[1] == pytest.approx(1.0, abs=1e-10)
    assert abs(proj[0]) < 1e-10 and abs(proj[2]) < 1e-10


def test_zero_perturbation_collapses_to_single_level():
    spec = build_spec(spatial_config(zero_pair(), energy=8.0))
    bases = build_bases(spec)
    with pytest.warns(UserWarning, match="short"):
        result = solve_spectrum(spec)
    roots = first_root_map(result)
    field = assemble_wavefunction(spec, bases, roots)
    # no channel content: the PDD is r_p-independent
    rho = field.rho
    assert field.axis_kind == "r_p"
    assert np.max(np.abs(rho - rho[:, :1])) < 1e-12
    psi1 = bases.base.eigenfunctions[0]
    assert np.allclose(rho[:, 0], np.abs(psi1) ** 2, rtol=0.0, atol=1e-12)


def test_temporal_density_periodic_in_time():
    cfg = temporal_config(pair(0.6), n_base=1, n_prime=2, omega=5.0)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    roots = first_root_map(result)
    field = assemble_wavefunction(spec, bases, roots, n_second=33)
    rho = field.rho
    # the last time sample closes one full period
    assert np.max(np.abs(rho[:, -1] - rho[:, 0])) < 1e-12 * max(1.0, rho.max())
    # psi itself carries exp(-i eps T) != 1 and is not periodic
    assert np.max(np.abs(field.psi[:, -1] - field.psi[:, 0])) > 1e-3


def test_density_gauge_invariance():
    cfg = temporal_config(pair(0.6), n_base=1, n_prime=2)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    roots = first_root_map(result)
    f1 = assemble_wavefunction(spec, bases, roots, coefficients=np.array([1.0 + 0.0j]))
    phase = np.exp(0.83j)
    f2 = assemble_wavefunction(spec, bases, roots, coefficients=np.array([phase]))
    assert np.max(np.abs(f2.rho - f1.rho)) < 1e-13 * max(1.0, f1.rho.max())


def test_density_cell_normalization_identity():
    # integral of rho over box and one period = T * (1 + sum_g ||psi_g||^2)
    # for a single unit-coefficient base state (cross terms average out)
    cfg = temporal_config(pair(0.6), n_base=1, n_prime=2, omega=5.0)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    roots = first_root_map(result)
    n_t = 17
    field = assemble_wavefunction(spec, bases, roots, n_second=n_t)
    w = bases.base.quad_weights
    t = field.second_axis
    period = t[-1] - t[0]
    per_t = np.array([np.sum(w * field.rho[:, i]) for i in range(n_t)])
    # trapezoid over the periodic axis
    integral = np.trapezoid(per_t, t)
    comps = component_functions(spec, bases, roots[1], 1)
    norms = sum(float(np.sum(w * np.abs(v) ** 2)) for v in comps.values())
    assert integral == pytest.approx(period * (1.0 + norms), rel=1e-9)


def test_evanescent_flagging_and_override():
    spec = build_spec(spatial_config(pair(0.5), energy=12.0, n_base=1, n_prime=2))
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    above = {1: 13.5}   # above E: imaginary Bloch wavenumber
    with pytest.raises(SolverError, match="evanescent"):
        assemble_wavefunction(spec, bases, above)
    field = assemble_wavefunction(spec, bases, above, allow_evanescent=True)
    assert field.evanescent == (1,)
    # the density decays monotonically along r_p for a decaying carrier
    mid = np.argmax(np.abs(field.psi[:, 0]))
    profile = field.rho[mid, :]
    assert profile[0] > profile[-1]


def test_spatial_field_channel_structure():
    spec = build_spec(spatial_config(pair(0.5), energy=12.0, n_base=1, n_prime=2))
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    roots = first_root_map(result)
    field = assemble_wavefunction(spec, bases, roots, n_second=33)
    # manual assembly from components must match the returned field
    root = roots[1]
    comps = component_functions(spec, bases, root, 1)
    chans = {c.index: c for c in channel_energies(spec)}
    y = field.second_axis
    inner = bases.base.eigenfunctions[0].astype(complex)[:, None] * np.ones(len(y))
    for g, comp in comps.items():
        inner = inner + comp[:, None] * np.exp(1j * chans[g].wavenumber * y)[None, :]
    carrier = np.exp(1j * bloch_wavenumber(spec.total_energy, root) * y)
    manual = inner * carrier[None, :]
    assert np.max(np.abs(manual - field.psi)) < 1e-12 * max(1.0, np.max(np.abs(field.psi)))


def test_assemble_validates_inputs():
    spec = build_spec(temporal_config(pair(), n_base=2, n_prime=2))
    bases = build_bases(spec)
    with pytest.raises(SolverError):
        assemble_wavefunction(spec, bases, {})
    with pytest.raises(IndexError):
        assemble_wavefunction(spec, bases, {5: 1.0})
    with pytest.raises(ValueError):
        assemble_wavefunction(spec, bases, {1: -20.0},
                              coefficients=np.array([1.0, 2.0]))


def test_multi_state_superposition_linear():
    cfg = temporal_config(pair(0.6), n_base=2, n_prime=2)
    spec = build_spec(cfg)
    bases = build_bases(spec)
    result = solve_spectrum(spec)
    roots = first_root_map(result)
    f1 = assemble_wavefunction(spec, bases, roots,
                               coefficients=np.array([1.0, 0.0], dtype=complex))
    f2 = assemble_wavefunction(spec, bases, roots,
                               coefficients=np.array([0.0, 1.0], dtype=complex))
    f12 = assemble_wavefunction(spec, bases, roots,
                                coefficients=np.array([1.0, 1.0], dtype=complex))
    assert np.max(np.abs(f12.psi - f1.psi - f2.psi)) < \
        1e-12 * max(1.0, np.max(np.abs(f12.psi)))
