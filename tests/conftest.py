"""Shared config builders for the test suite.

The builders return plain config dicts so individual tests can tweak keys
before calling build_spec. The harmonics of `fig_anchor_harmonics` and
`weak_harmonics` sit off the box centre, so every coupling they make is
well above its rounding floor. `centred_harmonics` is the parity-symmetric
drive: it forbids every coupling between states of opposite parity, and
those couplings come out of the quadrature as exact zeros or rounding noise.
"""

import numpy as np
import pytest

from mws.model import build_spec

L = float(np.pi)


def gaussian(height, center_frac, width_frac):
    """Gaussian profile doc with center/width given as fractions of the box."""
    return {
        "kind": "gaussian",
        "height": height,
        "center": center_frac * L,
        "width": width_frac * L,
    }


def spatial_config(harmonics, *, energy=12.0, points=200, n_base=1, n_prime=2,
                   period=2.0 * np.pi, bloch=0.0, base=None, denominator="approx",
                   scale=1.0):
    return {
        "box": {"length": L},
        "grid": {"points": points},
        "base_potential": base if base is not None else {"kind": "constant", "value": 0.0},
        "perturbation": {
            "kind": "spatial",
            "period": period,
            "bloch_wavenumber": bloch,
            "harmonics": harmonics,
            "scale": scale,
        },
        "energy": {"total": energy},
        "truncation": {"n_base": n_base, "n_prime": n_prime},
        "modes": {"denominator": denominator, "basis": "unperturbed"},
    }


def temporal_config(harmonics, *, omega=5.0, points=200, n_base=2, n_prime=2,
                    energy=8.0, base=None, basis="unperturbed", scale=1.0):
    return {
        "box": {"length": L},
        "grid": {"points": points},
        "base_potential": base if base is not None else {"kind": "constant", "value": 0.0},
        "perturbation": {
            "kind": "temporal",
            "angular_frequency": omega,
            "harmonics": harmonics,
            "scale": scale,
        },
        "energy": {"total": energy},
        "truncation": {"n_base": n_base, "n_prime": n_prime},
        "modes": {"denominator": "approx", "basis": basis},
    }


def fig_anchor_harmonics():
    """Two conjugate-paired gaussian harmonics; all couplings comfortably large."""
    return [
        {"index": 1, "amplitude": gaussian(0.31, 0.47, 0.22)},
        {"index": -1, "amplitude": gaussian(0.31, 0.47, 0.22)},
        {"index": 2, "amplitude": gaussian(0.23, 0.41, 0.18)},
        {"index": -2, "amplitude": gaussian(0.23, 0.41, 0.18)},
    ]


def weak_harmonics():
    return [
        {"index": 1, "amplitude": gaussian(0.8, 0.43, 0.21)},
        {"index": -1, "amplitude": gaussian(0.8, 0.43, 0.21)},
        {"index": 2, "amplitude": gaussian(0.6, 0.57, 0.17)},
        {"index": -2, "amplitude": gaussian(0.6, 0.57, 0.17)},
    ]


def centred_harmonics():
    """Harmonics +-1, +-2, each the same gaussian centred in the box."""
    return [{"index": k, "amplitude": gaussian(0.5, 0.5, 0.2)} for k in (1, -1, 2, -2)]


@pytest.fixture(scope="session")
def anchor_spatial_spec():
    """4 harmonics, n_prime=2, one base state: 8 poles and 9 roots."""
    return build_spec(spatial_config(fig_anchor_harmonics()))


@pytest.fixture(scope="session")
def weak_temporal_spec():
    """Temporal config with moderate couplings, 2 base states."""
    return build_spec(temporal_config(weak_harmonics()))


@pytest.fixture(scope="session")
def weak_temporal_bases(weak_temporal_spec):
    from mws.effpot import build_bases

    return build_bases(weak_temporal_spec)


@pytest.fixture(scope="session")
def anchor_spatial_bases(anchor_spatial_spec):
    from mws.effpot import build_bases

    return build_bases(anchor_spatial_spec)
