"""Config validation, channel bookkeeping, and document round-trips."""

import math
import re

import numpy as np
import pytest

from conftest import L, gaussian, spatial_config, temporal_config
from mws.errors import ConfigError
from mws.model import (
    build_spec,
    channel_energies,
    sample_profile,
    scale_amplitudes,
    to_document,
)


def one_pair(height=0.3):
    return [
        {"index": 1, "amplitude": gaussian(height, 0.5, 0.2)},
        {"index": -1, "amplitude": gaussian(height, 0.5, 0.2)},
    ]


def test_wavenumber_unit_period_ratio():
    # d_p = 2*pi with g = 1 gives g_p = 1.0 exactly
    spec = build_spec(spatial_config(one_pair(), period=2.0 * np.pi))
    chans = {c.index: c for c in channel_energies(spec)}
    assert chans[1].wavenumber == 1.0
    assert chans[-1].wavenumber == -1.0
    assert chans[1].epsilon_p == 0.5
    assert chans[-1].epsilon_p == 0.5


def test_channel_energy_spatial():
    spec = build_spec(spatial_config(one_pair(), energy=4.0, period=2.0 * np.pi))
    chans = {c.index: c for c in channel_energies(spec)}
    assert chans[1].cos_alpha == 1.0
    assert chans[-1].cos_alpha == -1.0


def test_channel_energy_temporal():
    spec = build_spec(temporal_config(one_pair(), omega=2.0, energy=4.0))
    chans = {c.index: c for c in channel_energies(spec)}
    assert chans[1].epsilon_p == 0.0
    assert chans[1].wavenumber == 2.0


def test_epsilon_p_index_symmetry():
    spec = build_spec(spatial_config(
        one_pair() + [
            {"index": 3, "amplitude": gaussian(0.2, 0.4, 0.2)},
            {"index": -3, "amplitude": gaussian(0.2, 0.4, 0.2)},
        ],
        period=1.7,
        energy=70.0,
    ))
    chans = {c.index: c for c in channel_energies(spec)}
    for g in (1, 3):
        assert chans[g].epsilon_p == chans[-g].epsilon_p
        assert chans[g].cos_alpha == -chans[-g].cos_alpha


def test_zero_harmonic_index_rejected():
    cfg = spatial_config([{"index": 0, "amplitude": gaussian(0.3, 0.5, 0.2)}])
    with pytest.raises(ConfigError, match="zero harmonic index"):
        build_spec(cfg)


def test_duplicate_harmonic_index_rejected():
    cfg = spatial_config([
        {"index": 1, "amplitude": gaussian(0.3, 0.5, 0.2)},
        {"index": 1, "amplitude": gaussian(0.2, 0.4, 0.2)},
    ])
    with pytest.raises(ConfigError, match="duplicate"):
        build_spec(cfg)


def test_anchor_harmonic_count(anchor_spatial_spec):
    assert anchor_spatial_spec.n_harmonics == 4
    assert anchor_spatial_spec.indices == (-2, -1, 1, 2)


@pytest.mark.parametrize("key,patch,message", [
    ("box", {"box": {"length": -1.0}}, "length"),
    ("grid", {"grid": {"points": 32}}, "points"),
    ("truncation", {"truncation": {"n_base": 0, "n_prime": 1}}, "n_base"),
    ("truncation", {"truncation": {"n_base": 1, "n_prime": 0}}, "n_prime"),
    ("modes", {"modes": {"denominator": "fancy"}}, "denominator"),
    ("modes", {"modes": {"basis": "bogus"}}, "basis"),
])
def test_invalid_configs_rejected(key, patch, message):
    cfg = spatial_config(one_pair())
    cfg.update(patch)
    with pytest.raises(ConfigError, match=message):
        build_spec(cfg)


@pytest.mark.parametrize("config,section,key,value", [
    (spatial_config, "grid", "points", "abc"),
    (spatial_config, "box", "length", [1]),
    (spatial_config, "energy", "total", None),
    (spatial_config, "truncation", "n_base", 1.5),
    (spatial_config, "perturbation", "scale", "big"),
    (temporal_config, "perturbation", "angular_frequency", "fast"),
    (spatial_config, "perturbation", "real", "false"),
], ids=("points-string", "length-list", "total-null", "n_base-float", "scale-string",
        "frequency-string", "real-string"))
def test_value_of_wrong_json_type_names_its_path(config, section, key, value):
    # a one-sided drive, so a "false" string read as true would fail on the pairing
    cfg = config([{"index": 1, "amplitude": gaussian(0.3, 0.5, 0.2)}])
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be ")):
        build_spec(cfg)


@pytest.mark.parametrize("section,key", [("energy", "total"), ("box", "length"),
                                         ("perturbation", "scale")])
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf), ids=("nan", "inf", "-inf"))
def test_non_finite_number_names_its_path(section, key, value):
    cfg = spatial_config(one_pair())
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be finite")):
        build_spec(cfg)


@pytest.mark.parametrize("doc,path", [
    ({"kind": "constant", "value": math.inf}, "t.value"),
    ({"kind": "constant", "value": [0.0, math.nan]}, "t.value"),
    ({"kind": "cosine", "amplitude": -math.inf}, "t.amplitude"),
    ({"kind": "gaussian", "height": math.nan}, "t.height"),
    ({"kind": "samples", "values": [0.0] * 10 + [math.inf]}, "t.values[10]"),
], ids=("inf-value", "nan-imaginary", "minus-inf-amplitude", "nan-height", "inf-sample"))
def test_non_finite_profile_number_names_its_path(doc, path):
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError, match=re.escape(f"{path} must be finite")):
        sample_profile(doc, x, "t")


@pytest.mark.parametrize("value", (True, [0.0, False]))
def test_bool_is_no_profile_number(value):
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError, match=r"t\.value: expected a number"):
        sample_profile({"kind": "constant", "value": value}, x, "t")


def test_missing_energy_rejected():
    cfg = spatial_config(one_pair())
    del cfg["energy"]
    with pytest.raises(ConfigError, match="energy"):
        build_spec(cfg)


def test_nonpositive_period_rejected():
    cfg = spatial_config(one_pair(), period=0.0)
    with pytest.raises(ConfigError, match="period"):
        build_spec(cfg)


def test_nonzero_bloch_wavenumber_rejected():
    # reconstruct takes each root's own wavenumber, so a fixed K would change nothing
    with pytest.raises(ConfigError, match="bloch_wavenumber"):
        build_spec(spatial_config(one_pair(), bloch=0.7))
    cfg = spatial_config(one_pair())
    del cfg["perturbation"]["bloch_wavenumber"]
    assert build_spec(cfg) == build_spec(spatial_config(one_pair(), bloch=0.0))


def test_nonpositive_frequency_rejected():
    cfg = temporal_config(one_pair(), omega=-2.0)
    with pytest.raises(ConfigError, match="angular_frequency"):
        build_spec(cfg)


def test_v1_backend_needs_temporal():
    cfg = spatial_config(one_pair())
    cfg["modes"]["basis"] = "v1"
    with pytest.raises(ConfigError, match="v1"):
        build_spec(cfg)


def test_declared_real_needs_conjugate_pairs():
    cfg = temporal_config([{"index": 1, "amplitude": gaussian(0.3, 0.5, 0.2)}])
    cfg["perturbation"]["real"] = True
    with pytest.raises(ConfigError, match="pair"):
        build_spec(cfg)
    # the pairing is exact: one ulp off fails
    plus, minus = 0.3, float(np.nextafter(0.3, 1.0))
    cfg = temporal_config([
        {"index": 1, "amplitude": {"kind": "constant", "value": plus}},
        {"index": -1, "amplitude": {"kind": "constant", "value": minus}},
    ])
    cfg["perturbation"]["real"] = True
    with pytest.raises(ConfigError, match="harmonic 1 is not the conjugate of harmonic -1"):
        build_spec(cfg)
    # a NaN amplitude pair fails earlier, as a non-finite number named by its path
    cfg = temporal_config([
        {"index": 1, "amplitude": {"kind": "constant", "value": float("nan")}},
        {"index": -1, "amplitude": {"kind": "constant", "value": float("nan")}},
    ])
    cfg["perturbation"]["real"] = True
    with pytest.raises(ConfigError,
                       match=re.escape("perturbation.harmonics[0].amplitude.value must be finite")):
        build_spec(cfg)


def test_declared_real_accepts_matched_pairs():
    cfg = temporal_config(one_pair())
    cfg["perturbation"]["real"] = True
    spec = build_spec(cfg)
    assert spec.declared_real


def test_low_energy_spatial_warns():
    cfg = spatial_config(one_pair(), energy=0.2)
    with pytest.warns(UserWarning, match="kinetic"):
        build_spec(cfg)


def test_scale_folds_into_amplitudes():
    cfg = spatial_config(one_pair(height=0.4), scale=0.5)
    spec = build_spec(cfg)
    ref = build_spec(spatial_config(one_pair(height=0.2)))
    for a, b in zip(spec.harmonics, ref.harmonics):
        assert a.index == b.index
        assert np.allclose(a.amplitude, b.amplitude, rtol=0.0, atol=1e-16)


def test_scale_amplitudes_helper():
    spec = build_spec(spatial_config(one_pair(height=0.4)))
    half = scale_amplitudes(spec, 0.5)
    assert half.n_harmonics == spec.n_harmonics
    for a, b in zip(half.harmonics, spec.harmonics):
        assert np.array_equal(a.amplitude, 0.5 * b.amplitude)
    # original untouched
    assert np.max(np.abs(spec.harmonics[0].amplitude)) > \
        np.max(np.abs(half.harmonics[0].amplitude))


def test_document_round_trip():
    cfg = temporal_config(one_pair(height=0.7), omega=3.0, n_base=2, n_prime=3)
    spec = build_spec(cfg)
    doc = to_document(spec)
    again = build_spec(doc)
    assert again == spec


def test_profile_kinds():
    x = np.linspace(0.0, 2.0, 101)
    c = sample_profile({"kind": "constant", "value": 1.5}, x, "t")
    assert np.all(c == 1.5)
    cos = sample_profile({"kind": "cosine", "amplitude": 2.0, "cycles": 1.0}, x, "t")
    assert cos[0] == pytest.approx(2.0)
    assert cos[-1] == pytest.approx(2.0)
    g = sample_profile({"kind": "gaussian", "height": 1.0, "center": 1.0,
                        "width": 0.25}, x, "t")
    assert np.argmax(np.abs(g)) == 50
    s = sample_profile({"kind": "samples", "values": [[0.0, 1.0]] * 101}, x, "t")
    assert np.all(s == 1.0j)
    with pytest.raises(ConfigError):
        sample_profile({"kind": "mystery"}, x, "t")
    with pytest.raises(ConfigError):
        sample_profile({"kind": "samples", "values": [1.0, 2.0]}, x, "t")


def test_complex_profile_rejected_when_real_required():
    x = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError, match="real"):
        sample_profile({"kind": "constant", "value": [0.0, 1.0]}, x, "t",
                       real_only=True)


def test_grid_properties():
    spec = build_spec(spatial_config(one_pair(), points=128))
    assert spec.grid.shape == (128,)
    assert spec.grid[0] == 0.0
    assert spec.grid[-1] == pytest.approx(L)
    assert spec.grid_step == pytest.approx(L / 127.0)
