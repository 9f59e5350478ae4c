"""Tests for the thin-film reflectance model and the noise generator."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    CalibrationError,
    FilmStack,
    NoiseModel,
    Spectrum,
    ac_power,
    add_noise,
    calibrate_ramp_magnitude,
    fabry_perot_reflectance,
    measure_snr,
    simulate_reflectance,
    white_sigma_for_target,
)

WAVELENGTHS = np.linspace(500.0, 800.0, 1024)


def default_spectrum(stack=None):
    return simulate_reflectance(stack if stack is not None else FilmStack(), WAVELENGTHS)


def test_etalon_matches_closed_form():
    # 2R(1 - cos(phi)) / (1 - 2R cos(phi) + R^2) at R = 0.04, phi = pi
    expected = (2 * 0.04 * 2.0) / (1.0 + 2 * 0.04 + 0.04**2)
    assert math.isclose(fabry_perot_reflectance(0.04, math.pi), expected, rel_tol=1e-12)
    assert math.isclose(expected, 0.16 / 1.0816, rel_tol=1e-12)


def test_etalon_dark_at_zero_phase():
    assert fabry_perot_reflectance(0.04, 0.0) == 0.0


def test_etalon_rejects_bad_reflectivity():
    with pytest.raises(ValueError):
        fabry_perot_reflectance(1.0, 1.0)
    with pytest.raises(ValueError):
        fabry_perot_reflectance(-0.1, 1.0)


def test_matrix_model_reduces_to_etalon_for_matched_substrate():
    # With the substrate index equal to the ambient index the film is a
    # symmetric etalon, so the matrix model must agree with the closed form.
    stack = FilmStack(ambient_index=1.0, film_index=1.2, film_thickness_nm=2400.0,
                      substrate_index=1.0 + 0.0j)
    model = simulate_reflectance(stack, WAVELENGTHS)
    r_surface = ((1.0 - 1.2) / (1.0 + 1.2)) ** 2
    phase = 4.0 * math.pi * 1.2 * 2400.0 / WAVELENGTHS
    etalon = np.array([fabry_perot_reflectance(r_surface, p) for p in phase])
    npt.assert_allclose(model.reflectance, etalon, atol=1e-12)


def test_default_film_extrema_levels():
    # At 2 n1 L = m lambda the film is an absentee layer: R equals the bare
    # substrate value ((n0-ns)/(n0+ns))^2. At half-odd orders the quarter-wave
    # relation gives ((n0 ns - n1^2)/(n0 ns + n1^2))^2.
    absentee = ((1.0 - 3.67) / (1.0 + 3.67)) ** 2
    quarter = ((3.67 - 1.44) / (3.67 + 1.44)) ** 2
    for m in (8, 9, 10, 11):
        lam = 5760.0 / m
        spec = simulate_reflectance(FilmStack(), np.array([lam - 1.0, lam, lam + 1.0]))
        assert math.isclose(spec.reflectance[1], absentee, rel_tol=1e-9)
        assert spec.reflectance[1] >= spec.reflectance[0]
        assert spec.reflectance[1] >= spec.reflectance[2]
    lam_q = 5760.0 / 9.5
    spec_q = simulate_reflectance(FilmStack(), np.array([lam_q, lam_q + 1.0]))
    assert math.isclose(spec_q.reflectance[0], quarter, rel_tol=1e-9)


def test_reflectance_stays_physical_with_absorbing_substrate():
    stack = FilmStack(substrate_index=3.67 + 0.5j)
    spec = simulate_reflectance(stack, WAVELENGTHS)
    assert np.all(spec.reflectance >= 0.0)
    assert np.all(spec.reflectance <= 1.0)


def test_effective_optical_thickness():
    assert FilmStack().effective_optical_thickness_nm == 2 * 1.2 * 2400.0


def test_index_shift_returns_new_stack():
    stack = FilmStack()
    shifted = stack.with_film_index_shift(0.01)
    assert shifted.film_index == pytest.approx(1.21)
    assert shifted.film_thickness_nm == stack.film_thickness_nm
    assert stack.film_index == 1.2


def test_stack_validation():
    with pytest.raises(ValueError):
        FilmStack(film_thickness_nm=-1.0)
    with pytest.raises(ValueError):
        FilmStack(film_index=0.5)
    with pytest.raises(ValueError):
        FilmStack(substrate_index=3.67 - 0.1j)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([800.0, 500.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        Spectrum(np.array([500.0, 600.0]), np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        Spectrum(np.array([500.0, 600.0, 700.0]), np.array([0.1, 0.2]))


def test_ac_power_removes_mean():
    assert ac_power(np.full(100, 3.5)) == 0.0
    # full cycles sampled without the endpoint average to exactly 1/2
    theta = 2 * np.pi * np.arange(1000) * 7 / 1000
    assert math.isclose(ac_power(np.cos(theta) + 2.0), 0.5, rel_tol=1e-12)


def test_snr_of_identical_spectra_is_infinite():
    spec = default_spectrum()
    assert measure_snr(spec, spec) == math.inf


def test_snr_against_constant_perturbation():
    spec = default_spectrum()
    shifted = Spectrum(spec.wavelengths_nm, spec.reflectance + 1e-3)
    expected = 10 * math.log10(ac_power(spec.reflectance) / 1e-6)
    assert math.isclose(measure_snr(spec, shifted), expected, rel_tol=1e-12)


def test_snr_requires_matching_grids():
    spec = default_spectrum()
    other = Spectrum(spec.wavelengths_nm + 1.0, spec.reflectance)
    with pytest.raises(Exception):
        measure_snr(spec, other)


def test_white_noise_hits_snr_target_on_average():
    spec = default_spectrum()
    sigma = white_sigma_for_target(spec, 27.7)
    measured = []
    for seed in range(100):
        noisy = add_noise(spec, NoiseModel(gaussian_sigma=sigma, seed=seed))
        measured.append(measure_snr(spec, noisy))
    assert abs(np.mean(measured) - 27.7) < 0.2


def test_noise_is_deterministic_per_seed():
    spec = default_spectrum()
    model = NoiseModel(gaussian_sigma=2e-3, seed=7)
    a = add_noise(spec, model)
    b = add_noise(spec, model)
    npt.assert_array_equal(a.reflectance, b.reflectance)
    c = add_noise(spec, NoiseModel(gaussian_sigma=2e-3, seed=8))
    assert not np.array_equal(a.reflectance, c.reflectance)


def test_silent_model_is_identity():
    spec = default_spectrum()
    out = add_noise(spec, NoiseModel(gaussian_sigma=0.0, seed=3))
    npt.assert_array_equal(out.reflectance, spec.reflectance)


def test_white_draw_independent_of_ramp_settings():
    # the gaussian stream must not shift when ramps are toggled, so paired
    # runs isolate the ramp contribution exactly
    spec = default_spectrum()
    white = add_noise(spec, NoiseModel(gaussian_sigma=2e-3, seed=11))
    both = add_noise(spec, NoiseModel(gaussian_sigma=2e-3, offset_ramp_magnitude=0.02, seed=11))
    t = (spec.wavelengths_nm - spec.wavelengths_nm[0]) / (
        spec.wavelengths_nm[-1] - spec.wavelengths_nm[0])
    npt.assert_allclose(both.reflectance - white.reflectance, 0.02 * t, atol=1e-15)


def test_offset_ramp_calibration_hits_target():
    spec = default_spectrum()
    mag = calibrate_ramp_magnitude(spec, "offset", 7.9)
    ramped = add_noise(spec, NoiseModel(gaussian_sigma=0.0, offset_ramp_magnitude=mag, seed=0))
    assert math.isclose(measure_snr(spec, ramped), 7.9, abs_tol=1e-6)


def test_amplitude_ramp_calibration_hits_target():
    spec = default_spectrum()
    gain = calibrate_ramp_magnitude(spec, "amplitude", 7.7)
    ramped = add_noise(spec, NoiseModel(gaussian_sigma=0.0, amplitude_ramp_gain=gain, seed=0))
    assert math.isclose(measure_snr(spec, ramped), 7.7, abs_tol=1e-6)


def test_calibration_accounts_for_white_floor():
    # with a white floor the ramp must be weaker to hold the same total
    spec = default_spectrum()
    sigma = white_sigma_for_target(spec, 27.7)
    bare = calibrate_ramp_magnitude(spec, "offset", 7.9)
    with_floor = calibrate_ramp_magnitude(spec, "offset", 7.9, white_sigma=sigma)
    assert with_floor < bare
    p_ramp = np.mean((with_floor * np.linspace(0.0, 1.0, len(spec))) ** 2)
    total = 10 * math.log10(ac_power(spec.reflectance) / (p_ramp + sigma**2))
    assert math.isclose(total, 7.9, abs_tol=1e-6)


def test_calibration_unreachable_target_raises():
    spec = default_spectrum()
    with pytest.raises(CalibrationError):
        calibrate_ramp_magnitude(spec, "offset", 30.0, white_sigma=0.01)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(target_snr_db=20.0, gaussian_sigma=1e-3)
    with pytest.raises(ValueError):
        NoiseModel()
    with pytest.raises(ValueError):
        NoiseModel(gaussian_sigma=-1e-3)
    for target in ("x", True):
        with pytest.raises(ValueError, match="target_snr_db must be a number"):
            NoiseModel(target_snr_db=target)
