"""Tests for the thin-film reflectance model and the noise generator."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    CalibrationError,
    FilmStack,
    NativeGrid,
    NoiseModel,
    NoiseOverflowError,
    Spectrum,
    ac_power,
    add_noise,
    calibrate_ramp_magnitude,
    fabry_perot_reflectance,
    measure_snr,
    simulate_reflectance,
    white_sigma_for_target,
)
from fringelab.filmsim import ramped_reflectance, white_rows

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
    with pytest.raises(ValueError, match="substrate_index must be a complex number"):
        FilmStack(substrate_index=True)  # complex(True) would be an index of 1
    assert FilmStack(substrate_index="3.67+0.5j").substrate_index == "3.67+0.5j"  # as JSON has it


@pytest.mark.parametrize("value", ["abc", [3.67, 0.0], None],
                         ids=["malformed-string", "list", "none"])
def test_substrate_index_that_complex_refuses_is_refused_by_name(value):
    # complex() raised its own ValueError or a bare TypeError, naming no field
    with pytest.raises(ValueError, match="^substrate_index must be a complex number or its "
                       "string, got "):
        FilmStack(substrate_index=value)


@pytest.mark.parametrize("model, key, value", [
    (FilmStack, "ambient_index", "x"), (FilmStack, "film_index", "x"),
    (FilmStack, "film_index", None), (FilmStack, "film_thickness_nm", True),
    (NoiseModel, "gaussian_sigma", "x"), (NoiseModel, "gaussian_sigma", True),
    (NoiseModel, "offset_ramp_magnitude", "x"), (NoiseModel, "amplitude_ramp_gain", True),
])
def test_numeric_fields_reject_a_value_of_the_wrong_type(model, key, value):
    kwargs = {} if model is FilmStack or key == "gaussian_sigma" else {"target_snr_db": 20.0}
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        model(**kwargs, **{key: value})


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("ambient_index", "film_index", "film_thickness_nm")
      for value in (math.nan, math.inf, -math.inf)),
    ("substrate_index", "nan+0j"), ("substrate_index", "1+nanj"), ("substrate_index", "inf+0j"),
    ("substrate_index", complex(3.67, math.inf)),
])
def test_non_finite_stack_field_is_refused_by_name(key, value):
    # a NaN passed every range check, and the simulation ended in ReflectanceOverflowError
    with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
        FilmStack(**{key: value})


@pytest.mark.parametrize("key", ["gaussian_sigma", "target_snr_db"])
def test_a_nan_noise_level_is_refused(key):
    # a NaN level drew no noise at all: add_noise returned the clean spectrum unchanged
    with pytest.raises(ValueError, match=f"^{key} must not be NaN$"):
        NoiseModel(**{key: math.nan})


@pytest.mark.parametrize("model, key", [
    (FilmStack, "ambient_index"), (FilmStack, "film_index"), (FilmStack, "film_thickness_nm"),
    (FilmStack, "substrate_index"), (NoiseModel, "gaussian_sigma"),
    (NoiseModel, "target_snr_db"), (NoiseModel, "offset_ramp_magnitude"),
    (NoiseModel, "amplitude_ramp_gain"),
])
def test_a_number_too_large_for_a_float_is_refused_by_name(model, key):
    # each raised a bare OverflowError, or (a ramp) was accepted
    kwargs = {"target_snr_db": 20.0} if key.endswith(("magnitude", "gain")) else {}
    with pytest.raises(ValueError, match=f"^{key} is too large for a float$"):
        model(**kwargs, **{key: 10**400})


@pytest.mark.parametrize("key", ["offset_ramp_magnitude", "amplitude_ramp_gain"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_ramp_is_refused_by_name(key, value):
    # add_noise once raised "spectrum contains non-finite values", which names no field
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=f"^{key} must be finite, got "):
            NoiseModel(target_snr_db=20.0, **{key: value})


def test_an_infinite_snr_target_is_accepted():
    # it draws no noise; an infinite sigma is refused where its rows are drawn (a
    # NoiseOverflowError, test_white_noise_whose_rows_sum_past_the_float_range_is_refused)
    assert NoiseModel(target_snr_db=math.inf).target_snr_db == math.inf


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


@pytest.mark.parametrize("pattern", [(1.0, 1.0), (1.0, -0.5)], ids=["constant", "two-level"])
def test_snr_of_a_noise_power_past_the_float_range(pattern):
    # mean((1e160 * w)**2) overflows to inf; the S/N is still P / (1e320 * mean(w**2)) in dB
    spec = default_spectrum()
    w = np.resize(np.array(pattern), len(spec))
    noisy = Spectrum(spec.wavelengths_nm, spec.reflectance + 1e160 * w)
    expected = 10 * math.log10(ac_power(spec.reflectance)) - 3200 - 10 * math.log10(np.mean(w**2))
    assert math.isclose(measure_snr(spec, noisy), expected, rel_tol=1e-12)


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


def test_white_rows_of_a_silent_model_change_no_bit():
    # -0.0 rows: x + -0.0 is x for every float, -0.0 included
    values = np.array([-0.0, 0.0, 0.25, -1e-300])
    rows = values + white_rows(0.0, values.size, [1, 2])
    npt.assert_array_equal(rows.view(np.int64), np.tile(values, (2, 1)).view(np.int64))


@pytest.mark.parametrize("sigma", [1e307, 1e308, math.inf])
def test_white_noise_whose_rows_sum_past_the_float_range_is_refused(sigma):
    # at 1e308 single draws overflow to inf; at 1e307 each draw is finite, but a row's
    # magnitudes (about 0.8 sigma each) sum past the float range, as every estimator's sums do
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(NoiseOverflowError, match="overflows the float range"):
            white_rows(sigma, len(WAVELENGTHS), [1, 2])
        with pytest.raises(NoiseOverflowError):
            add_noise(default_spectrum(), NoiseModel(gaussian_sigma=sigma, seed=1))
    assert np.isfinite(np.abs(white_rows(1e300, len(WAVELENGTHS), [1, 2])).sum(axis=1)).all()


def test_noise_rows_are_the_ramped_reflectance_plus_the_white_rows():
    spec = default_spectrum()
    model = NoiseModel(gaussian_sigma=2e-3, offset_ramp_magnitude=0.01, amplitude_ramp_gain=0.02)
    white = white_rows(2e-3, len(spec), [5, 6])
    npt.assert_array_equal(ramped_reflectance(spec, model)
                           + white_rows(model.white_sigma(spec), len(spec), [5, 6]),
                           ramped_reflectance(spec, model) + white)
    alone = add_noise(spec, NoiseModel(gaussian_sigma=2e-3, seed=6))  # seed 6's draw
    npt.assert_array_equal(spec.reflectance + white[1], alone.reflectance)


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


@pytest.mark.parametrize("film_index", [1.0, 1.0 + 1e-9])
def test_a_clean_spectrum_without_fringes_is_a_calibration_error(film_index):
    # a film of the ambient index leaves rounding-level fringes; 1e-9 above it they are real
    spec = default_spectrum(FilmStack(film_index=film_index))
    noisy = Spectrum(spec.wavelengths_nm, spec.reflectance + 1e-3)
    checks = (lambda: white_sigma_for_target(spec, 27.7),
              lambda: calibrate_ramp_magnitude(spec, "offset", 7.9),
              lambda: measure_snr(spec, noisy))
    for check in checks:
        if film_index == 1.0:
            with pytest.raises(CalibrationError, match="^clean spectrum has no fringes"):
                check()
        else:
            assert math.isfinite(check())
    assert measure_snr(spec, spec) == math.inf


@pytest.mark.parametrize("sigma", [1e160, 1e300])
def test_calibration_floor_of_a_white_power_past_the_float_range(sigma):
    # the floor is 10 log10 P - 20 log10 sigma, though sigma**2 overflows to inf
    spec = default_spectrum()
    floor = 10 * math.log10(ac_power(spec.reflectance)) - 20 * math.log10(sigma)
    with pytest.raises(CalibrationError, match=f"at {floor:.3f} dB, below"):
        calibrate_ramp_magnitude(spec, "offset", 7.9, white_sigma=sigma)
    # below the floor every magnitude's noise power is inf: no ramp reaches the target
    with pytest.raises(CalibrationError, match="did not converge"):
        calibrate_ramp_magnitude(spec, "offset", floor - 3.0, white_sigma=sigma)


def test_calibration_with_a_white_power_below_the_float_range_is_the_silent_one():
    # 1e-300**2 underflows to 0: the floor is about +6000 dB, not a division by zero
    spec = default_spectrum()
    assert (calibrate_ramp_magnitude(spec, "offset", 7.9, white_sigma=1e-300)
            == calibrate_ramp_magnitude(spec, "offset", 7.9))


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
    for seed in (True, -1, 2**64, 1.0):  # the rule io and the CLI apply to a master seed
        with pytest.raises(ValueError, match="seed must be an integer 0 <= seed < 2"):
            NoiseModel(target_snr_db=20.0, seed=seed)


@pytest.mark.parametrize("points", [8, 768.0, "768", True], ids=["8", "float", "text", "true"])
def test_native_grid_refuses_a_count_that_is_no_integer_of_at_least_16(points):
    with pytest.raises(ValueError, match=r"^points must be an integer >= 16$"):
        NativeGrid(points=points)


@pytest.mark.parametrize("range_nm", [(800.0, 500.0), ("500", "800"), (100.0, 800.0),
                                      (500.0, 3000.0), (500.0, math.inf), (math.nan, 800.0)],
                         ids=["reversed", "text", "below-the-band", "past-the-band", "inf", "nan"])
def test_native_grid_refuses_a_range_outside_the_band_by_name(range_nm):
    with pytest.raises(ValueError, match=r"^range_nm must be two numbers 200 <= low < high <= "
                       r"2000 nm, got "):
        NativeGrid(range_nm)


def test_native_grid_stores_the_checked_range_and_samples_both_ends():
    grid = NativeGrid([500, np.float64(800.0)], np.int32(768))
    assert grid.range_nm == (500.0, 800.0) and all(type(x) is float for x in grid.range_nm)
    assert grid == NativeGrid()  # 768 px over 500-800 nm
    assert np.array_equal(grid.wavelengths(), np.linspace(500.0, 800.0, 768))
    assert grid.wavelengths()[[0, -1]].tolist() == [500.0, 800.0]
