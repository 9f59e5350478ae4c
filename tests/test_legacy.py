"""Tests for the transform-peak and integrated-difference estimators."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    FilmStack,
    GridAlignmentError,
    Spectrum,
    WindowConfig,
    hann_window,
    iaw,
    rifts_eot,
    simulate_reflectance,
    to_wavenumber,
)
from fringelab.errors import FringelabError, PeakMeasurementError, WavelengthRangeError
from fringelab.legacy import _taper, iaw_rows, rifts_front, rifts_rows
from fringelab.spectral import _full_padded_peak, _peak_centre, padded_centre_rows, padded_peak
from fringelab.wavegrid import default_pad_length

WAVELENGTHS = np.linspace(500.0, 800.0, 1024)


def film(delta_n=0.0, thickness=2400.0):
    stack = FilmStack(film_thickness_nm=thickness).with_film_index_shift(delta_n)
    return simulate_reflectance(stack, WAVELENGTHS)


def test_recovers_default_optical_thickness():
    assert abs(rifts_eot(film()) - 5760.0) <= 2.0


def test_recovers_thicker_film():
    assert abs(rifts_eot(film(thickness=3600.0)) - 8640.0) <= 2.0


def test_peak_is_true_argmax_of_windowed_transform():
    # rebuild the windowed sequence and check the reported frequency is the
    # argmax bin of its padded transform by direct summation
    spec = film()
    resampled = to_wavenumber(spec, WindowConfig(), method="cubic_spline")
    values = (resampled - resampled.mean()) * hann_window(2048)
    delta_sigma = WindowConfig().delta_sigma
    pad = 2**21
    eot = rifts_eot(spec)
    center_bin = round(eot * pad * delta_sigma)
    j = np.arange(values.size)
    mags = [
        abs(np.sum(values * np.exp(-2j * np.pi * k * j / pad)))
        for k in range(center_bin - 3, center_bin + 4)
    ]
    assert int(np.argmax(mags)) == 3
    assert math.isclose(eot, center_bin / (pad * delta_sigma), rel_tol=1e-12)


def test_index_shift_moves_peak_by_twice_thickness():
    base = rifts_eot(film())
    shifted = rifts_eot(film(delta_n=0.01))
    # 2 L dn = 48 nm; transform leakage biases the peak by a few nm
    assert abs((shifted - base) - 48.0) <= 3.0


def test_peak_location_ignores_scaling():
    spec = film()
    scaled = Spectrum(spec.wavelengths_nm, spec.reflectance * 2.5)
    assert rifts_eot(scaled) == rifts_eot(spec)


def test_iaw_zero_for_identical_inputs():
    spec = film()
    assert iaw(spec, spec) == 0.0


def test_iaw_symmetric_in_its_arguments():
    a, b = film(), film(delta_n=5e-4)
    assert math.isclose(iaw(a, b), iaw(b, a), rel_tol=1e-12)


def test_iaw_grows_with_small_shifts():
    a = film()
    responses = [iaw(a, film(delta_n=dn)) for dn in (1e-4, 5e-4, 1e-3)]
    assert responses[0] < responses[1] < responses[2]


def test_iaw_folds_past_half_fringe_shift():
    # the average wavenumber sets a half-period near dn = 0.064 for this
    # film; past it the integrated difference turns back down
    a = film()
    near_half = iaw(a, film(delta_n=0.064))
    wrapped = iaw(a, film(delta_n=0.128))
    assert wrapped < near_half


def test_iaw_subrange_matches_manual_mask():
    a, b = film(), film(delta_n=5e-4)
    cfg = WindowConfig(range_nm=(600.0, 700.0))
    mask = (a.wavelengths_nm >= 600.0) & (a.wavelengths_nm <= 700.0)
    diff = b.reflectance[mask] - a.reflectance[mask]
    diff = diff - diff.mean()
    assert math.isclose(iaw(a, b, cfg), np.abs(diff).mean(), rel_tol=1e-12)


@pytest.mark.parametrize("range_nm", [(800.0, 500.0), (600.0, 600.0), (0.0, 800.0),
                                      (500.0, 800.0, 900.0), ("500", "800"), (500.0, "800")],
                         ids=["reversed", "empty", "from-zero", "three-numbers", "text",
                              "one-text"])
def test_window_config_validates_its_range(range_nm):
    with pytest.raises(ValueError, match="low.*high"):
        WindowConfig(range_nm)


def test_iaw_window_with_fewer_than_two_samples_is_a_range_error():
    a = film()
    with pytest.raises(WavelengthRangeError, match="fewer than two") as caught:
        iaw(a, a, WindowConfig(range_nm=(600.0, 600.1)))
    assert isinstance(caught.value, FringelabError) and isinstance(caught.value, ValueError)


def test_iaw_rejects_mismatched_grids():
    a = film()
    b = Spectrum(a.wavelengths_nm + 0.5, a.reflectance)
    with pytest.raises(GridAlignmentError):
        iaw(a, b)


@pytest.mark.parametrize("window", [(500.0, 800.0), (600.0, 700.0)], ids=["full", "sub"])
def test_iaw_stack_equals_rows_one_at_a_time_bit_for_bit(window):
    reference, cfg = film(), WindowConfig(range_nm=window)
    rng = np.random.default_rng(9)
    rows = np.array([film(dn).reflectance + rng.normal(0.0, 0.005, WAVELENGTHS.size)
                     for dn in np.linspace(0.0, 2e-3, 8)])
    # the single-spectrum reduction over a column mask, kept as the reference
    mask = (WAVELENGTHS >= window[0]) & (WAVELENGTHS <= window[1])
    assert mask.all() == (window == (500.0, 800.0))
    expected = []
    for row in rows:
        diff = row[mask] - reference.reflectance[mask]
        expected.append(float(np.abs(diff - diff.mean()).mean()))
    assert iaw_rows(reference, rows, cfg) == expected
    assert [iaw(reference, Spectrum(WAVELENGTHS, row), cfg) for row in rows] == expected


def test_iaw_stack_keeps_the_single_spectrum_errors():
    reference, rows = film(), np.tile(film(1e-3).reflectance, (3, 1))
    with pytest.raises(GridAlignmentError):
        iaw_rows(reference, rows[:, 1:])
    with pytest.raises(WavelengthRangeError):
        iaw_rows(reference, rows, WindowConfig(range_nm=(600.0, 600.1)))
    rows[1, 5] = np.nan  # a non-finite row is a bug in the caller, not a domain failure
    with pytest.raises(ValueError, match="non-finite") as caught:
        iaw_rows(reference, rows)
    assert not isinstance(caught.value, FringelabError)


def low_fringe():
    """Fringes at 1500 nm: the lobe's left half-maximum lies below bin 0 of the transform."""
    return Spectrum(WAVELENGTHS, 0.3 + 0.05 * np.cos(2 * np.pi * 1500.0 / WAVELENGTHS))


def test_rifts_reads_the_peak_bin_where_the_width_is_unmeasurable():
    # rifts never reads the half-maximum crossings, so one off the spectrum fails no row
    spec = low_fringe()
    resampled = to_wavenumber(spec, WindowConfig(), method="cubic_spline")
    values = (resampled - resampled.mean()) * hann_window(2048)
    delta_sigma = WindowConfig().delta_sigma
    pad = default_pad_length(delta_sigma)
    with pytest.raises(PeakMeasurementError):
        padded_peak(values, delta_sigma, pad)
    assert rifts_eot(spec) == _full_padded_peak(values, delta_sigma, pad, _peak_centre)


@pytest.mark.parametrize("cfg", [WindowConfig()], ids=["bin"])
def test_stack_equals_rows_one_at_a_time(cfg):
    # the last row's peak has no measurable width, which rifts does not read
    rng = np.random.default_rng(6)
    rows = np.array([film(dn).reflectance + rng.normal(0.0, 0.005, WAVELENGTHS.size)
                     for dn in (0.0, 1e-3, 5e-3, 1e-2)] + [low_fringe().reflectance])
    single = [rifts_eot(Spectrum(WAVELENGTHS, row), cfg) for row in rows]
    assert rifts_rows(WAVELENGTHS, rows, cfg) == single
    assert rifts_rows(WAVELENGTHS, rows[2:], cfg) == single[2:]


def test_summed_fronts_give_the_signals_of_the_summed_stack():
    # the front is linear: clean rows' front plus noise rows' front, broadcast over the noise
    # rows, equals the front of each sum to rounding, so no peak bin and no signal moves
    rng = np.random.default_rng(8)
    clean = np.array([film(1e-3).reflectance])
    noise = rng.normal(0.0, 0.005, (6, WAVELENGTHS.size))
    summed = rifts_front(WAVELENGTHS, clean) + rifts_front(WAVELENGTHS, noise)
    direct = rifts_front(WAVELENGTHS, clean + noise)
    npt.assert_allclose(summed.values, direct.values, rtol=0, atol=1e-15)
    npt.assert_allclose(summed.spectra, direct.spectra, rtol=0, atol=1e-12)
    assert padded_centre_rows(summed) == rifts_rows(WAVELENGTHS, clean + noise)
    assert padded_centre_rows(summed[2:4]) == rifts_rows(WAVELENGTHS, (clean + noise)[2:4])
    with pytest.raises(ValueError, match="different grids"):
        summed + rifts_front(WAVELENGTHS, noise, WindowConfig(range_nm=(520.0, 780.0)))


def test_list_range_still_works():
    listed = WindowConfig(range_nm=[520.0, 780.0])
    assert rifts_eot(film(), listed) == rifts_eot(film(), WindowConfig(range_nm=(520.0, 780.0)))


def test_taper_is_hann_window_computed_once_per_length():
    taper = _taper(2048)
    assert taper is _taper(2048)
    assert not taper.flags.writeable
    assert np.array_equal(taper, hann_window(2048))
    assert hann_window(2048) is not hann_window(2048)  # the public window stays uncached
