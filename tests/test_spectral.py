"""Tests for the transform stage and fringe-peak measurement.

The reference oracle here is direct evaluation of the transform sum, so
the fast paths (rfft, and the coarse-bracket plus exact-bin measurement of
padded peaks) are checked against arithmetic that shares no code with them;
the padded measurement is also checked against the full padded transform.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    FilmStack,
    NoFringePeakError,
    NoiseModel,
    PeakMeasurementError,
    WavenumberGrid,
    add_noise,
    dft,
    dominant_peak,
    hann_window,
    padded_peak,
    simulate_reflectance,
    to_wavenumber,
)
from fringelab.spectral import (
    _first_at_or_below,
    _full_padded_peak,
    _modulation,
    _plan,
    padded_peak_rows,
)


def direct_bins(values, delta_sigma, n_transform, bins):
    """Evaluate zero-padded transform bins by direct summation."""
    j = np.arange(values.size)
    out = np.empty(len(bins), dtype=complex)
    for i, k in enumerate(bins):
        out[i] = np.sum(values * np.exp(-2j * np.pi * k * j / n_transform))
    freqs = np.asarray(bins) / (n_transform * delta_sigma)
    return out, freqs


def fringe_values(n=2048, frequency_nm=5760.0, noise=0.0, seed=0):
    grid = WavenumberGrid.from_wavelength_range((500.0, 800.0), n)
    sigmas = grid.sigmas()
    values = 0.07 * np.cos(2 * np.pi * frequency_nm * sigmas)
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise, n)
    return values, grid.delta_sigma


def test_transform_matches_direct_summation():
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 1.0, 256)
    delta_sigma = 3.7e-7
    spectrum = dft(values, delta_sigma)
    expected, freqs = direct_bins(values, delta_sigma, 256, np.arange(129))
    npt.assert_allclose(spectrum.amplitudes, expected, rtol=1e-9, atol=1e-9)
    npt.assert_allclose(spectrum.frequencies_nm, freqs, rtol=1e-12)


def test_transform_preserves_power():
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 1.0, 512)
    spectrum = dft(values, 1e-6)
    amps = spectrum.amplitudes
    folded = np.abs(amps[0]) ** 2 + np.abs(amps[-1]) ** 2 + 2 * np.sum(np.abs(amps[1:-1]) ** 2)
    npt.assert_allclose(folded / 512, np.sum(values**2), rtol=1e-9)


def test_peak_center_matches_direct_argmax():
    # the reported center must be the argmax bin of the padded transform;
    # recompute the candidate bins by direct summation
    values, delta_sigma = fringe_values()
    pad = 2**18
    peak = padded_peak(values, delta_sigma, pad)
    center_bin = round(peak.center_frequency_nm * pad * delta_sigma)
    bins = np.arange(center_bin - 6, center_bin + 7)
    mags, freqs = direct_bins(values, delta_sigma, pad, bins)
    assert np.abs(mags).argmax() == 6
    assert math.isclose(peak.center_frequency_nm, freqs[6], rel_tol=1e-12)


def test_peak_power_matches_direct_bin():
    values, delta_sigma = fringe_values()
    pad = 2**18
    peak = padded_peak(values, delta_sigma, pad)
    center_bin = round(peak.center_frequency_nm * pad * delta_sigma)
    mags, _ = direct_bins(values, delta_sigma, pad, [center_bin])
    npt.assert_allclose(peak.peak_power, np.abs(mags[0]) ** 2, rtol=1e-9)


def test_peak_fwhm_of_unwindowed_cosine():
    # rectangular data window: the magnitude main lobe is |sinc| with
    # full width 1.2067 / span at half maximum
    values, delta_sigma = fringe_values()
    span = 2047 * delta_sigma
    peak = padded_peak(values, delta_sigma, 2**21)
    assert abs(peak.fwhm_nm / (1.2067 / span) - 1.0) < 0.02


RAMPS = {
    "none": {},
    "offset": {"offset_ramp_magnitude": 0.02},
    "amplitude": {"amplitude_ramp_gain": 0.3},
}


def front_end_values(style, ramp, seed=3):
    """Noisy fringes: a bare cosine, or a film spectrum through the lamp or rifts front end."""
    if style == "cosine":
        return fringe_values(noise=2e-3, seed=seed)
    clean = simulate_reflectance(FilmStack(), np.linspace(500.0, 800.0, 768))
    noisy = add_noise(clean, NoiseModel(target_snr_db=27.7, seed=seed, **RAMPS[ramp]))
    if style == "lamp":  # linear resample, quadratic baseline removed, no window
        resampled = to_wavenumber(noisy, method="linear")
        u = np.linspace(-1.0, 1.0, resampled.values.size)
        values = resampled.values - np.polyval(np.polyfit(u, resampled.values, 2), u)
    else:  # cubic resample, mean removed, Hann window
        resampled = to_wavenumber(noisy)
        values = resampled.values - resampled.values.mean()
        values = values * hann_window(values.size)
    return values, resampled.grid.delta_sigma


@pytest.mark.parametrize(
    "style, ramp, pad, refine",
    [
        ("cosine", "none", 2**21, False),
        ("lamp", "none", 2**21, False),
        ("lamp", "offset", 2**21, False),
        ("lamp", "amplitude", 2**18, False),
        ("lamp", "none", 2**17, False),
        ("rifts", "none", 2**21, False),
        ("rifts", "offset", 2**18, False),
        ("rifts", "amplitude", 2**21, False),
        ("rifts", "amplitude", 2**17, False),
        ("lamp", "offset", 3 * 2**17, False),  # not a power of two
        ("rifts", "none", 5 * 3**11, False),  # odd: the coarse grid stops short of the last bin
        ("lamp", "none", 2**21, True),
        ("rifts", "offset", 2**21, True),
    ],
)
def test_padded_peak_matches_full_transform(style, ramp, pad, refine):
    values, delta_sigma = front_end_values(style, ramp)
    fast = padded_peak(values, delta_sigma, pad, refine=refine)
    slow = _full_padded_peak(values, delta_sigma, pad, 1000.0, refine)
    # The parabolic refinement divides by a second difference of nearly equal
    # magnitudes, which amplifies rounding; unrefined centers are bins, exactly equal.
    npt.assert_allclose(fast.center_frequency_nm, slow.center_frequency_nm,
                        rtol=1e-12 if refine else 0.0)
    npt.assert_allclose(fast.fwhm_nm, slow.fwhm_nm, rtol=1e-12)
    npt.assert_allclose(fast.peak_power, slow.peak_power, rtol=1e-12)


@pytest.mark.parametrize("pad", [2**17, 2**18, 2**21, 3 * 2**17, 5 * 3**11])
@pytest.mark.parametrize("refine", [False, True])
def test_stacked_peaks_equal_single_rows_bit_for_bit(pad, refine):
    cases = [("cosine", "none")] + [(style, ramp) for style in ("lamp", "rifts") for ramp in RAMPS]
    rows, deltas = zip(*(front_end_values(style, ramp) for style, ramp in cases))
    assert len(set(deltas)) == 1  # one grid, so one stack
    stacked = padded_peak_rows(np.array(rows), deltas[0], pad, 1000.0, refine)
    assert stacked == [padded_peak(row, deltas[0], pad, refine=refine) for row in rows]


@pytest.mark.parametrize("size", [1, 63, 64, 65, 1000])
def test_first_at_or_below_finds_a_lone_hit_inside_or_past_the_first_window(size):
    for hit in (0, 62, 63, 64, 65, size - 1):
        if 0 <= hit < size:
            walk = np.ones(size)
            walk[hit] = 0.5
            assert _first_at_or_below(walk, 0.5) == hit
            assert _first_at_or_below(walk[::-1], 0.5) == size - 1 - hit
    assert _first_at_or_below(np.ones(size), 0.5) is None


def test_cached_plans_are_read_only():
    values, delta_sigma = fringe_values()
    padded_peak(values, delta_sigma, 2**18)
    assert not _plan(values.size, 2**18)[1].flags.writeable
    assert not _modulation(values.size, 2**18, 100).flags.writeable


def test_no_peak_above_cutoff():
    values = np.full(2048, 0.25)
    with pytest.raises(NoFringePeakError):
        padded_peak(values, 3.663898e-7, 2**18)


def test_flat_magnitude_has_no_peak():
    # an impulse transforms to a constant magnitude: no local maximum
    values = np.zeros(2048)
    values[0] = 1.0
    with pytest.raises(NoFringePeakError):
        padded_peak(values, 3.663898e-7, 2**18)


def test_half_maximum_must_be_reachable():
    # craft a spectrum whose floor stays above half of the lone peak
    mags = np.full(257, 1.2)
    mags[100] = 2.0
    values = np.fft.irfft(mags.astype(complex), n=512)
    delta_sigma = 100 / (512 * 1500.0)  # puts the bump at 1500 nm
    with pytest.raises(PeakMeasurementError):
        dominant_peak(dft(values, delta_sigma))


def test_parabolic_refinement_improves_off_bin_center():
    values, delta_sigma = fringe_values(frequency_nm=5761.3)
    pad = 2**15  # coarse bins so the true frequency sits between them
    coarse = padded_peak(values, delta_sigma, pad)
    refined = padded_peak(values, delta_sigma, pad, refine=True)
    true_f = 5761.3
    assert abs(refined.center_frequency_nm - true_f) < abs(coarse.center_frequency_nm - true_f)


def test_input_validation():
    values, delta_sigma = fringe_values()
    with pytest.raises(ValueError):
        dft(values[:8], delta_sigma)
    with pytest.raises(ValueError):
        padded_peak(values, delta_sigma, 1024)  # pad shorter than data
    with pytest.raises(ValueError):
        dft(values, -1e-7)
