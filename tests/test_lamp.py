"""Tests for Morlet band-pass filtering and the average-phase-difference signal."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    DegenerateAmplitudeError,
    FilmStack,
    LampConfig,
    NoiseModel,
    PeakInfo,
    ResampledSpectrum,
    Spectrum,
    WavenumberGrid,
    add_noise,
    anchor_cycle,
    calibrate_ramp_magnitude,
    design_wavelet,
    filter_spectrum,
    lamp_signal,
    lamp_to_delta_eot,
    normalize_fringes,
    simulate_reflectance,
    unwrap_phase,
    white_sigma_for_target,
)
from fringelab.lamp import (
    _FWHM_TO_SIGMA,
    ENVELOPE_HALF_WIDTH_SIGMAS,
    _baseline_design,
    _carrier,
    _reference_profile,
    _remove_baseline,
    lamp_rows,
)

WAVELENGTHS = np.linspace(500.0, 800.0, 1024)
GRID = WavenumberGrid.from_wavelength_range((500.0, 800.0), 2048)
SIGMA_BAR = (1 / 500.0 + 1 / 800.0) / 2
THICKNESS = 2400.0


def film(delta_n=0.0):
    return simulate_reflectance(FilmStack().with_film_index_shift(delta_n), WAVELENGTHS)


def matched_wavelet(f_c=5760.0, fwhm=1333.0):
    return design_wavelet(PeakInfo(f_c, fwhm, 1.0), GRID.delta_sigma)


def predicted_phase(delta_n):
    return 2 * math.pi * 2 * THICKNESS * delta_n * SIGMA_BAR


# ---------------------------------------------------------------- wavelet


def test_wavelet_envelope_sigma_from_fwhm():
    w = matched_wavelet(fwhm=1333.0)
    expected = 2 * math.sqrt(2 * math.log(2)) / (2 * math.pi * 1333.0)
    assert math.isclose(w.envelope_sigma, expected, rel_tol=1e-12)
    assert math.isclose(expected, 2.812e-4, rel_tol=1e-3)


def test_wavelet_has_unit_energy_and_odd_count():
    w = matched_wavelet()
    samples = np.asarray(w.samples)
    assert samples.size % 2 == 1
    npt.assert_allclose(np.sum(np.abs(samples) ** 2) * w.spacing, 1.0, rtol=1e-12)
    assert w.spacing == GRID.delta_sigma


def test_wavelet_envelope_is_symmetric():
    samples = np.asarray(matched_wavelet().samples)
    npt.assert_allclose(np.abs(samples), np.abs(samples)[::-1], rtol=1e-12)


def test_wavelet_transform_matches_design():
    # transform the samples and measure where the response peaks and how
    # wide it is; both must match the requested design
    w = matched_wavelet(f_c=5760.0, fwhm=1333.0)
    samples = np.asarray(w.samples)
    pad = 2**20
    mag = np.abs(np.fft.fft(samples, n=pad))
    freqs = np.fft.fftfreq(pad, d=w.spacing)
    top = mag.argmax()
    bin_nm = 1.0 / (pad * w.spacing)
    assert abs(freqs[top] - 5760.0) <= bin_nm
    half = mag[top] / 2
    lo = top
    while mag[lo] > half:
        lo -= 1
    hi = top
    while mag[hi] > half:
        hi += 1
    f_lo = freqs[lo] + (freqs[lo + 1] - freqs[lo]) * (half - mag[lo]) / (mag[lo + 1] - mag[lo])
    f_hi = freqs[hi - 1] + (freqs[hi] - freqs[hi - 1]) * (half - mag[hi - 1]) / (mag[hi] - mag[hi - 1])
    assert abs((f_hi - f_lo) / 1333.0 - 1.0) < 0.05


def test_wavelet_design_is_deterministic():
    a = np.asarray(matched_wavelet().samples)
    b = np.asarray(matched_wavelet().samples)
    npt.assert_array_equal(a, b)


def direct_wavelet_samples(f_c, fwhm, delta_sigma):
    """The Morlet design written out in full, with no cached carrier."""
    sigma = _FWHM_TO_SIGMA / (2.0 * math.pi * fwhm)
    half_count = int(math.floor(ENVELOPE_HALF_WIDTH_SIGMAS * sigma / delta_sigma))
    offsets = np.arange(-half_count, half_count + 1) * delta_sigma
    samples = np.exp(1j * 2.0 * math.pi * f_c * offsets)
    samples = samples * np.exp(-(offsets**2) / (2.0 * sigma**2))
    return samples / math.sqrt(np.sum(np.abs(samples) ** 2) * delta_sigma)


@pytest.mark.parametrize("boundary", [256, 2304, 4864])
def test_wavelet_cut_from_cached_carrier_equals_direct_design(boundary):
    _carrier.cache_clear()
    for half_count in (boundary - 1, boundary, boundary + 1):
        # a FWHM whose envelope spans half_count + 0.5 grid steps
        fwhm = (ENVELOPE_HALF_WIDTH_SIGMAS * _FWHM_TO_SIGMA
                / (2.0 * math.pi * (half_count + 0.5) * GRID.delta_sigma))
        for _ in range(2):  # the first design of a reach fills the cache, the second hits it
            wavelet = design_wavelet(PeakInfo(5761.3, fwhm, 1.0), GRID.delta_sigma)
            assert wavelet.samples.size == 2 * half_count + 1
            npt.assert_array_equal(wavelet.samples,
                                   direct_wavelet_samples(5761.3, fwhm, GRID.delta_sigma))
    # boundary - 1 and boundary share one reach, boundary + 1 rounds up to the next
    assert _carrier.cache_info().misses == 2
    assert _carrier.cache_info().hits == 4
    assert not _carrier(5761.3, GRID.delta_sigma, boundary).flags.writeable


def test_baseline_equals_per_row_polyfit_bit_for_bit():
    u = (GRID.sigmas() - GRID.mean_sigma) / ((GRID.sigma_max - GRID.sigma_min) / 2.0)
    fringes = 0.07 * np.cos(2 * np.pi * 5760.0 * GRID.sigmas()) + 0.2 + 0.03 * u**2
    rows = fringes + np.random.default_rng(5).normal(0.0, 2e-3, (6, GRID.n_points))
    expected = np.array([row - np.polyval(np.polyfit(u, row, 2), u) for row in rows])
    npt.assert_array_equal(_remove_baseline(GRID, rows), expected)
    assert all(not array.flags.writeable for array in _baseline_design(GRID))


def test_wavelet_rejects_bad_width():
    with pytest.raises(ValueError):
        design_wavelet(PeakInfo(5760.0, 0.0, 1.0), GRID.delta_sigma)


# ----------------------------------------------------------------- filter


def test_filter_requires_matching_spacing():
    w = matched_wavelet()
    other = WavenumberGrid.from_wavelength_range((500.0, 800.0), 1024)
    with pytest.raises(ValueError):
        filter_spectrum(ResampledSpectrum(other, np.zeros(1024)), w)


@pytest.mark.parametrize("fwhm, shortest, longest", [
    (4 * 1333.0, 1, 2047), (2 * 1333.0, 2048, 4095), (1333.0, 4096, math.inf),
], ids=["shorter-than-n", "up-to-2n-1", "longer-than-2n-1"])
def test_filter_is_the_centred_direct_convolution(fwhm, shortest, longest):
    # a 1333 nm FWHM gives the default design; the filter crops it to the taps within n - 1
    rng = np.random.default_rng(8)
    values = np.cos(2 * np.pi * 5760.0 * GRID.sigmas()) + rng.normal(0.0, 0.1, 2048)
    w = matched_wavelet(fwhm=fwhm)
    assert shortest <= w.samples.size <= longest
    filtered = filter_spectrum(ResampledSpectrum(GRID, values), w)
    # np.convolve's "same" keeps max(n, m) points; the filter keeps the data's
    # n points of the full convolution, starting at c = (m - 1) // 2
    c = (w.samples.size - 1) // 2
    expected = np.convolve(values, w.samples)[c : c + values.size] * GRID.delta_sigma
    npt.assert_allclose(filtered.complex_values, expected, rtol=1e-12)


def test_filtered_tone_phase_slope():
    sigmas = GRID.sigmas()
    tone = np.cos(2 * np.pi * 5760.0 * sigmas)
    filtered = filter_spectrum(ResampledSpectrum(GRID, tone), matched_wavelet())
    phase = np.unwrap(np.angle(filtered.complex_values))
    central = slice(int(0.2 * 2048), int(0.8 * 2048))
    slope = np.polyfit(sigmas[central], phase[central], 1)[0]
    assert abs(slope / (2 * math.pi * 5760.0) - 1.0) < 0.01


def test_filter_annihilates_removed_mean():
    # a constant input carries no fringe information; once the mean is gone
    # the filter sees zeros and returns zeros
    values = np.full(2048, 0.25)
    filtered = filter_spectrum(ResampledSpectrum(GRID, values - values.mean()), matched_wavelet())
    assert np.abs(filtered.complex_values).max() == 0.0


def test_filter_gain_at_zero_frequency_is_negligible():
    # the band-pass response at DC for the default design is far below the
    # 1e-2 amplitude (40 dB power) mark
    w = matched_wavelet()
    gain = math.exp(-((2 * math.pi * 5760.0) ** 2) * w.envelope_sigma**2 / 2)
    assert gain < 1e-4


def test_filtered_phase_tolerates_small_additive_drift():
    # drift leaks only through the data edges (zero extension); a ramp a few
    # percent of the carrier leaves the central phase at the 1e-3 rad level,
    # scaling linearly with the drift size
    sigmas = GRID.sigmas()
    tone = np.cos(2 * np.pi * 5760.0 * sigmas)
    ramp = 0.015 * (sigmas - sigmas[0]) / (sigmas[-1] - sigmas[0])
    w = matched_wavelet()
    clean = filter_spectrum(ResampledSpectrum(GRID, tone), w)
    drifted = filter_spectrum(ResampledSpectrum(GRID, tone + ramp), w)
    central = slice(int(0.2 * 2048), int(0.8 * 2048))
    d = (np.unwrap(np.angle(drifted.complex_values))
         - np.unwrap(np.angle(clean.complex_values)))[central]
    assert math.sqrt(np.mean(d**2)) <= 1e-3


# ------------------------------------------------------------- normalize


def test_normalized_fringes_stay_bounded():
    sigmas = GRID.sigmas()
    tone = 0.07 * np.cos(2 * np.pi * 5760.0 * sigmas) + 0.02 * np.sin(2 * np.pi * 5100.0 * sigmas)
    filtered = filter_spectrum(ResampledSpectrum(GRID, tone), matched_wavelet())
    norm = normalize_fringes(filtered)
    assert np.all(norm >= -1.0) and np.all(norm <= 1.0)


def test_normalized_fringes_recover_unit_cosine():
    sigmas = GRID.sigmas()
    tone = np.cos(2 * np.pi * 5760.0 * sigmas)
    filtered = filter_spectrum(ResampledSpectrum(GRID, tone), matched_wavelet())
    norm = normalize_fringes(filtered)
    central = slice(int(0.2 * 2048), int(0.8 * 2048))
    phase = np.unwrap(np.angle(filtered.complex_values))
    offset = np.angle(np.mean(np.exp(1j * (phase[central] - 2 * np.pi * 5760.0 * sigmas[central]))))
    model = np.cos(2 * np.pi * 5760.0 * sigmas[central] + offset)
    assert math.sqrt(np.mean((norm[central] - model) ** 2)) < 0.05


def test_normalize_rejects_collapsed_amplitude():
    filtered = filter_spectrum(ResampledSpectrum(GRID, np.zeros(2048)), matched_wavelet())
    with pytest.raises(DegenerateAmplitudeError):
        normalize_fringes(filtered)


# -------------------------------------------------------- unwrap / anchor


def test_unwrap_leaves_smooth_phase_alone():
    phase = np.linspace(0.0, 3.0, 50)
    npt.assert_array_equal(unwrap_phase(phase), phase)


def test_unwrap_single_step():
    out = unwrap_phase(np.array([3.0, -3.0]))
    npt.assert_allclose(out, [3.0, 2 * math.pi - 3.0], rtol=1e-12)


def test_unwrap_round_trips_a_ramp():
    ramp = np.linspace(0.0, 6 * math.pi, 200)
    wrapped = np.angle(np.exp(1j * ramp))
    npt.assert_allclose(unwrap_phase(wrapped), ramp, atol=1e-9)


def test_unwrap_shifts_by_whole_cycles_only():
    rng = np.random.default_rng(17)
    phase = np.cumsum(rng.uniform(-2.5, 2.5, 300))
    wrapped = np.angle(np.exp(1j * phase))
    steps = (unwrap_phase(wrapped) - wrapped) / (2 * math.pi)
    npt.assert_allclose(steps, np.round(steps), atol=1e-9)


def test_anchor_no_slip_when_already_close():
    u = np.array([1.0, 1.1, 1.2])
    out = anchor_cycle(u, coarse_eot_nm=1.0 / (2 * math.pi * 0.00125), sigma_min=0.00125)
    npt.assert_array_equal(out, u)


def test_anchor_restores_three_cycles():
    coarse = 5760.0
    sigma_min = 0.00125
    target = 2 * math.pi * coarse * sigma_min
    u = np.array([target - 6 * math.pi, target - 6 * math.pi + 0.5])
    out = anchor_cycle(u, coarse, sigma_min)
    npt.assert_allclose(out[0], target, rtol=1e-12)


def test_anchoring_survives_cycle_boundary():
    # dn = 0.14 pushes the absolute phase at the low-wavenumber edge across
    # a whole-cycle boundary; a slip would shift the signal by 2*pi
    signal = lamp_signal(film(), film(0.14))
    assert abs(signal - predicted_phase(0.14)) < 0.2
    assert abs(signal / predicted_phase(0.14) - 1.0) < 0.01


# ------------------------------------------------------------ the signal


def test_signal_zero_for_identical_inputs():
    spec = film()
    assert lamp_signal(spec, spec) == 0.0


def test_signal_matches_analytic_phase_shift():
    signal = lamp_signal(film(), film(1e-3))
    assert abs(signal / predicted_phase(1e-3) - 1.0) < 0.02


def test_signal_linear_in_index_shift():
    reference = film()
    shifts = np.array([1e-4, 5e-4, 1e-3, 2e-3, 5e-3])
    signals = np.array([lamp_signal(reference, film(dn)) for dn in shifts])
    slope = np.polyfit(shifts, signals, 1)[0]
    ideal = 4 * math.pi * THICKNESS * SIGMA_BAR
    assert abs(slope / ideal - 1.0) < 0.03


def test_signal_antisymmetric():
    a, b = film(), film(1e-3)
    assert abs(lamp_signal(a, b) + lamp_signal(b, a)) <= 1e-9


def test_signal_ignores_amplitude_scaling():
    a, b = film(), film(1e-3)
    scaled = Spectrum(b.wavelengths_nm, b.reflectance * 3.7)
    assert abs(lamp_signal(a, scaled) - lamp_signal(a, b)) < 1e-6


def test_signal_ignores_constant_offset():
    a, b = film(), film(1e-3)
    shifted = Spectrum(b.wavelengths_nm, b.reflectance + 0.5)
    assert abs(lamp_signal(a, shifted) - lamp_signal(a, b)) < 1e-9


def test_signal_tolerates_calibrated_offset_ramp():
    a, b = film(), film(1e-3)
    sigma = white_sigma_for_target(a, 27.7)
    mag = calibrate_ramp_magnitude(a, "offset", 7.9, white_sigma=sigma)
    ramped = add_noise(b, NoiseModel(gaussian_sigma=0.0, offset_ramp_magnitude=mag, seed=0))
    base = lamp_signal(a, b)
    disturbed = lamp_signal(a, ramped)
    assert abs(disturbed - base) / base < 0.05
    assert abs(disturbed - base) < 5e-3


def test_signal_tolerates_calibrated_amplitude_ramp():
    a, b = film(), film(1e-3)
    sigma = white_sigma_for_target(a, 27.7)
    gain = calibrate_ramp_magnitude(a, "amplitude", 7.7, white_sigma=sigma)
    ramped = add_noise(b, NoiseModel(gaussian_sigma=0.0, amplitude_ramp_gain=gain, seed=0))
    base = lamp_signal(a, b)
    assert abs(lamp_signal(a, ramped) - base) / base < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        LampConfig(range_nm=(800.0, 500.0))
    with pytest.raises(ValueError):
        LampConfig(n_points=8)


# ------------------------------------------------------- unit conversion


def test_phase_to_thickness_identities():
    assert lamp_to_delta_eot(0.0, GRID) == 0.0
    x = 123.456
    assert math.isclose(
        lamp_to_delta_eot(2 * math.pi * GRID.mean_sigma * x, GRID), x, rel_tol=1e-12)


def test_phase_converts_to_thickness_shift():
    assert abs(lamp_to_delta_eot(0.0490, GRID) - 4.8) < 0.1
    signal = lamp_signal(film(), film(1e-3))
    assert abs(lamp_to_delta_eot(signal, GRID) / 4.8 - 1.0) < 0.02


# ------------------------------------------- reference cache and stacks


def noisy_rows(count=5, seed=3):
    """Noisy analytes at several shifts, two of them with drift ramps."""
    reference = film()
    sigma = white_sigma_for_target(reference, 27.7)
    rows = []
    for i, dn in enumerate(np.linspace(0.0, 2e-3, count)):
        model = NoiseModel(gaussian_sigma=sigma, offset_ramp_magnitude=0.01 * (i == 1),
                           amplitude_ramp_gain=0.05 * (i == 2), seed=seed + i)
        rows.append(add_noise(film(dn), model).reflectance)
    return np.array(rows)


def test_cache_hit_returns_the_fresh_value():
    a, b = film(), film(1e-3)
    _reference_profile.cache_clear()
    fresh = lamp_signal(a, b)
    hits = _reference_profile.cache_info().hits
    assert lamp_signal(a, b) == fresh
    assert _reference_profile.cache_info().hits == hits + 1


def test_cached_reference_profile_is_read_only():
    a, b = film(), film(1e-3)
    lamp_signal(a, b)
    phase = _reference_profile(
        LampConfig(), a.wavelengths_nm.tobytes(), a.reflectance.tobytes())
    assert not phase.flags.writeable


def test_mutated_reference_array_is_not_served_stale():
    values = film().reflectance.copy()
    reference = Spectrum(WAVELENGTHS, values)
    assert np.shares_memory(reference.reflectance, values)
    analyte = film(1e-3)
    before = lamp_signal(reference, analyte)
    values[:] = film(2e-3).reflectance
    after = lamp_signal(reference, analyte)
    assert after != before
    assert after == lamp_signal(film(2e-3), analyte)


def test_list_range_still_works():
    a, b = film(), film(1e-3)
    listed = LampConfig(range_nm=[520.0, 780.0])
    assert lamp_signal(a, b, listed) == lamp_signal(a, b, LampConfig(range_nm=(520.0, 780.0)))


@pytest.mark.parametrize("cfg", [LampConfig()], ids=["per-row-wavelet"])
def test_stack_equals_rows_one_at_a_time(cfg):
    reference, rows = film(), noisy_rows()
    single = [lamp_signal(reference, Spectrum(WAVELENGTHS, row), cfg) for row in rows]
    assert lamp_rows(reference, WAVELENGTHS, rows, cfg) == single
    assert lamp_rows(reference, WAVELENGTHS, rows[1:4], cfg) == single[1:4]


@pytest.mark.parametrize("rows, count", [(3, 2), (2, 3)])
def test_filter_needs_one_wavelet_per_row(rows, count):
    stack = np.zeros((rows, 2048))
    with pytest.raises(ValueError, match="one wavelet per row"):
        filter_spectrum(ResampledSpectrum(GRID, stack), [matched_wavelet()] * count)


@pytest.mark.parametrize("shared", [False, True], ids=["own-wavelets", "shared-wavelet"])
def test_block_filter_equals_the_per_row_transform_bit_for_bit(shared):
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(6, 2048))
    # the default design is cropped to n - 1 taps each side, a 4x wider band is kept whole
    wide, narrow = matched_wavelet(), matched_wavelet(fwhm=4 * 1333.0)
    wavelets = [wide, narrow, wide, matched_wavelet(5800.0), narrow, wide]
    if shared:
        wavelets = [wide] * 6
    filtered = filter_spectrum(ResampledSpectrum(GRID, stack), wavelets).complex_values
    size = 4096  # the power of two >= 2n - 1
    for row, w, values in zip(stack, wavelets, filtered):
        # the row-at-a-time transform, kept as the reference: the wavelet's taps within
        # +/-h of its centre, wrapped around index 0
        c = (w.samples.size - 1) // 2
        h = min(c, row.size - 1)
        kernel = np.zeros(size, dtype=complex)
        kernel[: h + 1], kernel[size - h :] = w.samples[c : c + h + 1], w.samples[c - h : c]
        full = np.fft.ifft(np.fft.fft(row, size) * np.fft.fft(kernel))
        npt.assert_array_equal(values, full[: row.size] * GRID.delta_sigma)


@pytest.mark.parametrize("n", [2048, 1500, 768])
def test_stacked_filter_matches_per_row_filter_across_wavelet_lengths(n):
    grid = WavenumberGrid.from_wavelength_range((500.0, 800.0), n)
    stack = np.random.default_rng(4).normal(size=(4, n))
    # shorter than the data, up to 2n - 1, and longer (the default design): one transform size
    wavelets = [design_wavelet(PeakInfo(5760.0, scale * 1333.0, 1.0), grid.delta_sigma)
                for scale in (1.0, 4.0, 2.0, 1.0)]
    sizes = [w.samples.size for w in wavelets]
    assert sizes[1] < n <= sizes[2] < 2 * n - 1 < sizes[0]
    together = filter_spectrum(ResampledSpectrum(grid, stack), wavelets).complex_values
    for row, wavelet, values in zip(stack, wavelets, together):
        npt.assert_array_equal(values, filter_spectrum(ResampledSpectrum(grid, row),
                                                       wavelet).complex_values)


def test_stack_phase_means_equal_the_per_row_means_bit_for_bit():
    # lamp_rows reduces a stack in one step; each row's mean sums as a lone row's does
    rng = np.random.default_rng(9)
    for _ in range(2000):
        rows, n = int(rng.integers(1, 10)), int(rng.integers(2, 3000))
        phases, ref_phase = rng.normal(size=(rows, n)), rng.normal(size=n)
        trim = int(rng.integers(0, n // 2))
        means = (phases - ref_phase)[:, trim : n - trim].mean(axis=1).tolist()
        assert means == [float((phase - ref_phase)[trim : n - trim].mean()) for phase in phases]
