"""Tests for the transform stage and fringe-peak measurement.

The reference oracle here is direct evaluation of the transform sum, so
the fast paths (rfft, and the coarse-bracket plus exact-bin measurement of
padded peaks) are checked against arithmetic that shares no code with them;
the padded measurement is also checked against the full padded transform.
"""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import fringelab.spectral as spectral
from fringelab import (
    FilmStack,
    NoFringePeakError,
    NoiseModel,
    PeakMeasurementError,
    WindowConfig,
    add_noise,
    default_pad_length,
    dft,
    hann_window,
    padded_peak,
    simulate_reflectance,
    to_wavenumber,
)
from fringelab.spectral import (
    BASE_BINS,
    LOW_CUTOFF_NM,
    _first_at_or_below,
    _full_padded_peak,
    _modulation,
    _plan,
    padded_peak_rows,
    padded_stack,
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
    sigmas = np.linspace(1 / 800.0, 1 / 500.0, n)  # a 500-800 nm grid of n points
    values = 0.07 * np.cos(2 * np.pi * frequency_nm * sigmas)
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise, n)
    return values, (1 / 500.0 - 1 / 800.0) / (n - 1)


def test_transform_matches_direct_summation():
    rng = np.random.default_rng(42)
    values = rng.normal(0.0, 1.0, 256)
    delta_sigma = 3.7e-7
    frequencies, amplitudes = dft(values, delta_sigma)
    expected, freqs = direct_bins(values, delta_sigma, 256, np.arange(129))
    npt.assert_allclose(amplitudes, expected, rtol=1e-9, atol=1e-9)
    npt.assert_allclose(frequencies, freqs, rtol=1e-12)


def test_transform_preserves_power():
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 1.0, 512)
    amps = dft(values, 1e-6)[1]
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
        u = np.linspace(-1.0, 1.0, resampled.size)
        values = resampled - np.polyval(np.polyfit(u, resampled, 2), u)
    else:  # cubic resample, mean removed, Hann window
        resampled = to_wavenumber(noisy)
        values = resampled - resampled.mean()
        values = values * hann_window(values.size)
    return values, WindowConfig().delta_sigma


@pytest.mark.parametrize(
    "style, ramp, pad",
    [
        ("cosine", "none", 2**21),
        ("lamp", "none", 2**21),
        ("lamp", "offset", 2**21),
        ("lamp", "amplitude", 2**18),
        ("lamp", "none", 2**17),
        ("rifts", "none", 2**21),
        ("rifts", "offset", 2**18),
        ("rifts", "amplitude", 2**21),
        ("rifts", "amplitude", 2**17),
        ("lamp", "offset", 3 * 2**17),  # not a power of two
        ("rifts", "none", 5 * 3**11),  # odd: the coarse grid stops short of the last bin
    ],
)
def test_padded_peak_matches_full_transform(style, ramp, pad):
    values, delta_sigma = front_end_values(style, ramp)
    fast = padded_peak(values, delta_sigma, pad)
    slow = _full_padded_peak(values, delta_sigma, pad)
    # centers are bins, so exactly equal
    assert fast.center_frequency_nm == slow.center_frequency_nm
    npt.assert_allclose(fast.fwhm_nm, slow.fwhm_nm, rtol=1e-12)


@pytest.mark.parametrize("pad", [2**17, 2**18, 2**21, 3 * 2**17, 5 * 3**11])
def test_stacked_peaks_equal_single_rows_bit_for_bit(pad):
    cases = [("cosine", "none")] + [(style, ramp) for style in ("lamp", "rifts") for ramp in RAMPS]
    rows, deltas = zip(*(front_end_values(style, ramp) for style, ramp in cases))
    assert len(set(deltas)) == 1  # one grid, so one stack
    stacked = padded_peak_rows(padded_stack(np.array(rows), deltas[0], pad))
    assert stacked == [padded_peak(row, deltas[0], pad) for row in rows]


def test_peak_near_the_float_limit_is_measured_without_a_warning():
    # magnitudes near 1e302, whose square overflows, raise no numpy warning (a traceback
    # under -W error)
    values, delta_sigma = fringe_values()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peak = padded_peak(values * 1e300, delta_sigma, 2**21)
    assert peak.center_frequency_nm == padded_peak(values, delta_sigma, 2**21).center_frequency_nm


def test_only_the_spectral_module_calls_rfft():
    # the padded transform, and the stack type that carries its coarse spectra, live in spectral
    def calls_rfft(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return any(isinstance(node, ast.Attribute) and node.attr == "rfft"
                   or isinstance(node, ast.alias) and node.name == "rfft"
                   for node in ast.walk(tree))

    source = Path(spectral.__file__).parent
    assert [path.name for path in sorted(source.glob("*.py")) if calls_rfft(path)] == [
        "spectral.py"]


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
    peak = padded_peak(values, delta_sigma, 2**18)
    phasors = _plan(values.size, 2**18)[1]
    assert phasors.shape == (BASE_BINS, values.size)
    assert not phasors.flags.writeable
    center = round(peak.center_frequency_nm * 2**18 * delta_sigma)
    assert not _modulation(values.size, 2**18, center - center % BASE_BINS).flags.writeable


def cosine(tone, pad, amplitude=0.07):
    """A bare cosine on the fringe_values grid at the frequency of padded bin tone."""
    grid = WindowConfig()
    values = amplitude * np.cos(2 * np.pi * tone / (pad * grid.delta_sigma) * grid.sigmas())
    return values, grid.delta_sigma


def cosine_where(guess, pad, condition):
    """The cosine nearest padded bin guess whose full-transform magnitudes meet condition.

    The negative-frequency image moves the peak and crossings a bin or two off the tone,
    so tones are tried a quarter bin apart.
    """
    for quarter in sorted(range(-32, 33), key=abs):
        values, delta_sigma = cosine(guess + quarter / 4, pad)
        if condition(np.abs(np.fft.rfft(values, n=pad))):
            return values, delta_sigma
    raise AssertionError(f"no tone near bin {guess} meets the condition")


def assert_matches_full_transform(values, delta_sigma, pad):
    fast = padded_peak(values, delta_sigma, pad)
    slow = _full_padded_peak(values, delta_sigma, pad)
    assert fast.center_frequency_nm == slow.center_frequency_nm
    npt.assert_allclose(fast.fwhm_nm, slow.fwhm_nm, rtol=1e-12)
    return round(fast.center_frequency_nm * pad * delta_sigma)


@pytest.mark.parametrize("offset", [0, 1, 16, 31])
@pytest.mark.parametrize("cutoff_at_bracket", [False, True])
def test_peak_anywhere_between_coarse_bins_and_at_the_cutoff_edge(offset, cutoff_at_bracket):
    # step 32 at this pad: offset 16 leaves the two coarse neighbours nearly tied, and 0 / 31
    # put the peak on the coarse argmax or one bin short of the next; with the cutoff half a
    # bin below coarse bin c, that bin is the first above it and the bracket's lower edge.
    # The cutoff is fixed, so delta_sigma scaled by cutoff / LOW_CUTOFF_NM moves it there
    pad, c = 2**18, 62
    step = _plan(2048, pad)[0]
    assert step == 32
    peak = step * c + offset
    values, delta_sigma = cosine_where(peak, pad, lambda mags: np.argmax(mags) == peak)
    cutoff = (step * c - 0.5) / (pad * delta_sigma) if cutoff_at_bracket else LOW_CUTOFF_NM
    assert assert_matches_full_transform(
        values, delta_sigma * cutoff / LOW_CUTOFF_NM, pad) == peak


def test_peak_below_the_cutoff_is_no_fringe_peak():
    # the coarse grid skips the bins between the cutoff and its first coarse bin; the main
    # lobe's falling flank there still outranks every later sidelobe, as in the full transform
    pad = 2**18
    values, delta_sigma = cosine(540, pad)
    cutoff = 550.5 / (pad * delta_sigma)  # bin 550.5, put at the fixed cutoff by delta_sigma
    for measure in (padded_peak, _full_padded_peak):
        with pytest.raises(NoFringePeakError):
            measure(values, delta_sigma * cutoff / LOW_CUTOFF_NM, pad)


@pytest.mark.parametrize("eot_nm", [950.0, 1100.0])
def test_the_cutoff_is_1000_nm(eot_nm):
    # written out, not read from LOW_CUTOFF_NM: a lone fringe at 950 nm lies below the
    # cutoff, where the largest magnitude above it is its lobe's falling flank, no local
    # maximum; one at 1100 nm lies above it and is found, off by its lobe's tilt
    grid = WindowConfig((200.0, 2000.0))
    stack = spectral.padded_stack(np.cos(2.0 * np.pi * eot_nm * grid.sigmas())[None],
                                  grid.delta_sigma, default_pad_length(grid.delta_sigma))
    if eot_nm < 1000.0:
        with pytest.raises(NoFringePeakError):
            spectral.padded_centre_rows(stack)
    else:
        assert abs(spectral.padded_centre_rows(stack)[0] - eot_nm) < 10.0


def half_maximum_bins(mags):
    """(inside, outside) bins of the right and of the left half-maximum crossing."""
    peak = int(np.argmax(mags))
    half = 0.5 * mags[peak]
    right = peak + int(np.argmax(mags[peak:] <= half))
    left = peak - int(np.argmax(mags[peak::-1] <= half))
    return (right - 1, right), (left + 1, left)


@pytest.mark.parametrize("side", [0, 1], ids=["right", "left"])
@pytest.mark.parametrize("which", [0, 1], ids=["inside", "outside"])
def test_half_maximum_crossing_on_a_base_boundary(side, which):
    pad, tone = 2**18, 1984
    values = cosine(tone, pad)[0]
    crossing = half_maximum_bins(np.abs(np.fft.rfft(values, n=pad)))[side][which]
    values, delta_sigma = cosine_where(
        tone - crossing % BASE_BINS, pad,
        lambda mags: half_maximum_bins(mags)[side][which] % BASE_BINS == 0)
    assert_matches_full_transform(values, delta_sigma, pad)


@pytest.mark.parametrize("stronger", ["between", "on"])
def test_two_tones_within_1_db_pick_the_global_maximum(stronger):
    # one tone midway between coarse bins, where the coarse grid undersamples it most
    # (about 0.2 dB), the other on a coarse bin ten resolution cells away; the weaker
    # is 0.5 dB down
    pad = 2**18
    between, on = 32 * 62 + 16, 32 * 102
    weak = 0.07 * 10 ** (-0.5 / 20)
    amplitudes = (0.07, weak) if stronger == "between" else (weak, 0.07)
    values, delta_sigma = cosine(between, pad, amplitudes[0])
    values = values + cosine(on, pad, amplitudes[1])[0]
    center = assert_matches_full_transform(values, delta_sigma, pad)
    strong, other = (between, on) if stronger == "between" else (on, between)
    assert abs(center - strong) < abs(center - other)


def test_peak_sums_few_exact_bins_per_row(monkeypatch):
    # searched from coarse guesses, a row takes ~11 single-bin sums against 4 modulated bases
    # at the default 2^21 pad; bisecting each bracket from its ends took 35 sums on 9-11
    # bases, and summing whole brackets (131 + 2 x 65 bins) more still
    real_sum, real_base = spectral._bin_magnitude, spectral._modulation
    sums, bases = [], []
    monkeypatch.setattr(spectral, "_bin_magnitude", lambda *a: sums.append(1) or real_sum(*a))
    monkeypatch.setattr(spectral, "_modulation", lambda *a: bases.append(a[2]) or real_base(*a))
    for style in ("lamp", "rifts"):
        for ramp in RAMPS:
            values, delta_sigma = front_end_values(style, ramp)
            sums.clear()
            bases.clear()
            padded_peak(values, delta_sigma, 2**21)
            assert 0 < len(sums) <= 16
            assert 0 < len(set(bases)) <= 5


def degenerate_rows():
    """Rows with no fringe peak: non-finite, all zero, or a tone below a 6000 nm cutoff."""
    values = fringe_values()[0]
    rows = {"zeros": np.zeros(values.size), "tone below the cutoff": values,
            "inf impulse": np.where(np.arange(values.size) == 0, np.inf, 0.0)}  # |X| = inf
    for name, fill in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        rows[f"all {name}"] = np.full(values.size, fill)
        rows[f"one {name}"] = np.where(np.arange(values.size) == 700, fill, values)
    return rows


@pytest.mark.parametrize("name", list(degenerate_rows()))
@pytest.mark.parametrize("pad", [2**21, 2**12])  # steps 256 and 1
@pytest.mark.parametrize("stacked", [False, True])
def test_degenerate_rows_are_no_fringe_peak_and_warn_only_from_the_sums(name, pad, stacked):
    # the parent's exception and warnings: no NaN search guess reaches int() (a ValueError),
    # and guess arithmetic in numpy scalars would warn "invalid value ... in scalar subtract"
    row, delta_sigma = degenerate_rows()[name], fringe_values()[1]
    cutoff = 6000.0 if name == "tone below the cutoff" else LOW_CUTOFF_NM
    delta_sigma *= cutoff / LOW_CUTOFF_NM  # bins above 6000 nm of the unscaled axis
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoFringePeakError, match="^no fringe peak: largest magnitude above "
                           "the cutoff is not a local maximum$"):
            if stacked:  # a good row first, measured before the degenerate one raises
                padded_peak_rows(padded_stack(np.stack([fringe_values()[0], row]), delta_sigma,
                                              pad))
            else:
                padded_peak(row, delta_sigma, pad)
    messages = {str(w.message) for w in caught}
    if "inf" in name:  # inf - inf in the rfft, the modulation and the single-bin sums
        assert all(w.category is RuntimeWarning for w in caught)
        assert all(re.fullmatch("invalid value encountered in (rfft.*|multiply|matmul)", m)
                   for m in messages), messages
    else:
        assert not messages


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
        _full_padded_peak(values, delta_sigma, 512)


def test_input_validation():
    values, delta_sigma = fringe_values()
    with pytest.raises(ValueError):
        dft(values[:8], delta_sigma)
    with pytest.raises(ValueError):
        padded_peak(values, delta_sigma, 1024)  # pad shorter than data
    with pytest.raises(ValueError):
        dft(values, -1e-7)
