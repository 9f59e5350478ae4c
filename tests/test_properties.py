"""Randomized invariants, a thousand drawn cases per property."""

from bisect import bisect_left

import numpy as np
import pytest

from fringelab import (
    MorletWavelet,
    RedlichPetersonFit,
    Spectrum,
    WindowConfig,
    filter_spectrum,
    hann_window,
    iaw,
    lod_concentration,
    model_eval,
    padded_peak,
    unwrap_phase,
)
from fringelab.spectral import LOW_CUTOFF_NM, _first_true
from fringelab.wavegrid import resample_rows

N_CASES = 1000


def test_unwrapping_recovers_increments_through_wraps():
    """Wrapping to (-pi, pi] never destroys step information below pi."""
    rng = np.random.default_rng(101)
    for _ in range(N_CASES):
        steps = rng.uniform(-0.9 * np.pi, 0.9 * np.pi, size=24)
        phase = np.cumsum(steps) + rng.uniform(-40.0, 40.0)
        wrapped = np.angle(np.exp(1j * phase))
        unwrapped = unwrap_phase(wrapped)
        assert np.allclose(np.diff(unwrapped), np.diff(phase), atol=1e-9)
        # re-wrapping lands back on the input
        assert np.allclose(np.angle(np.exp(1j * unwrapped)), wrapped, atol=1e-9)


def test_hann_window_endpoints_symmetry_and_bounds():
    rng = np.random.default_rng(202)
    for _ in range(N_CASES):
        n = int(rng.integers(2, 600))
        w = hann_window(n)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert np.allclose(w, w[::-1], atol=1e-12)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        if n > 2:
            assert w[1:-1].min() > 0.0


def test_integrated_difference_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(303)
    wl = np.linspace(500.0, 800.0, 24)
    cfg = WindowConfig()
    for _ in range(N_CASES):
        a = Spectrum(wl, rng.uniform(0.0, 0.5, wl.size))
        b = Spectrum(wl, rng.uniform(0.0, 0.5, wl.size))
        forward = iaw(a, b, cfg)
        backward = iaw(b, a, cfg)
        assert forward >= 0.0
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-15)
        assert iaw(a, a, cfg) == 0.0


def test_transform_peak_location_ignores_uniform_scaling():
    """Rescaling an interferogram moves neither the argmax nor the width."""
    rng = np.random.default_rng(404)
    n = 128
    t = np.arange(n) / n
    delta_sigma = 1.0 / n * 2.0 / LOW_CUTOFF_NM  # the fixed cutoff sits at 2 cycles
    for _ in range(N_CASES):
        cycles = rng.uniform(4.0, 40.0)
        values = (rng.uniform(-0.2, 0.2)
                  + rng.uniform(0.5, 2.0) * np.cos(2.0 * np.pi * cycles * t))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        base = padded_peak(values, delta_sigma, 512)
        scaled = padded_peak(scale * values, delta_sigma, 512)
        assert scaled.center_frequency_nm == base.center_frequency_nm
        assert scaled.fwhm_nm == pytest.approx(base.fwhm_nm, rel=1e-9)


def test_isotherm_lod_inverts_the_rise_and_grows_with_the_floor():
    rng = np.random.default_rng(505)
    for _ in range(N_CASES):
        fit = RedlichPetersonFit(
            intercept=rng.uniform(-0.2, 0.5),
            a=rng.uniform(0.05, 5.0),
            b=rng.uniform(0.0, 3.0),
            beta=rng.uniform(0.3, 1.0),
        )
        c_low = 10.0 ** rng.uniform(-6.0, -1.0)
        c_high = c_low * 10.0 ** rng.uniform(0.1, 2.0)
        rise_low = model_eval(fit, c_low) - fit.intercept
        rise_high = model_eval(fit, c_high) - fit.intercept
        lod_low = lod_concentration(fit, rise_low)
        lod_high = lod_concentration(fit, rise_high)
        assert lod_low == pytest.approx(c_low, rel=1e-6)
        assert lod_high == pytest.approx(c_high, rel=1e-6)
        assert lod_low < lod_high


def test_cubic_resampler_matches_scipy_on_random_knots():
    """The cached natural spline is scipy's natural CubicSpline on any knot spacing."""
    from scipy.interpolate import CubicSpline  # the reference; fringelab itself never imports it

    rng = np.random.default_rng(606)
    for _ in range(N_CASES):
        n = int(rng.integers(2, 300))
        gaps = rng.uniform(0.2, 1.8, n - 1)
        low = rng.uniform(450.0, 550.0)
        wl = low + rng.uniform(100.0, 400.0) * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
        rows = rng.uniform(0.1, 0.4, (int(rng.integers(1, 9)), n))
        window = WindowConfig((wl[0], wl[-1]))
        resampled = resample_rows(wl, rows, window)
        spline = CubicSpline(1.0 / wl[::-1], rows[:, ::-1], axis=1, bc_type="natural")
        # atol: where the spline passes near zero, both sides round at the data's scale
        np.testing.assert_allclose(resampled, spline(window.sigmas()), rtol=1e-12, atol=1e-14)


def test_cropped_filter_is_the_centred_direct_convolution():
    """Any row length, any odd wavelet length up to 6n: the n centred points of np.convolve."""
    rng = np.random.default_rng(808)
    for _ in range(N_CASES):
        n = int(rng.integers(16, 400))
        delta_sigma = (1 / 500 - 1 / 800) / (n - 1)  # a 500-800 nm grid of n points
        rows = rng.normal(size=(int(rng.integers(1, 4)), n))
        wavelets = [MorletWavelet(5760.0, 1.0, delta_sigma,
                                  rng.normal(size=m) + 1j * rng.normal(size=m))
                    for m in 2 * rng.integers(0, 3 * n, size=len(rows)) + 1]
        filtered = filter_spectrum(rows, delta_sigma, wavelets)
        for row, w, values in zip(rows, wavelets, filtered):
            c = (w.samples.size - 1) // 2
            expected = np.convolve(row, w.samples)[c : c + n] * delta_sigma
            assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()


def test_first_true_is_bisect_left_from_any_guess():
    """The padded-peak search: any threshold, any guess, the bisection's answer, few probes."""
    rng = np.random.default_rng(707)
    for case in range(N_CASES):
        lo = int(rng.integers(0, 100))
        hi = lo + (case % 3 if case % 5 == 0 else int(rng.integers(2, 5000)))  # 0-2 bins
        threshold = int(rng.integers(lo - 2, hi + 3))
        calls = []

        def pred(k):
            calls.append(k)
            assert lo <= k < hi
            return k >= threshold

        answer = bisect_left(range(hi), True, lo, key=pred)
        assert answer == min(max(threshold, lo), hi)
        for guess in (lo - int(rng.integers(1, 100)), int(rng.integers(lo, hi + 1)),
                      hi + int(rng.integers(0, 100)), float(rng.uniform(lo, hi + 1)),
                      answer, float("nan"), float("inf"), -float("inf")):
            calls.clear()
            assert _first_true(pred, lo, hi, guess) == answer
            if guess == answer and lo < answer < hi:
                assert len(calls) == 2
            elif guess == guess and abs(guess) != float("inf"):  # a finite guess
                distance = int(abs(min(max(guess, lo), hi - 1) - answer)) + 1
                assert len(calls) <= 2 * distance.bit_length() + 2
