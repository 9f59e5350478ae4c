"""Tests for wavenumber resampling, windowing, and padding helpers."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from fringelab import (
    Spectrum,
    WindowConfig,
    default_pad_length,
    hann_window,
    to_wavenumber,
)
from fringelab.errors import WavelengthRangeError
from fringelab.wavegrid import MAX_BIN_SPACING_NM, MAX_PAD_LENGTH, natural_spline, resample_rows


def test_grid_endpoints_and_spacing():
    grid = WindowConfig()
    assert grid.sigma_min == 1.0 / 800.0
    assert grid.sigma_max == 1.0 / 500.0
    assert math.isclose(grid.delta_sigma, (1 / 500 - 1 / 800) / 2047, rel_tol=1e-15)
    assert math.isclose(grid.delta_sigma, 3.663898e-7, rel_tol=1e-6)
    assert math.isclose(grid.mean_sigma, 0.001625, rel_tol=1e-15)


def test_grid_sigmas_shape():
    grid = WindowConfig()
    sigmas = grid.sigmas()
    assert sigmas.shape == (2048,)
    assert sigmas[0] == grid.sigma_min
    assert sigmas[-1] == pytest.approx(grid.sigma_max, rel=1e-15)
    assert np.all(np.diff(sigmas) > 0)


def test_grid_validation():
    for range_nm in ((800.0, 500.0), (-500.0, 800.0)):
        with pytest.raises(ValueError):
            WindowConfig(range_nm)


@pytest.mark.parametrize("range_nm", [(500.0, 800.0), (600, 610), (200.0, 2000.0),
                                      (np.float64(512.5), 777.3)])
def test_window_grid_is_the_linspace_of_its_wavenumbers(range_nm):
    # the window's grid is written out here, not read from the window
    lo, hi = range_nm
    window = WindowConfig(range_nm)
    assert window.range_nm == (lo, hi) and all(type(x) is float for x in window.range_nm)
    assert np.array_equal(window.sigmas(), np.linspace(1 / hi, 1 / lo, 2048))
    assert window.delta_sigma == (1 / lo - 1 / hi) / 2047
    assert (window.sigma_min, window.sigma_max) == (1 / hi, 1 / lo)
    assert window.mean_sigma == (1 / lo + 1 / hi) / 2


@pytest.mark.parametrize("method", ["linear", "cubic_spline"])
def test_resampling_exact_for_linear_in_wavenumber(method):
    # values linear in 1/lambda survive either interpolation untouched
    wl = np.linspace(480.0, 820.0, 777)  # non-uniform in wavenumber
    values = 0.3 + 50.0 * (1.0 / wl)
    resampled = to_wavenumber(Spectrum(wl, values), method=method)
    expected = 0.3 + 50.0 * WindowConfig().sigmas()
    npt.assert_allclose(resampled, expected, rtol=1e-12)


@pytest.mark.parametrize("method", ["linear", "cubic_spline"])
def test_resampling_reproduces_node_values(method):
    grid = WindowConfig()
    rng = np.random.default_rng(5)
    values_on_grid = rng.uniform(0.1, 0.4, 2048)
    # feed the same nodes back through the wavelength-domain constructor
    wl = (1.0 / grid.sigmas())[::-1]
    spec = Spectrum(wl, values_on_grid[::-1])
    resampled = to_wavenumber(spec, grid, method=method)
    npt.assert_allclose(resampled, values_on_grid, atol=1e-9)


def test_resampling_requires_coverage():
    spec = Spectrum(np.linspace(520.0, 800.0, 256), np.full(256, 0.2))
    with pytest.raises(ValueError):
        to_wavenumber(spec, WindowConfig((500.0, 800.0)))


def test_resampling_rejects_unknown_method():
    spec = Spectrum(np.linspace(500.0, 800.0, 256), np.full(256, 0.2))
    with pytest.raises(ValueError):
        to_wavenumber(spec, method="pchip")


def jittered_wavelengths(n, rng, range_nm=(500.0, 800.0)):
    """n ascending wavelengths spanning range_nm, each gap 0.5-1.5 times the mean gap."""
    gaps = rng.uniform(0.5, 1.5, n - 1)
    edges = np.concatenate(([0.0], np.cumsum(gaps)))
    wl = range_nm[0] + (range_nm[1] - range_nm[0]) * edges / edges[-1]
    wl[-1] = range_nm[1]
    return wl


def scipy_natural_spline(wl, rows, window):
    from scipy.interpolate import CubicSpline  # the reference; fringelab itself never imports it

    return CubicSpline(1.0 / wl[::-1], rows[:, ::-1], axis=1, bc_type="natural")(window.sigmas())


@pytest.mark.parametrize("n_rows", [1, 8])
@pytest.mark.parametrize("n_knots", [2, 3, 16, 17, 768, 3648])
def test_cubic_resampler_matches_scipy_natural_spline(n_knots, n_rows):
    # odd and even knot counts take both parities of each reduction step
    rng = np.random.default_rng(n_knots)
    wl = jittered_wavelengths(n_knots, rng)
    rows = rng.uniform(0.1, 0.4, (n_rows, n_knots))
    resampled = resample_rows(wl, rows)
    npt.assert_allclose(resampled, scipy_natural_spline(wl, rows, WindowConfig()), rtol=1e-12)
    assert resampled.flags.c_contiguous
    for i in range(n_rows):
        lone = resample_rows(wl, rows[i:i + 1])[0]
        assert np.array_equal(lone, resampled[i])


def test_cached_spline_arrays_are_read_only():
    grid = WindowConfig()
    knots = 1.0 / jittered_wavelengths(768, np.random.default_rng(1))[::-1]
    spline = natural_spline(knots.tobytes(), grid)
    assert natural_spline(knots.tobytes(), grid) is spline
    arrays = [spline.spacing, spline.last_inv, spline.index, spline.weights,
              *(array for level in spline.levels for array in level)]
    assert len(spline.levels) == 10  # 766 interior unknowns halve to one in ten steps
    for array in arrays:
        assert not array.flags.writeable


def test_new_wavelengths_get_a_fresh_spline():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0.1, 0.4, (2, 768))
    first, second = jittered_wavelengths(768, rng), jittered_wavelengths(768, rng)
    grid = WindowConfig()
    resample_rows(first, rows)
    resampled = resample_rows(second, rows)
    npt.assert_allclose(resampled, scipy_natural_spline(second, rows, grid), rtol=1e-12)
    assert (natural_spline((1.0 / first[::-1]).tobytes(), grid)
            is not natural_spline((1.0 / second[::-1]).tobytes(), grid))


@pytest.mark.parametrize("wl", [
    [500.0, 600.0, 600.0, 800.0],  # repeated
    [500.0, 700.0, 600.0, 800.0],  # out of order
])
def test_cubic_resampler_rejects_non_increasing_wavelengths(wl):
    with pytest.raises(ValueError):
        resample_rows(np.array(wl), np.full((1, 4), 0.2))


@pytest.mark.parametrize("method", ["linear", "cubic_spline"])
def test_resampler_rejects_non_finite_or_mismatched_rows(method):
    # the linear interpolant once took a NaN row (lamp then found no fringe peak) and raised
    # numpy's own error for a short one
    wl = np.linspace(500.0, 800.0, 8)
    for rows in (np.array([[0.2] * 7 + [np.nan]]), np.full((1, 7), 0.2)):
        with pytest.raises(ValueError, match="^need one finite reflectance per wavelength"):
            resample_rows(wl, rows, WindowConfig(), method)


def test_hann_window_small_cases():
    npt.assert_allclose(hann_window(4), [0.0, 0.75, 0.75, 0.0], atol=1e-15)
    npt.assert_allclose(hann_window(5), [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-15)


def test_hann_window_symmetry():
    w = hann_window(129)
    npt.assert_allclose(w, w[::-1], atol=1e-15)
    assert w[0] == 0.0 and w[-1] == 0.0
    assert w.max() == pytest.approx(1.0)


def test_default_pad_length_meets_resolution_bound():
    grid = WindowConfig()
    pad = default_pad_length(grid.delta_sigma)
    assert pad == 2**21
    # smallest power of two whose transform bins are at most 1.5 nm apart
    assert 1.0 / (pad * grid.delta_sigma) <= 1.5
    assert 1.0 / ((pad // 2) * grid.delta_sigma) > 1.5


@pytest.mark.parametrize("bin_nm, pad", [(1.45, 2**20), (1.55, 2**21)])
def test_pad_length_keeps_bins_at_most_1_5_nm_apart(bin_nm, pad):
    # the rule's 1.5 nm, written out: each spacing puts 2**20-point bins bin_nm apart
    assert default_pad_length(1.0 / (bin_nm * 2**20)) == pad


def test_pad_length_stops_at_the_ceiling():
    # the spacing whose bins are MAX_BIN_SPACING_NM apart at exactly MAX_PAD_LENGTH points
    at_ceiling = 1.0 / (MAX_BIN_SPACING_NM * MAX_PAD_LENGTH)
    assert default_pad_length(1.01 * at_ceiling) == MAX_PAD_LENGTH
    with pytest.raises(WavelengthRangeError, match="too narrow"):
        default_pad_length(0.99 * at_ceiling)
