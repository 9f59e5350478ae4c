"""Resampling reflectance onto a uniform wavenumber grid, plus windowing.

Fringes from a film of fixed optical thickness are periodic in wavenumber
(1/wavelength), so every transform stage works on an evenly spaced
wavenumber grid. Interpolation happens in the wavenumber domain: sample
abscissae are converted first, then the chosen interpolant is evaluated
on the uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WavelengthRangeError
from .filmsim import Spectrum

MIN_GRID_POINTS = 16

# Default processing window and density.
DEFAULT_RANGE_NM = (500.0, 800.0)
DEFAULT_GRID_POINTS = 2048

# Default padding keeps transform bins at or below this spacing on the
# optical-thickness axis.
MAX_BIN_SPACING_NM = 1.5


@dataclass(frozen=True)
class WavenumberGrid:
    """Uniform grid of n_points wavenumbers spanning [sigma_min, sigma_max]."""

    sigma_min: float
    sigma_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.sigma_min < self.sigma_max:
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"grid needs at least {MIN_GRID_POINTS} points")

    @property
    def delta_sigma(self) -> float:
        return (self.sigma_max - self.sigma_min) / (self.n_points - 1)

    @property
    def mean_sigma(self) -> float:
        return 0.5 * (self.sigma_min + self.sigma_max)

    def sigmas(self) -> np.ndarray:
        return np.linspace(self.sigma_min, self.sigma_max, self.n_points)

    @classmethod
    def from_wavelength_range(cls, range_nm, n_points: int) -> "WavenumberGrid":
        lo, hi = float(range_nm[0]), float(range_nm[1])
        if not 0.0 < lo < hi:
            raise ValueError("wavelength range must satisfy 0 < low < high")
        return cls(sigma_min=1.0 / hi, sigma_max=1.0 / lo, n_points=n_points)


@dataclass(frozen=True)
class ResampledSpectrum:
    """Reflectance on a uniform wavenumber grid: one row, or a (rows, points) stack."""

    grid: WavenumberGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.grid.n_points:
            raise ValueError("values must hold one entry per grid point in each row")
        object.__setattr__(self, "values", v)


def resample_rows(wavelengths_nm, rows, range_nm=DEFAULT_RANGE_NM,
                  n_points: int = DEFAULT_GRID_POINTS,
                  method: str = "cubic_spline") -> ResampledSpectrum:
    """Resample a (rows, points) reflectance stack onto a uniform wavenumber grid.

    Every row is sampled at the same ascending wavelengths, and range_nm
    must lie within them. method is "linear" or "cubic_spline" (natural
    boundary conditions). Both interpolants are built over the converted
    sample abscissae, so data linear in wavenumber is reproduced exactly
    by the linear method.
    """
    lo, hi = float(range_nm[0]), float(range_nm[1])
    wl = wavelengths_nm
    if lo < wl[0] or hi > wl[-1]:
        raise WavelengthRangeError(
            f"requested range [{lo:g}, {hi:g}] nm exceeds sampled range "
            f"[{wl[0]:g}, {wl[-1]:g}] nm"
        )
    grid = WavenumberGrid.from_wavelength_range((lo, hi), n_points)
    sigma_samples = 1.0 / wl[::-1]
    values = np.asarray(rows, dtype=float)[:, ::-1]
    targets = grid.sigmas()
    if method == "linear":
        resampled = np.array([np.interp(targets, sigma_samples, row) for row in values])
    elif method == "cubic_spline":
        from scipy.interpolate import CubicSpline  # ~0.5 s to import; only this path needs it
        spline = CubicSpline(sigma_samples, values, axis=1, bc_type="natural")
        # C order, so a row's reductions round as they do for a lone row
        resampled = np.ascontiguousarray(spline(targets))
    else:
        raise ValueError(f"unknown interpolation method {method!r}")
    return ResampledSpectrum(grid, resampled)


def to_wavenumber(spectrum: Spectrum, range_nm=DEFAULT_RANGE_NM,
                  n_points: int = DEFAULT_GRID_POINTS,
                  method: str = "cubic_spline") -> ResampledSpectrum:
    """Resample one spectrum: resample_rows on a batch of one."""
    stack = resample_rows(spectrum.wavelengths_nm, spectrum.reflectance[None], range_nm,
                          n_points, method)
    return ResampledSpectrum(stack.grid, stack.values[0])


def hann_window(n: int) -> np.ndarray:
    """Hann taper w[i] = 0.5*(1 - cos(2*pi*i/(n-1))), endpoints zero."""
    if n < 2:
        raise ValueError("window needs at least two points")
    i = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * i / (n - 1)))


def default_pad_length(delta_sigma: float, max_bin_spacing_nm: float = MAX_BIN_SPACING_NM) -> int:
    """Smallest power of two whose transform bins are <= the given spacing."""
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    needed = 1.0 / (max_bin_spacing_nm * delta_sigma)
    return 2 ** max(0, math.ceil(math.log2(needed)))


def zero_pad(values: np.ndarray, target_length: int) -> np.ndarray:
    """Extend with trailing zeros to target_length (>= current length)."""
    v = np.asarray(values)
    if target_length < v.size:
        raise ValueError("target length shorter than the data")
    if target_length == v.size:
        return v.copy()
    out = np.zeros(target_length, dtype=v.dtype)
    out[: v.size] = v
    return out
