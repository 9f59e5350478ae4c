"""Resampling reflectance onto a uniform wavenumber grid, windowing, and the pad length.

Fringes from a film of fixed optical thickness are periodic in wavenumber
(1/wavelength), so every transform stage works on an evenly spaced
wavenumber grid. Interpolation happens in the wavenumber domain: sample
abscissae are converted first, then the chosen interpolant is evaluated
on the uniform grid.

The cubic interpolant is a natural spline (de Boor, A Practical Guide to
Splines, 1978). It is linear in the data, so everything fixed by the knots
and the grid is built once per pair and cached read-only as a NaturalSpline
operator: the knot spacings, the odd-even cyclic reduction (Hockney, J. ACM
12, 1965) of its tridiagonal system for the second derivatives, and each
target's interval and weights. A call then costs about log2(knots) array
steps, vectorised over rows. The pad length follows from the grid alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# Largest pad: the default window needs 2**21, and the peak's phasor table grows with it.
MAX_PAD_LENGTH = 2**24


@dataclass(frozen=True)
class WavenumberGrid:
    """Uniform grid of n_points wavenumbers spanning [sigma_min, sigma_max]."""

    sigma_min: float
    sigma_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.sigma_min < self.sigma_max:
            raise ValueError("need 0 < sigma_min < sigma_max")
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"n_points must be an integer >= {MIN_GRID_POINTS}")

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


@dataclass(frozen=True)
class NaturalSpline:
    """Natural cubic spline through fixed knots, evaluated at a WavenumberGrid's points.

    The second derivatives M at the interior knots solve a symmetric
    tridiagonal system; M is 0 at both end knots. Each entry of levels is
    one odd-even cyclic reduction step (alpha, gamma, inv_diag): alpha and
    gamma fold each odd equation into its even neighbours, and with
    inv_diag (1 / the odd diagonal) they recover the odd unknowns from the
    even ones. last_inv solves the one equation left (it is empty for 2
    knots). Target t in knot interval i is
    S(t) = A y[i] + B y[i+1] + C M[i] + D M[i+1]; index holds the columns
    (i, i+1, n+i, n+i+1) of [y | M] and weights the rows (A, B, C, D).
    """

    spacing: np.ndarray
    levels: tuple
    last_inv: np.ndarray
    index: np.ndarray
    weights: np.ndarray

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The spline of each row of a (rows, knots) stack at the grid's points, in C order."""
        slopes = np.diff(values, axis=1) / self.spacing
        d = slopes[:, 1:] - slopes[:, :-1]
        odds = []
        for alpha, gamma, _ in self.levels:
            odd = d[:, 1::2]
            odds.append(odd)
            d = d[:, 0::2].copy()
            d[:, 1:] += alpha * odd[:, :alpha.size]
            d[:, :gamma.size] += gamma * odd
        x = d * self.last_inv
        for (alpha, gamma, inv_diag), odd in zip(self.levels[::-1], odds[::-1]):
            x_odd = odd * inv_diag + gamma * x[:, :gamma.size]
            x_odd[:, :alpha.size] += alpha * x[:, 1:]
            both = np.empty((x.shape[0], x.shape[1] + x_odd.shape[1]))
            both[:, 0::2] = x
            both[:, 1::2] = x_odd
            x = both
        rows, n = values.shape
        data = np.zeros((rows, 2 * n))
        data[:, :n] = values
        data[:, n + 1:-1] = x
        # take, unlike data[:, index], returns C order, so each row's later reductions
        # round as they do for a lone row
        terms = np.take(data, self.index, axis=1)  # (rows, 4, targets)
        terms *= self.weights
        return terms.sum(axis=1)


@lru_cache(maxsize=16)
def natural_spline(knot_bytes: bytes, grid: WavenumberGrid) -> NaturalSpline:
    """The read-only NaturalSpline through the float64 knots in knot_bytes, on grid."""
    knots = np.frombuffer(knot_bytes)
    if knots.size < 2 or not np.all(np.isfinite(knots)) or not np.all(np.diff(knots) > 0.0):
        raise ValueError("spline knots must be finite, strictly increasing and at least two")
    h = np.diff(knots)
    # equation j: h[j]/6 M[j] + (h[j] + h[j+1])/3 M[j+1] + h[j+1]/6 M[j+2] = slope change at knot j+1
    diag, off = (h[:-1] + h[1:]) / 3.0, h[1:-1] / 6.0  # off[j] couples unknowns j and j+1
    levels = []
    while diag.size > 1:
        to_right, to_left = off[0::2], off[1::2]  # even 2k to odd 2k+1, and to odd 2k-1
        inv_diag = 1.0 / diag[1::2]
        alpha = -to_left * inv_diag[: to_left.size]
        gamma = -to_right * inv_diag
        diag = diag[0::2].copy()
        diag[1:] += alpha * to_left
        diag[: gamma.size] += gamma * to_right
        off = gamma[: to_left.size] * to_left
        levels.append((alpha, gamma, inv_diag))
    targets = grid.sigmas()
    i = np.clip(np.searchsorted(knots, targets, side="right") - 1, 0, knots.size - 2)
    width = h[i]
    a = (knots[i + 1] - targets) / width
    b = (targets - knots[i]) / width
    spline = NaturalSpline(
        spacing=h, levels=tuple(levels), last_inv=1.0 / diag,
        index=np.array([i, i + 1, knots.size + i, knots.size + i + 1]),
        weights=np.array([a, b, (a**3 - a) * width**2 / 6.0, (b**3 - b) * width**2 / 6.0]))
    for array in (spline.spacing, spline.last_inv, spline.index, spline.weights,
                  *(v for level in levels for v in level)):
        array.setflags(write=False)
    return spline


def resample_rows(wavelengths_nm, rows, range_nm=DEFAULT_RANGE_NM,
                  n_points: int = DEFAULT_GRID_POINTS,
                  method: str = "cubic_spline") -> ResampledSpectrum:
    """Resample a (rows, points) reflectance stack onto a uniform wavenumber grid.

    Every row is sampled at the same ascending wavelengths, and range_nm
    must lie within them. method is "linear" or "cubic_spline" (natural
    boundary conditions, through the cached natural_spline operator of
    the wavenumber knots and the grid, solved by cyclic reduction). Both
    interpolants are built over the converted sample abscissae, so data
    linear in wavenumber is reproduced exactly by the linear method.
    """
    lo, hi = float(range_nm[0]), float(range_nm[1])
    wl = wavelengths_nm
    if lo < wl[0] or hi > wl[-1]:
        raise WavelengthRangeError(
            f"requested range [{lo:g}, {hi:g}] nm exceeds sampled range "
            f"[{wl[0]:g}, {wl[-1]:g}] nm"
        )
    grid = WavenumberGrid.from_wavelength_range((lo, hi), n_points)
    sigma_samples = 1.0 / np.asarray(wl, dtype=float)[::-1]
    values = np.asarray(rows, dtype=float)[:, ::-1]
    if method == "linear":
        targets = grid.sigmas()
        resampled = np.array([np.interp(targets, sigma_samples, row) for row in values])
    elif method == "cubic_spline":
        if values.shape[1] != sigma_samples.size or not np.all(np.isfinite(values)):
            raise ValueError("need one finite reflectance per wavelength in each row")
        resampled = natural_spline(sigma_samples.tobytes(), grid)(values)
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


def default_pad_length(delta_sigma: float) -> int:
    """Smallest power of two whose transform bins are <= MAX_BIN_SPACING_NM apart,
    or WavelengthRangeError if that exceeds MAX_PAD_LENGTH."""
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    needed = 1.0 / (MAX_BIN_SPACING_NM * delta_sigma)
    pad = 2 ** max(0, math.ceil(math.log2(needed)))
    if pad > MAX_PAD_LENGTH:
        raise WavelengthRangeError(
            f"window too narrow: a {MAX_BIN_SPACING_NM:g} nm transform bin needs a {pad}-point "
            f"pad, above the {MAX_PAD_LENGTH}-point limit; widen range_nm or lower n_points")
    return pad
