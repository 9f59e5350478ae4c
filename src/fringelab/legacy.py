"""Baseline fringe-processing methods: transform peak tracking and
integrated absolute difference.

rifts_eot estimates effective optical thickness from the dominant peak of
the windowed, zero-padded transform, whose pad length and cutoff follow
from the grid (rifts_rows: of each row of a stack). iaw reduces a pair of spectra
(iaw_rows: a stack and one reference) to the integrated absolute wavelength-domain
difference; it needs no transform but folds over once fringes shift past half a period.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridAlignmentError, WavelengthRangeError
from .filmsim import Spectrum
from .spectral import padded_peak_rows
from .wavegrid import (
    DEFAULT_GRID_POINTS,
    DEFAULT_RANGE_NM,
    WavenumberGrid,
    default_pad_length,
    hann_window,
    resample_rows,
)


@dataclass(frozen=True)
class RiftsConfig:
    range_nm: tuple[float, float] = DEFAULT_RANGE_NM
    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        WavenumberGrid.from_wavelength_range(self.range_nm, self.n_points)  # the window is valid


@lru_cache(maxsize=8)
def _taper(n: int) -> np.ndarray:
    """Read-only hann_window(n), computed once per length rather than once per call."""
    taper = hann_window(n)
    taper.setflags(write=False)
    return taper


def rifts_rows(wavelengths_nm, rows, cfg: RiftsConfig = RiftsConfig()) -> list:
    """rifts_eot of each row of a stack sampled at wavelengths_nm, in nm."""
    resampled = resample_rows(wavelengths_nm, rows, cfg.range_nm, cfg.n_points, "cubic_spline")
    values = resampled.values - resampled.values.mean(axis=1, keepdims=True)
    values = values * _taper(values.shape[1])
    delta_sigma = resampled.grid.delta_sigma
    peaks = padded_peak_rows(values, delta_sigma, default_pad_length(delta_sigma))
    return [peak.center_frequency_nm for peak in peaks]


def rifts_eot(spectrum: Spectrum, cfg: RiftsConfig = RiftsConfig()) -> float:
    """Effective optical thickness (nm) from the dominant transform peak.

    Pipeline: cubic-spline resample to a uniform wavenumber grid, remove
    the mean (the raw DC pedestal would otherwise swamp the low-frequency
    region), Hann window, zero-pad, transform, take the dominant peak's
    center.
    """
    return rifts_rows(spectrum.wavelengths_nm, spectrum.reflectance[None], cfg)[0]


@dataclass(frozen=True)
class IawConfig:
    range_nm: tuple[float, float] = DEFAULT_RANGE_NM

    def __post_init__(self):
        if not float(self.range_nm[0]) < float(self.range_nm[1]):
            raise ValueError("range must satisfy low < high")


def iaw_rows(reference: Spectrum, rows, cfg: IawConfig = IawConfig()) -> list:
    """iaw of each analyte row of a stack sampled on the reference's wavelengths."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(reference):
        raise GridAlignmentError("spectra are sampled on different wavelength grids")
    if not np.all(np.isfinite(rows)):
        raise ValueError("spectrum contains non-finite values")
    # a slice, not a column mask (an F-ordered copy): row means sum as a lone spectrum's do
    lo = np.searchsorted(reference.wavelengths_nm, float(cfg.range_nm[0]), side="left")
    hi = np.searchsorted(reference.wavelengths_nm, float(cfg.range_nm[1]), side="right")
    if hi - lo < 2:
        raise WavelengthRangeError("fewer than two samples fall inside the requested range")
    diff = rows[:, lo:hi] - reference.reflectance[lo:hi]
    diff -= diff.mean(axis=1, keepdims=True)
    return np.abs(diff).mean(axis=1).tolist()


def iaw(reference: Spectrum, analyte: Spectrum, cfg: IawConfig = IawConfig()) -> float:
    """Integrated absolute difference of two spectra on their native grid.

    The difference is zero-meaned before integration so a flat additive
    offset common to the window drops out. No resampling happens here;
    mismatched wavelength grids are an error.
    """
    if not np.array_equal(reference.wavelengths_nm, analyte.wavelengths_nm):
        raise GridAlignmentError("spectra are sampled on different wavelength grids")
    return iaw_rows(reference, analyte.reflectance[None], cfg)[0]
