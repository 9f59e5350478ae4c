"""Baseline fringe-processing methods: transform peak tracking and
integrated absolute difference.

rifts_eot estimates effective optical thickness from the dominant peak of
the windowed, zero-padded transform, whose pad length and cutoff follow
from the grid (rifts_rows: of each row of a stack). It reads the peak's bin
alone, so a row fails only when it has no fringe peak above the cutoff
(NoFringePeakError), never over a half-maximum crossing it does not read.
rifts_rows is padded_centre_rows(rifts_front(rows)): the front end (cubic
resample, de-mean, taper) returns spectral's PaddedStack, which is linear in
the rows, so a caller that adds many stacks to one (the study's white rows to
each clean row) may sum their fronts, each computed once, and measure the sum.

iaw reduces a pair of spectra (iaw_rows: a stack and one reference) to the
integrated absolute wavelength-domain difference; it needs no transform but
folds over once fringes shift past half a period. Each takes a WindowConfig:
rifts resamples onto its 2048-point grid, iaw reads the native samples inside.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import GridAlignmentError, WavelengthRangeError
from .filmsim import Spectrum
from .spectral import PaddedStack, padded_centre_rows, padded_stack
from .wavegrid import WindowConfig, default_pad_length, hann_window, resample_rows


@lru_cache(maxsize=8)
def _taper(n: int) -> np.ndarray:
    """Read-only hann_window(n), computed once per length rather than once per call."""
    taper = hann_window(n)
    taper.setflags(write=False)
    return taper


def rifts_front(wavelengths_nm, rows, cfg: WindowConfig = WindowConfig()) -> PaddedStack:
    """The front end of rifts_rows for a stack sampled at wavelengths_nm, in nm: its rows
    cubic-resampled to the window's grid, de-meaned and tapered, as a PaddedStack."""
    values = resample_rows(wavelengths_nm, rows, cfg, method="cubic_spline")
    values = values - values.mean(axis=1, keepdims=True)
    values = values * _taper(values.shape[1])
    return padded_stack(values, cfg.delta_sigma, default_pad_length(cfg.delta_sigma))


def rifts_rows(wavelengths_nm, rows, cfg: WindowConfig = WindowConfig()) -> list:
    """rifts_eot of each row of a stack sampled at wavelengths_nm, in nm: the centre of its
    padded transform's dominant peak."""
    return padded_centre_rows(rifts_front(wavelengths_nm, rows, cfg))


def rifts_eot(spectrum: Spectrum, cfg: WindowConfig = WindowConfig()) -> float:
    """Effective optical thickness (nm) from the dominant transform peak.

    Pipeline: cubic-spline resample to a uniform wavenumber grid, remove
    the mean (the raw DC pedestal would otherwise swamp the low-frequency
    region), Hann window, zero-pad, transform, take the dominant peak's
    center.
    """
    return rifts_rows(spectrum.wavelengths_nm, spectrum.reflectance[None], cfg)[0]


def iaw_rows(reference: Spectrum, rows, cfg: WindowConfig = WindowConfig()) -> list:
    """iaw of each analyte row of a stack sampled on the reference's wavelengths."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(reference):
        raise GridAlignmentError("spectra are sampled on different wavelength grids")
    if not np.all(np.isfinite(rows)):
        raise ValueError("spectrum contains non-finite values")
    # a slice, not a column mask (an F-ordered copy): row means sum as a lone spectrum's do
    lo = np.searchsorted(reference.wavelengths_nm, cfg.range_nm[0], side="left")
    hi = np.searchsorted(reference.wavelengths_nm, cfg.range_nm[1], side="right")
    if hi - lo < 2:
        raise WavelengthRangeError("fewer than two samples fall inside the requested range")
    diff = rows[:, lo:hi] - reference.reflectance[lo:hi]
    diff -= diff.mean(axis=1, keepdims=True)
    return np.abs(diff).mean(axis=1).tolist()


def iaw(reference: Spectrum, analyte: Spectrum, cfg: WindowConfig = WindowConfig()) -> float:
    """Integrated absolute difference of two spectra on their native grid.

    The difference is zero-meaned before integration so a flat additive
    offset common to the window drops out. No resampling happens here;
    mismatched wavelength grids are an error.
    """
    if not np.array_equal(reference.wavelengths_nm, analyte.wavelengths_nm):
        raise GridAlignmentError("spectra are sampled on different wavelength grids")
    return iaw_rows(reference, analyte.reflectance[None], cfg)[0]
