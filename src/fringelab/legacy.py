"""Baseline fringe-processing methods: transform peak tracking and
integrated absolute difference.

rifts_eot estimates effective optical thickness from the dominant peak of
the windowed, zero-padded transform (rifts_rows: of each row of a stack).
iaw reduces a pair of spectra to the integrated absolute wavelength-domain
difference; it needs no transform but folds over once fringes shift more
than half a period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridAlignmentError
from .filmsim import Spectrum
from .spectral import DEFAULT_LOW_CUTOFF_NM, padded_peak_rows
from .wavegrid import (
    DEFAULT_GRID_POINTS,
    DEFAULT_RANGE_NM,
    default_pad_length,
    hann_window,
    resample_rows,
)


@dataclass(frozen=True)
class RiftsConfig:
    range_nm: tuple[float, float] = DEFAULT_RANGE_NM
    n_points: int = DEFAULT_GRID_POINTS
    # None picks the smallest power of two meeting the bin-spacing target.
    pad_exponent: int | None = None
    low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM
    refine_peak: bool = False

    def __post_init__(self):
        if self.pad_exponent is not None and 2**self.pad_exponent < self.n_points:
            raise ValueError("pad_exponent smaller than the resampled length")


def rifts_rows(wavelengths_nm, rows, cfg: RiftsConfig = RiftsConfig()) -> list:
    """rifts_eot of each row of a stack sampled at wavelengths_nm, in nm."""
    resampled = resample_rows(wavelengths_nm, rows, cfg.range_nm, cfg.n_points, "cubic_spline")
    values = resampled.values - resampled.values.mean(axis=1, keepdims=True)
    values = values * hann_window(values.shape[1])
    delta_sigma = resampled.grid.delta_sigma
    pad = default_pad_length(delta_sigma) if cfg.pad_exponent is None else 2**cfg.pad_exponent
    peaks = padded_peak_rows(values, delta_sigma, pad, cfg.low_cutoff_nm, cfg.refine_peak)
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
    rule: str = "mean_abs"  # or "sum_abs"

    def __post_init__(self):
        if self.rule not in ("mean_abs", "sum_abs"):
            raise ValueError(f"unknown integration rule {self.rule!r}")


def iaw(reference: Spectrum, analyte: Spectrum, cfg: IawConfig = IawConfig()) -> float:
    """Integrated absolute difference of two spectra on their native grid.

    The difference is zero-meaned before integration so a flat additive
    offset common to the window drops out. No resampling happens here;
    mismatched wavelength grids are an error.
    """
    if not np.array_equal(reference.wavelengths_nm, analyte.wavelengths_nm):
        raise GridAlignmentError("spectra are sampled on different wavelength grids")
    lo, hi = float(cfg.range_nm[0]), float(cfg.range_nm[1])
    if not lo < hi:
        raise ValueError("range must satisfy low < high")
    mask = (reference.wavelengths_nm >= lo) & (reference.wavelengths_nm <= hi)
    if int(mask.sum()) < 2:
        raise ValueError("fewer than two samples fall inside the requested range")
    diff = analyte.reflectance[mask] - reference.reflectance[mask]
    diff = diff - diff.mean()
    magnitude = np.abs(diff)
    if cfg.rule == "sum_abs":
        return float(magnitude.sum())
    return float(magnitude.mean())
