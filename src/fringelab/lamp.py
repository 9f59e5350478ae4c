"""Fringe phase extraction with a complex Morlet band-pass filter.

A spectrum is resampled linearly onto a uniform wavenumber grid and its
dominant fringe frequency located on the zero-padded transform, whose pad
length and cutoff follow from the grid (no window function: it would broaden
the peak that sizes the filter). A complex Morlet wavelet with that peak's bandwidth isolates
the fringe band; the filtered signal's unwrapped, cycle-anchored phase is
averaged against a reference to give a sub-fringe measure of
optical-thickness change.

Every stage takes a (rows, points) stack; lamp_signal is a stack of one. The
filter transforms a stack as one complex block, at the one size its grid sets.
Cached read-only: the reference's phase profile per (config, wavelengths,
reflectance), so a stream or a study against one reference computes it once;
the baseline design per grid; the wavelet carrier per (peak, spacing, reach).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateAmplitudeError
from .filmsim import Spectrum
# padded_peak is not called here; it stays a lamp attribute that perfbench's tracer wraps
from .spectral import PeakInfo, padded_peak, padded_peak_rows  # noqa: F401
from .wavegrid import (
    DEFAULT_GRID_POINTS,
    DEFAULT_RANGE_NM,
    ResampledSpectrum,
    WavenumberGrid,
    default_pad_length,
    resample_rows,
)

# Envelope support: samples span +/- this many envelope sigmas.
ENVELOPE_HALF_WIDTH_SIGMAS = 4.0

# Phase is meaningless where the filtered amplitude underflows.
AMPLITUDE_FLOOR = 1e-12

_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


@dataclass(frozen=True)
class LampConfig:
    range_nm: tuple[float, float] = DEFAULT_RANGE_NM
    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        object.__setattr__(self, "range_nm", tuple(self.range_nm))  # hashable cache key
        WavenumberGrid.from_wavelength_range(self.range_nm, self.n_points)  # the window is valid


@dataclass(frozen=True)
class MorletWavelet:
    """Complex exponential under a Gaussian envelope, unit energy."""

    center_frequency_nm: float
    envelope_sigma: float  # Gaussian std in wavenumber units
    spacing: float  # sample spacing, matches the target grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size % 2 != 1:
            raise ValueError("wavelet samples must be 1-d with an odd count")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class FilteredSpectrum:
    """Complex band-passed fringes on the resampled grid, one row or a stack."""

    grid: WavenumberGrid
    complex_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.complex_values, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[-1] != self.grid.n_points:
            raise ValueError("complex_values must match the grid length in each row")
        object.__setattr__(self, "complex_values", v)

    @property
    def phase(self) -> np.ndarray:
        """Wrapped phase in (-pi, pi]."""
        return np.angle(self.complex_values)


@lru_cache(maxsize=16)
def _carrier(center_frequency_nm: float, delta_sigma: float, reach: int) -> np.ndarray:
    """Read-only exp(1j*2*pi*f*k*delta_sigma) for k in [-reach, reach]."""
    offsets = np.arange(-reach, reach + 1) * delta_sigma
    carrier = np.exp(1j * 2.0 * math.pi * center_frequency_nm * offsets)
    carrier.setflags(write=False)
    return carrier


def design_wavelet(peak: PeakInfo, delta_sigma: float) -> MorletWavelet:
    """Morlet wavelet matched to a measured fringe peak.

    The envelope is sized so the wavelet's frequency-domain FWHM equals the
    peak's measured FWHM; samples are spaced like the grid the filter will
    run on and normalized to unit energy.
    """
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    if peak.fwhm_nm <= 0.0:
        raise ValueError("peak FWHM must be positive")
    sigma = _FWHM_TO_SIGMA / (2.0 * math.pi * peak.fwhm_nm)
    half_count = int(math.floor(ENVELOPE_HALF_WIDTH_SIGMAS * sigma / delta_sigma))
    if half_count < 1:
        raise ValueError("grid too coarse to sample the wavelet envelope")
    reach = -(-half_count // 256) * 256  # half counts up to a multiple of 256 share a carrier
    carrier = _carrier(peak.center_frequency_nm, delta_sigma, reach)
    offsets = np.arange(-half_count, half_count + 1) * delta_sigma
    samples = carrier[reach - half_count : reach + half_count + 1]
    samples = samples * np.exp(-(offsets**2) / (2.0 * sigma**2))
    energy = np.sum(np.abs(samples) ** 2) * delta_sigma
    samples = samples / math.sqrt(energy)
    return MorletWavelet(
        center_frequency_nm=peak.center_frequency_nm,
        envelope_sigma=sigma,
        spacing=delta_sigma,
        samples=samples,
    )


def filter_spectrum(resampled: ResampledSpectrum, wavelet) -> FilteredSpectrum:
    """Convolve each row with its wavelet ("same" alignment): one MorletWavelet, or one per row.

    The data is zero-extended beyond its ends, so amplitude decays near the
    edges. The wavelets must have been designed for this grid's spacing.
    Each kernel is the wavelet's taps within h = min((m - 1) / 2, n - 1) of its centre, the
    only ones that meet data, wrapped around index 0. The stack is one zero-padded complex
    block of the power of two >= 2n - 1 points, so nothing aliases into the n kept samples and
    a row's bits do not depend on its stack.
    """
    spacing = resampled.grid.delta_sigma
    values = np.atleast_2d(resampled.values)
    wavelets = [wavelet] * len(values) if isinstance(wavelet, MorletWavelet) else list(wavelet)
    if len(wavelets) != len(values):
        raise ValueError(f"need one wavelet per row: {len(wavelets)} for {len(values)} rows")
    if not all(math.isclose(w.spacing, spacing, rel_tol=1e-9, abs_tol=0.0) for w in wavelets):
        raise ValueError("wavelet sample spacing does not match the grid")
    n = values.shape[1]
    size = 1 << (2 * n - 2).bit_length()
    block = np.zeros((len(values), size), dtype=complex)
    block[:, :n] = values
    kernels = np.zeros((len(wavelets), size), dtype=complex)
    for kernel, w in zip(kernels, wavelets):
        c = (w.samples.size - 1) // 2
        h = min(c, n - 1)
        kernel[: h + 1], kernel[size - h :] = w.samples[c : c + h + 1], w.samples[c - h : c]
    np.fft.fft(block, out=block)
    block *= np.fft.fft(kernels, out=kernels)
    np.fft.ifft(block, out=block)
    out = block[:, :n] * spacing
    return FilteredSpectrum(resampled.grid, out.reshape(np.shape(resampled.values)))


def _checked_amplitude(complex_values: np.ndarray) -> np.ndarray:
    amplitude = np.abs(complex_values)
    if np.any(amplitude < AMPLITUDE_FLOOR):
        raise DegenerateAmplitudeError(
            f"filtered amplitude below {AMPLITUDE_FLOOR:g}; phase undefined"
        )
    return amplitude


def normalize_fringes(filtered: FilteredSpectrum) -> np.ndarray:
    """Unit-amplitude fringes cos(phase), i.e. real part over amplitude."""
    return filtered.complex_values.real / _checked_amplitude(filtered.complex_values)


def unwrap_phase(wrapped) -> np.ndarray:
    """Unwrap by 2*pi steps so successive differences stay within (-pi, pi].

    Takes one profile or a (rows, points) stack, unwrapped row by row. The
    first element of each row is returned unchanged.
    """
    w = np.asarray(wrapped, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] < 2:
        raise ValueError("need a 1-d array or rows of at least two phases")
    return np.unwrap(w, axis=-1)


def anchor_cycle(unwrapped: np.ndarray, coarse_eot_nm, sigma_min: float) -> np.ndarray:
    """Shift an unwrapped profile by whole cycles to match a coarse estimate.

    Unwrapping fixes only phase differences; the absolute cycle count comes
    from the transform-peak estimate: the profile is offset by the integer
    number of cycles that brings its first sample closest to
    2*pi*coarse_eot_nm*sigma_min. A (rows, points) stack takes one
    estimate per row.
    """
    u = np.asarray(unwrapped, dtype=float)
    two_pi = 2.0 * math.pi
    cycles = np.round((two_pi * np.asarray(coarse_eot_nm) * sigma_min - u[..., 0]) / two_pi)
    return u + two_pi * cycles[..., None]


def _remove_baseline(grid: WavenumberGrid, values: np.ndarray) -> np.ndarray:
    """Subtract a quadratic least-squares baseline from each resampled row.

    The fringe carrier rides on a slowly varying pedestal: the film's mean
    reflectance plus any broadband drift. Left in place, the pedestal's
    transform tail would hide the fringe peak, and its step response at the
    data edges would leak through the band-pass filter and bias the phase.
    A quadratic absorbs smooth wavelength-domain drifts, which map through
    1/lambda to near-parabolic trends on the wavenumber grid, while the
    fringe carrier (several cycles across the grid) is left intact. Each
    row gets its own fit, np.polyfit's steps: one 2-d solve rounds differently.
    """
    u, lhs, scale = _baseline_design(grid)
    rcond = len(u) * np.finfo(float).eps
    return np.array([row - np.polyval(np.linalg.lstsq(lhs, row, rcond)[0] / scale, u)
                     for row in values])


@lru_cache(maxsize=8)
def _baseline_design(grid: WavenumberGrid):
    """Read-only u in [-1, 1] on the grid, np.polyfit's column-scaled vander(u, 3), the scales."""
    u = (grid.sigmas() - grid.mean_sigma) / ((grid.sigma_max - grid.sigma_min) / 2.0)
    lhs = np.vander(u, 3)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    design = u, lhs / scale, scale
    for array in design:
        array.setflags(write=False)
    return design


def _phase_rows(wavelengths_nm, rows, cfg: LampConfig) -> np.ndarray:
    """Anchored phase profile of each row, each filtered by the wavelet matched to its peak."""
    resampled = resample_rows(wavelengths_nm, rows, cfg.range_nm, cfg.n_points, method="linear")
    grid, delta_sigma = resampled.grid, resampled.grid.delta_sigma
    values = _remove_baseline(grid, resampled.values)
    peaks = padded_peak_rows(values, delta_sigma, default_pad_length(delta_sigma))
    wavelets = [design_wavelet(peak, delta_sigma) for peak in peaks]
    filtered = filter_spectrum(ResampledSpectrum(grid, values), wavelets)
    _checked_amplitude(filtered.complex_values)
    return anchor_cycle(unwrap_phase(filtered.phase),
                        [peak.center_frequency_nm for peak in peaks], grid.sigma_min)


@lru_cache(maxsize=8)
def _reference_profile(cfg: LampConfig, wavelengths: bytes, reflectance: bytes) -> np.ndarray:
    """Read-only anchored phase of the reference spectrum whose float64 wavelengths and
    reflectance have these bytes."""
    (phase,) = _phase_rows(np.frombuffer(wavelengths), np.frombuffer(reflectance)[None], cfg)
    phase.flags.writeable = False
    return phase


def lamp_rows(reference: Spectrum, wavelengths_nm, rows, cfg: LampConfig = LampConfig()) -> list:
    """lamp_signal of each analyte row of a stack sampled at wavelengths_nm, in radians."""
    ref_phase = _reference_profile(
        cfg, reference.wavelengths_nm.tobytes(), reference.reflectance.tobytes())
    return (_phase_rows(wavelengths_nm, rows, cfg) - ref_phase).mean(axis=1).tolist()


def lamp_signal(reference: Spectrum, analyte: Spectrum, cfg: LampConfig = LampConfig()) -> float:
    """Mean anchored-phase difference (analyte minus reference), in radians.

    Positive when the analyte's optical thickness exceeds the reference's.
    Each spectrum gets its own wavelet, matched to its own fringe peak, and
    every grid point counts in the average.
    """
    return lamp_rows(reference, analyte.wavelengths_nm, analyte.reflectance[None], cfg)[0]


def lamp_to_delta_eot(mean_phase_difference: float, grid: WavenumberGrid) -> float:
    """Convert a mean phase difference to an optical-thickness change (nm)."""
    return mean_phase_difference / (2.0 * math.pi * grid.mean_sigma)
