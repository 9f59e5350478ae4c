"""Fringe phase extraction with a complex Morlet band-pass filter.

A spectrum is resampled linearly onto its window's uniform wavenumber grid
(a WindowConfig: the window in nm, the grid 2048 points) and its
dominant fringe frequency located on the zero-padded transform, whose pad
length and cutoff follow from the grid (no window function: it would broaden
the peak that sizes the filter). A complex Morlet wavelet with that peak's bandwidth isolates
the fringe band; the phase is the angle of the complex filtered fringes, and its
unwrapped, cycle-anchored profile is averaged against a reference to give a
sub-fringe measure of optical-thickness change.

Every stage takes a (rows, points) stack; lamp_signal is a stack of one. The
filter takes a stack, its spacing and one wavelet per row, and returns the
complex filtered stack, transformed as one block at the one size its grid sets.
Unwrapping folds only the steps outside (-pi, pi), with np.unwrap's arithmetic,
so it returns np.unwrap's bits. Cached read-only: the reference's phase profile
per (window, wavelengths, reflectance), so a stream or a study against one
reference computes it once; the baseline design per grid; the wavelet carrier
per (peak, spacing, reach) and the envelope's squared offsets per (spacing, reach).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateAmplitudeError
from .filmsim import Spectrum
# padded_peak is not called here; it stays a lamp attribute that perfbench's tracer wraps
from .spectral import PeakInfo, padded_peak, padded_peak_rows, padded_stack  # noqa: F401
from .wavegrid import WindowConfig, default_pad_length, resample_rows

# Envelope support: samples span +/- this many envelope sigmas.
ENVELOPE_HALF_WIDTH_SIGMAS = 4.0

# Phase is meaningless where the filtered amplitude underflows.
AMPLITUDE_FLOOR = 1e-12

_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


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


@lru_cache(maxsize=16)
def _carrier(center_frequency_nm: float, delta_sigma: float, reach: int) -> np.ndarray:
    """Read-only exp(1j*2*pi*f*k*delta_sigma) for k in [-reach, reach]."""
    offsets = np.arange(-reach, reach + 1) * delta_sigma
    carrier = np.exp(1j * 2.0 * math.pi * center_frequency_nm * offsets)
    carrier.setflags(write=False)
    return carrier


@lru_cache(maxsize=4)
def _squared_offsets(delta_sigma: float, reach: int) -> np.ndarray:
    """Read-only -(k*delta_sigma)**2 for k in [-reach, reach]: one per reach, for every peak."""
    exponent = -((np.arange(-reach, reach + 1) * delta_sigma) ** 2)
    exponent.setflags(write=False)
    return exponent


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
    taps = slice(reach - half_count, reach + half_count + 1)
    carrier = _carrier(peak.center_frequency_nm, delta_sigma, reach)[taps]
    samples = carrier * np.exp(_squared_offsets(delta_sigma, reach)[taps] / (2.0 * sigma**2))
    energy = np.sum(np.abs(samples) ** 2) * delta_sigma
    # numpy divides complex by real as a product with the reciprocal: the same bits
    samples *= 1.0 / math.sqrt(energy)
    return MorletWavelet(
        center_frequency_nm=peak.center_frequency_nm,
        envelope_sigma=sigma,
        spacing=delta_sigma,
        samples=samples,
    )


def filter_spectrum(rows, delta_sigma: float, wavelets) -> np.ndarray:
    """Convolve each row of a (rows, points) stack with its wavelet ("same" alignment).

    Returns the complex (rows, points) filtered stack. wavelets holds one MorletWavelet per
    row, each designed for the grid spacing delta_sigma. The data is zero-extended beyond its
    ends, so amplitude decays near the edges.
    Each kernel is the wavelet's taps within h = min((m - 1) / 2, n - 1) of its centre, the
    only ones that meet data, wrapped around index 0. The stack is one zero-padded complex
    block of the power of two >= 2n - 1 points, so nothing aliases into the n kept samples and
    a row's bits do not depend on its stack.
    """
    values = np.asarray(rows)
    if values.ndim != 2 or isinstance(wavelets, MorletWavelet):
        raise ValueError("need a (rows, points) stack and one wavelet per row")
    if len(wavelets) != len(values):
        raise ValueError(f"need one wavelet per row: {len(wavelets)} for {len(values)} rows")
    if not all(math.isclose(w.spacing, delta_sigma, rel_tol=1e-9, abs_tol=0.0) for w in wavelets):
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
    return block[:, :n] * delta_sigma


def _check_amplitude(filtered: np.ndarray) -> None:
    if np.any(np.abs(filtered) < AMPLITUDE_FLOOR):
        raise DegenerateAmplitudeError(
            f"filtered amplitude below {AMPLITUDE_FLOOR:g}; phase undefined"
        )


def unwrap_phase(wrapped) -> np.ndarray:
    """Unwrap by 2*pi steps so successive differences stay within (-pi, pi].

    Takes one profile or a (rows, points) stack, unwrapped row by row. The
    first element of each row is returned unchanged. The result is
    np.unwrap's, bit for bit: a NaN or infinite phase makes the rest of its
    row NaN.
    """
    w = np.asarray(wrapped, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] < 2:
        raise ValueError("need a 1-d array or rows of at least two phases")
    # np.unwrap's steps, with the correction folded only where a step is not inside
    # (-pi, pi): a few per row, against np.mod over every step
    period = 2.0 * math.pi
    high = period / 2.0
    dd = np.diff(w, axis=-1)
    jumps = ~(np.abs(dd) < high)
    step = dd[jumps]
    folded = np.mod(step + high, period) - high
    folded[(folded == -high) & (step > 0)] = high
    correction = np.zeros_like(dd)
    correction[jumps] = folded - step
    unwrapped = w.copy()
    unwrapped[..., 1:] += correction.cumsum(axis=-1)
    return unwrapped


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


def _remove_baseline(window: WindowConfig, values: np.ndarray) -> np.ndarray:
    """Subtract a quadratic least-squares baseline from each resampled row.

    The fringe carrier rides on a slowly varying pedestal: the film's mean
    reflectance plus any broadband drift. Left in place, the pedestal's
    transform tail would hide the fringe peak, and its step response at the
    data edges would leak through the band-pass filter and bias the phase.
    A quadratic absorbs smooth wavelength-domain drifts, which map through
    1/lambda to near-parabolic trends on the wavenumber grid, while the
    fringe carrier (several cycles across the grid) is left intact. Each
    row gets its own fit, np.polyfit's steps. Measured dead ends: one lstsq
    over the whole stack moves lamp cells by <= 2.6e-13 rel, within the
    rounding rule, but makes a row's bits depend on its stack (over a thousand
    row mismatches in 300 random stacks of 1-16 rows), which the study's
    row-by-row rerun of a failing stack forbids; QR and pseudo-inverse
    projections move lamp cells by 1.8-2.4e-12 rel, outside the rule; a
    vectorised Horner step after the per-row solves is bit-identical but
    saves only ~6% of the polyval time, while the solves cost 3x that.
    """
    u, lhs, scale = _baseline_design(window)
    rcond = len(u) * np.finfo(float).eps
    return np.array([row - np.polyval(np.linalg.lstsq(lhs, row, rcond)[0] / scale, u)
                     for row in values])


@lru_cache(maxsize=8)
def _baseline_design(window: WindowConfig):
    """Read-only u in [-1, 1] on window's grid, polyfit's column-scaled vander(u, 3), the scales."""
    u = (window.sigmas() - window.mean_sigma) / ((window.sigma_max - window.sigma_min) / 2.0)
    lhs = np.vander(u, 3)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    design = u, lhs / scale, scale
    for array in design:
        array.setflags(write=False)
    return design


def _phase_rows(wavelengths_nm, rows, cfg: WindowConfig) -> np.ndarray:
    """Anchored phase profile of each row, each filtered by the wavelet matched to its peak."""
    delta_sigma = cfg.delta_sigma
    resampled = resample_rows(wavelengths_nm, rows, cfg, method="linear")
    values = _remove_baseline(cfg, resampled)
    peaks = padded_peak_rows(padded_stack(values, delta_sigma, default_pad_length(delta_sigma)))
    wavelets = [design_wavelet(peak, delta_sigma) for peak in peaks]
    filtered = filter_spectrum(values, delta_sigma, wavelets)
    _check_amplitude(filtered)
    return anchor_cycle(unwrap_phase(np.angle(filtered)),
                        [peak.center_frequency_nm for peak in peaks], cfg.sigma_min)


@lru_cache(maxsize=8)
def _reference_profile(cfg: WindowConfig, wavelengths: bytes, reflectance: bytes) -> np.ndarray:
    """Read-only anchored phase of the reference spectrum whose float64 wavelengths and
    reflectance have these bytes."""
    (phase,) = _phase_rows(np.frombuffer(wavelengths), np.frombuffer(reflectance)[None], cfg)
    phase.flags.writeable = False
    return phase


def lamp_rows(reference: Spectrum, wavelengths_nm, rows,
              cfg: WindowConfig = WindowConfig()) -> list:
    """lamp_signal of each analyte row of a stack sampled at wavelengths_nm, in radians."""
    ref_phase = _reference_profile(
        cfg, reference.wavelengths_nm.tobytes(), reference.reflectance.tobytes())
    return (_phase_rows(wavelengths_nm, rows, cfg) - ref_phase).mean(axis=1).tolist()


def lamp_signal(reference: Spectrum, analyte: Spectrum,
                cfg: WindowConfig = WindowConfig()) -> float:
    """Mean anchored-phase difference (analyte minus reference), in radians.

    Positive when the analyte's optical thickness exceeds the reference's.
    Each spectrum gets its own wavelet, matched to its own fringe peak, and
    every grid point counts in the average.
    """
    return lamp_rows(reference, analyte.wavelengths_nm, analyte.reflectance[None], cfg)[0]


def lamp_to_delta_eot(mean_phase_difference: float, window: WindowConfig) -> float:
    """Convert a mean phase difference on window's grid to an optical-thickness change (nm)."""
    return mean_phase_difference / (2.0 * math.pi * window.mean_sigma)
