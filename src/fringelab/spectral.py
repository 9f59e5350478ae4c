"""Discrete Fourier analysis of wavenumber-domain fringes.

The transform of a uniform wavenumber grid has its frequency axis in nm:
bin m of an N-point transform sits at m / (N * delta_sigma), which for
thin-film fringes reads directly as effective optical thickness. The
forward transform applies no normalization (plain summation), so
sum |X|^2 over a full transform equals N times the input energy.

A zero-padded transform is measured without materializing it: every
step-th padded bin comes from a shorter rfft that keeps at least 4 coarse
bins per resolution cell 1/(n * delta_sigma), which brackets the peak and
both half-maximum crossings; a bisection over single exact padded bins in
each bracket decides them. Bin b is summed directly as phasor row r = b mod 64
against the data modulated to the base b - r, on a fixed 64-bin grid. Cached
read-only: phasor rows per (points, pad), modulations per (points, pad, base).
padded_peak is padded_peak_rows on a stack of one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoFringePeakError, PeakMeasurementError

MIN_TRANSFORM_POINTS = 16

DEFAULT_LOW_CUTOFF_NM = 1000.0

COARSE_BINS_PER_SAMPLE = 4
BASE_BINS = 64  # exact sums start from bases on this fixed grid, so no bin depends on the step


@dataclass(frozen=True)
class FrequencySpectrum:
    """Complex amplitudes on a uniformly spaced, ascending frequency axis."""

    frequencies_nm: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies_nm, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        if f.ndim != 1 or a.ndim != 1 or f.size != a.size:
            raise ValueError("frequencies and amplitudes must be 1-d and equally long")
        if f.size < 3:
            raise ValueError("need at least three frequency bins")
        object.__setattr__(self, "frequencies_nm", f)
        object.__setattr__(self, "amplitudes", a)

    @property
    def bin_spacing_nm(self) -> float:
        return float(self.frequencies_nm[1] - self.frequencies_nm[0])


@dataclass(frozen=True)
class PeakInfo:
    """Location, width, and power of a spectral peak."""

    center_frequency_nm: float
    fwhm_nm: float
    peak_power: float


def dft(values, delta_sigma: float) -> FrequencySpectrum:
    """Forward transform of real wavenumber-domain samples.

    Returns the non-negative-frequency half; bin m maps to
    m / (len(values) * delta_sigma) nm.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < MIN_TRANSFORM_POINTS:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    amplitudes = np.fft.rfft(v)
    frequencies = np.arange(amplitudes.size) * (1.0 / (v.size * delta_sigma))
    return FrequencySpectrum(frequencies, amplitudes)


def _first_at_or_below(walk: np.ndarray, level: float) -> int | None:
    """Index of the first walk[k] <= level: the first 64 values usually hold it."""
    for part in (walk[:64], walk):
        hits = np.flatnonzero(part <= level)
        if hits.size:
            return int(hits[0])
    return None


def _measure_peak(coarse, f0, df, low_cutoff_nm, refine, step=1, exact=None, last=None):
    """Peak of magnitudes |X[0..last]| at frequencies f0 + m*df, given coarse[c] = |X[c*step]|.

    exact(b) returns |X[b]| (the coarse bin when step == 1). A main lobe spans >= 8 coarse
    bins, so it is unimodal within +/-1 of the coarse argmax and monotone on each flank:
    single bins bisect the peak and both crossings; the first bin above the cutoff is checked.
    """
    if step == 1:
        exact = coarse.__getitem__
    last = coarse.size - 1 if last is None else last
    # the bin frequencies ascend: bisect for the first bin above the cutoff, then its coarse bin
    edge = bisect_left(range(last + 1), True, key=lambda b: f0 + df * b > low_cutoff_nm)
    first = -(-edge // step)
    if first >= coarse.size:
        raise NoFringePeakError(f"no transform bins above the {low_cutoff_nm:g} nm cutoff")
    c = first + int(np.argmax(coarse[first:]))
    lo, hi = max(step * (c - 1), edge), min(step * (c + 1), last)
    # the first bin no lower than its right neighbour is the bracket's (first) maximum
    peak = lo + bisect_left(range(lo, hi), True, key=lambda b: exact(b) >= exact(b + 1))
    peak = edge if exact(edge) > exact(peak) else peak
    m = exact(peak)
    if not (0 < peak < last and m > 0.0 and m >= max(exact(peak - 1), exact(peak + 1))
            and m > min(exact(peak - 1), exact(peak + 1))):
        raise NoFringePeakError(
            "no fringe peak: largest magnitude above the cutoff is not a local maximum")
    half = 0.5 * m

    def crossing(inner: int, outer: int) -> float:
        # bisect for the first bin at or below half walking from inner (above it) to outer
        if exact(outer) > half:
            raise PeakMeasurementError("half-maximum crossing ran off the spectrum")
        d = 1 if outer > inner else -1
        k_bin = inner + d * (1 + bisect_left(range(1, abs(outer - inner) + 1), True,
                                             key=lambda s: exact(inner + d * s) <= half))
        j_bin = k_bin - d
        # Linear interpolation between bins j and k on magnitude.
        frac = (half - exact(j_bin)) / (exact(k_bin) - exact(j_bin))
        f_j, f_k = f0 + j_bin * df, f0 + k_bin * df
        return float(f_j + frac * (f_k - f_j))

    right_hit = _first_at_or_below(coarse[peak // step + 1 :], half)
    outer = step * (peak // step + 1 + right_hit) if right_hit is not None else last
    right = crossing(max(peak, outer - step), outer)
    left_hit = _first_at_or_below(coarse[(peak - 1) // step :: -1], half)
    outer = step * ((peak - 1) // step - left_hit) if left_hit is not None else 0
    left = crossing(min(peak, outer + step), outer)

    center = float(f0 + peak * df)
    if refine:
        m_l, m_r = exact(peak - 1), exact(peak + 1)
        denom = m_l - 2.0 * m + m_r
        if denom != 0.0:
            center += 0.5 * (m_l - m_r) / denom * df
    return PeakInfo(center_frequency_nm=center, fwhm_nm=right - left, peak_power=float(m**2))


def dominant_peak(spectrum: FrequencySpectrum, low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM,
                  refine: bool = False) -> PeakInfo:
    """Largest-magnitude local maximum above the low-frequency cutoff.

    The full width at half maximum is measured on magnitude (not power) by
    linear interpolation around the peak. With refine=True the center gets
    a parabolic sub-bin adjustment; by default it is the bin frequency.
    """
    f0, df = float(spectrum.frequencies_nm[0]), spectrum.bin_spacing_nm
    return _measure_peak(np.abs(spectrum.amplitudes), f0, df, low_cutoff_nm, refine)


def _full_padded_peak(values, delta_sigma, pad_length, low_cutoff_nm, refine) -> PeakInfo:
    mags = np.abs(np.fft.rfft(np.asarray(values, dtype=float), n=pad_length))
    return _measure_peak(mags, 0.0, 1.0 / (pad_length * delta_sigma), low_cutoff_nm, refine)


@lru_cache(maxsize=8)
def _plan(n: int, pad_length: int) -> tuple[int, np.ndarray]:
    """Coarse step (the largest divisor of pad_length leaving >= COARSE_BINS_PER_SAMPLE
    coarse bins per sample) and read-only exp(-2j*pi*r*j/pad_length), r < BASE_BINS, j < n."""
    step = next(d for d in range(max(pad_length // (COARSE_BINS_PER_SAMPLE * n), 1), 0, -1)
                if pad_length % d == 0)
    turns = np.outer(np.arange(BASE_BINS), np.arange(n)) % pad_length
    phasors = np.exp(-2j * np.pi * turns / pad_length)
    phasors.setflags(write=False)
    return step, phasors


@lru_cache(maxsize=64)
def _modulation(n: int, pad_length: int, base: int) -> np.ndarray:
    """Read-only exp(-2j*pi*base*j/pad_length), j < n: it shifts padded bin base to bin 0."""
    modulation = np.exp(-2j * np.pi * ((base * np.arange(n)) % pad_length) / pad_length)
    modulation.setflags(write=False)
    return modulation


def _bin_magnitude(phasor_row: np.ndarray, modulated: np.ndarray) -> float:
    """One padded bin's magnitude: the only direct sum the peak measurement makes."""
    return abs(phasor_row @ modulated)


def _exact_bins(row: np.ndarray, pad_length: int, phasors: np.ndarray):
    """b -> |padded bin b| of row, each bin summed once against the row modulated to its base."""
    modulated, mags = {}, {}  # base -> row * modulation, bin -> magnitude

    def exact(b: int) -> float:
        if b not in mags:
            base = b - b % BASE_BINS
            if base not in modulated:
                modulated[base] = row * _modulation(row.size, pad_length, base)
            mags[b] = _bin_magnitude(phasors[b - base], modulated[base])
        return mags[b]

    return exact


def padded_peak_rows(rows, delta_sigma: float, pad_length: int,
                     low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM, refine: bool = False) -> list:
    """padded_peak of each row of a (rows, points) stack, from one coarse rfft of the stack."""
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] < MIN_TRANSFORM_POINTS:
        raise ValueError(f"need rows of at least {MIN_TRANSFORM_POINTS} samples")
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    if pad_length < v.shape[1]:
        raise ValueError("pad_length shorter than the data")
    step, phasors = _plan(v.shape[1], pad_length)
    coarse = np.abs(np.fft.rfft(v, n=pad_length // step, axis=1))
    df = 1.0 / (pad_length * delta_sigma)
    return [_measure_peak(c, 0.0, df, low_cutoff_nm, refine, step,
                          _exact_bins(row, pad_length, phasors), pad_length // 2)
            for row, c in zip(v, coarse)]


def padded_peak(values, delta_sigma: float, pad_length: int,
                low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM, refine: bool = False) -> PeakInfo:
    """Dominant peak of the zero-padded transform, without materializing it.

    Equivalent to dominant_peak of the dft of values followed by zeros up to
    pad_length points.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    return padded_peak_rows(v[None], delta_sigma, pad_length, low_cutoff_nm, refine)[0]
