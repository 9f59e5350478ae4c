"""Discrete Fourier analysis of wavenumber-domain fringes.

The transform of a uniform wavenumber grid has its frequency axis in nm:
bin m of an N-point transform sits at m / (N * delta_sigma), which for
thin-film fringes reads directly as effective optical thickness. The
forward transform applies no normalization (plain summation), so
sum |X|^2 over a full transform equals N times the input energy.

A zero-padded transform is measured without materializing it: every
step-th padded bin comes from a shorter rfft that keeps at least 16 coarse
bins per resolution cell 1/(n * delta_sigma), which brackets the peak and
both half-maximum crossings; the exact padded bins inside each bracket,
summed directly, decide them. padded_peak is padded_peak_rows on a stack of
one. Cached read-only: phasors and bracket modulations per (points, pad, bin).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoFringePeakError, PeakMeasurementError

MIN_TRANSFORM_POINTS = 16

DEFAULT_LOW_CUTOFF_NM = 1000.0


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

    exact(lo, hi) returns |X[lo..hi]| (the coarse bins when step == 1); it
    decides the argmax inside +/-1 coarse bin and each half-maximum
    crossing inside one coarse interval.
    """
    if step == 1:
        def exact(lo, hi):
            return coarse[lo : hi + 1]
    last = coarse.size - 1 if last is None else last
    # the coarse bin frequencies ascend: bisect for the first above the cutoff
    first = bisect_left(range(coarse.size), True,
                        key=lambda c: f0 + df * (step * c) > low_cutoff_nm)
    if first == coarse.size:
        raise NoFringePeakError(f"no transform bins above the {low_cutoff_nm:g} nm cutoff")
    c = first + int(np.argmax(coarse[first:]))
    lo = max(step * (c - 1) - 1, 0)
    mags = exact(lo, min(step * (c + 1) + 1, last))
    bins = lo + np.arange(mags.size)
    inside = (np.abs(bins - step * c) <= step) & (f0 + df * bins > low_cutoff_nm)
    i = int(np.argmax(np.where(inside, mags, -1.0)))
    peak = lo + i
    is_local_max = (
        0 < peak < last
        and mags[i] > 0.0
        and mags[i] >= mags[i - 1]
        and mags[i] >= mags[i + 1]
        and (mags[i] > mags[i - 1] or mags[i] > mags[i + 1])
    )
    if not is_local_max:
        raise NoFringePeakError(
            "no fringe peak: largest magnitude above the cutoff is not a local maximum"
        )

    half = 0.5 * mags[i]

    def crossing(lo: int, hi: int, direction: int) -> float:
        walk = exact(lo, hi)[:: direction]
        start = lo if direction > 0 else hi
        below = np.flatnonzero(walk[1:] <= half)
        if below.size == 0:
            raise PeakMeasurementError("half-maximum crossing ran off the spectrum")
        k = int(below[0]) + 1
        j_bin, k_bin = start + direction * (k - 1), start + direction * k
        # Linear interpolation between bins j and k on magnitude.
        frac = (half - walk[k - 1]) / (walk[k] - walk[k - 1])
        f_j, f_k = f0 + j_bin * df, f0 + k_bin * df
        return float(f_j + frac * (f_k - f_j))

    right_hit = _first_at_or_below(coarse[peak // step + 1 :], half)
    hi = step * (peak // step + 1 + right_hit) if right_hit is not None else last
    right = crossing(max(peak, hi - step), hi, +1)
    left_hit = _first_at_or_below(coarse[(peak - 1) // step :: -1], half)
    lo = step * ((peak - 1) // step - left_hit) if left_hit is not None else 0
    left = crossing(lo, min(peak, lo + step), -1)

    center = float(f0 + peak * df)
    if refine:
        m_l, m_c, m_r = mags[i - 1], mags[i], mags[i + 1]
        denom = m_l - 2.0 * m_c + m_r
        if denom != 0.0:
            shift = 0.5 * (m_l - m_r) / denom
            center += shift * df

    return PeakInfo(center_frequency_nm=center, fwhm_nm=right - left,
                    peak_power=float(mags[i] ** 2))


def dominant_peak(
    spectrum: FrequencySpectrum,
    low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM,
    refine: bool = False,
) -> PeakInfo:
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
    """Coarse step and read-only phasors exp(-2j*pi*r*j/pad_length), r < 2*step + 3, j < n.

    The step is the largest divisor of pad_length leaving >= 16 coarse bins per sample.
    """
    step = next(d for d in range(max(pad_length // (16 * n), 1), 0, -1) if pad_length % d == 0)
    turns = np.outer(np.arange(2 * step + 3), np.arange(n)) % pad_length
    phasors = np.exp(-2j * np.pi * turns / pad_length)
    phasors.setflags(write=False)
    return step, phasors


@lru_cache(maxsize=16)
def _modulation(n: int, pad_length: int, lo: int) -> np.ndarray:
    """Read-only exp(-2j*pi*lo*j/pad_length), j < n: it shifts padded bin lo to bin 0."""
    modulation = np.exp(-2j * np.pi * ((lo * np.arange(n)) % pad_length) / pad_length)
    modulation.setflags(write=False)
    return modulation


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
    n, pad = v.shape[1], pad_length
    step, phasors = _plan(n, pad)
    coarse = np.abs(np.fft.rfft(v, n=pad // step, axis=1))
    df = 1.0 / (pad * delta_sigma)

    def exact(row):  # |padded bins lo..hi| of one row: bin lo modulated down to phasor row 0
        return lambda lo, hi: np.abs(phasors[: hi - lo + 1] @ (row * _modulation(n, pad, lo)))

    return [_measure_peak(c, 0.0, df, low_cutoff_nm, refine, step, exact(row), pad // 2)
            for row, c in zip(v, coarse)]


def padded_peak(
    values,
    delta_sigma: float,
    pad_length: int,
    low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM,
    refine: bool = False,
) -> PeakInfo:
    """Dominant peak of the zero-padded transform, without materializing it.

    Equivalent to dominant_peak of the dft of values followed by zeros up to
    pad_length points.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    return padded_peak_rows(v[None], delta_sigma, pad_length, low_cutoff_nm, refine)[0]
