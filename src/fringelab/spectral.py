"""Discrete Fourier analysis of wavenumber-domain fringes.

The transform of a uniform wavenumber grid has its frequency axis in nm:
bin m of an N-point transform sits at m / (N * delta_sigma), which for
thin-film fringes reads directly as effective optical thickness. The
forward transform applies no normalization (plain summation), so
sum |X|^2 over a full transform equals N times the input energy.

A zero-padded transform is measured without materializing it: every
step-th padded bin comes from a shorter rfft that keeps at least 4 coarse
bins per resolution cell 1/(n * delta_sigma). It brackets the peak and each
half-maximum crossing; in a bracket the answer is the bin where a test on
single exact padded bins turns from False to True (assumed to turn once),
found by galloping out from a guess off the coarse grid, refined once on
exact bins, then bisecting. Bin b is summed directly as phasor row r = b mod
64 against the data modulated to the base b - r, on a fixed 64-bin grid.
Cached read-only: phasor rows per (points, pad), modulations per (points,
pad, base), the first bin above the cutoff per grid.
padded_peak is padded_peak_rows on a stack of one.
"""

from __future__ import annotations

import math
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
        below = part <= level
        k = int(below.argmax())
        if below[k]:
            return k
    return None


def _first_true(pred, lo: int, hi: int, guess: float) -> int:
    """The first k in [lo, hi) with pred(k), else hi, for a pred that is False then True on
    [lo, hi): bisect_left(range(hi), True, lo, key=pred). Probes gallop out from guess (a NaN
    guess starts at hi - 1) by doubling strides until they pass the answer, then bisect."""
    stride, way = 1, 0
    while lo < hi:
        k = int(max(lo, min(hi - 1, guess)))
        turn = -1 if pred(k) else 1
        lo, hi = (lo, k) if turn < 0 else (k + 1, hi)
        stride = 0 if way + turn == 0 else stride  # passed the answer: bisect from here on
        guess = k + turn * stride if stride else (lo + hi) // 2
        way, stride = turn, 2 * stride
    return lo


def _fraction(start, end, level) -> float:
    """Where level lies from start (0) to end (1) on a line; NaN if end == start. In Python
    floats, so that a non-finite magnitude raises no numpy warning."""
    start, end, level = float(start), float(end), float(level)
    return (level - start) / (end - start) if end != start else math.nan


def _measure_peak(coarse, f0, df, low_cutoff_nm, step=1, exact=None, last=None):
    """Peak of magnitudes |X[0..last]| at frequencies f0 + m*df, given coarse[c] = |X[c*step]|.

    exact(b) returns |X[b]| (the coarse bin when step == 1). A main lobe spans >= 8 coarse
    bins, so it is unimodal within +/-1 of the coarse argmax and monotone on each flank: the
    argmax and both half-maximum crossings are where a False-then-True test on single exact
    bins turns True, found by _first_true from a guess taken off the coarse grid and refined
    once on exact bins."""
    if step == 1:
        exact, last = coarse.__getitem__, coarse.size - 1
    edge = _cutoff_edge(f0, df, float(low_cutoff_nm), last)
    first = -(-edge // step)
    if first >= coarse.size:
        raise NoFringePeakError(f"no transform bins above the {low_cutoff_nm:g} nm cutoff")
    c = first + int(np.argmax(coarse[first:]))
    lo, hi = max(step * (c - 1), edge), min(step * (c + 1), last)
    # the first bin no lower than its right neighbour is the bracket's (first) maximum; guess
    # the vertex of the parabola through coarse bins c - 1..c + 1, then through exact bins
    guess = step * c
    if 0 < c < coarse.size - 1:
        left, mid, right = coarse[c - 1 : c + 2].tolist()
        guess = step * (c - 0.5 + _fraction(mid - left, right - mid, 0.0)) + 0.5
    if lo + 1 <= guess < hi:
        b = int(guess)
        left, mid, right = (float(exact(b + i)) for i in (-1, 0, 1))
        guess = b + _fraction(mid - left, right - mid, 0.0)
    peak = _first_true(lambda b: exact(b) >= exact(b + 1), lo, hi, guess)
    peak = edge if exact(edge) > exact(peak) else peak
    m = exact(peak)
    m_l, m_r = (exact(peak - 1), exact(peak + 1)) if 0 < peak < last else (m, m)
    if not (0 < peak < last and m > 0.0 and m >= max(m_l, m_r) and m > min(m_l, m_r)):
        raise NoFringePeakError(
            "no fringe peak: largest magnitude above the cutoff is not a local maximum")
    half = 0.5 * m

    def crossing(d: int) -> float:
        # walking from the peak by d, the first bin at or below half lies past inner (the peak
        # or a coarse step before outer) and by outer, the first coarse bin at or below half;
        # guess its step s from their magnitudes, then by a Newton step on exact bins s, s + 1
        start = peak // step + 1 if d > 0 else (peak - 1) // step
        hit = _first_at_or_below(coarse[start:] if d > 0 else coarse[start::-1], half)
        outer = step * (start + d * hit) if hit is not None else (last if d > 0 else 0)
        inner = max(peak, outer - step) if d > 0 else min(peak, outer + step)
        n = guess = abs(outer - inner)
        if hit is not None and n > 1:
            high = m if inner == peak else coarse[inner // step]
            s = int(max(1, min(n - 1, n * _fraction(high, coarse[outer // step], half))))
            guess = s + 1 + _fraction(exact(inner + d * s), exact(inner + d * s + d), half)
        k = _first_true(lambda s: exact(inner + d * s) <= half, 1, n + 1, guess)
        if k > n:
            raise PeakMeasurementError("half-maximum crossing ran off the spectrum")
        j_bin, k_bin = inner + d * (k - 1), inner + d * k
        # Linear interpolation between bins j and k on magnitude.
        frac = (half - exact(j_bin)) / (exact(k_bin) - exact(j_bin))
        f_j, f_k = f0 + j_bin * df, f0 + k_bin * df
        return float(f_j + frac * (f_k - f_j))

    right, left = crossing(1), crossing(-1)
    center = float(f0 + peak * df)
    return PeakInfo(center_frequency_nm=center, fwhm_nm=right - left, peak_power=float(m**2))


@lru_cache(maxsize=16)
def _cutoff_edge(f0: float, df: float, low_cutoff_nm: float, last: int) -> int:
    """First of bins 0..last above the cutoff (last + 1 if none); bin frequencies ascend.
    Cached: the rows of a stack, and the spectra of one grid, share it."""
    return _first_true(lambda b: f0 + df * b > low_cutoff_nm, 0, last + 1, 0)


def dominant_peak(spectrum: FrequencySpectrum,
                  low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM) -> PeakInfo:
    """Largest-magnitude local maximum above the low-frequency cutoff.

    The center is the bin frequency. The full width at half maximum is
    measured on magnitude (not power) by linear interpolation around the peak.
    """
    f0, df = float(spectrum.frequencies_nm[0]), spectrum.bin_spacing_nm
    return _measure_peak(np.abs(spectrum.amplitudes), f0, df, low_cutoff_nm)


def _full_padded_peak(values, delta_sigma, pad_length, low_cutoff_nm) -> PeakInfo:
    mags = np.abs(np.fft.rfft(np.asarray(values, dtype=float), n=pad_length))
    return _measure_peak(mags, 0.0, 1.0 / (pad_length * delta_sigma), low_cutoff_nm)


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


class _ExactBins(dict):
    """bin b -> |padded bin b| of row, each bin summed once against the row modulated to its
    base; a dict, so that a bin already summed costs one lookup and no Python call."""

    def __init__(self, row: np.ndarray, pad_length: int, phasors: np.ndarray):
        super().__init__()
        self.row, self.pad_length, self.phasors, self.modulated = row, pad_length, phasors, {}

    def __missing__(self, b: int) -> float:
        base = b - b % BASE_BINS
        if base not in self.modulated:
            self.modulated[base] = self.row * _modulation(self.row.size, self.pad_length, base)
        self[b] = magnitude = _bin_magnitude(self.phasors[b - base], self.modulated[base])
        return magnitude


def padded_peak_rows(rows, delta_sigma: float, pad_length: int,
                     low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM) -> list:
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
    return [_measure_peak(c, 0.0, df, low_cutoff_nm, step,
                          _ExactBins(row, pad_length, phasors).__getitem__, pad_length // 2)
            for row, c in zip(v, coarse)]


def padded_peak(values, delta_sigma: float, pad_length: int,
                low_cutoff_nm: float = DEFAULT_LOW_CUTOFF_NM) -> PeakInfo:
    """Dominant peak of the zero-padded transform, without materializing it.

    Equivalent to dominant_peak of the dft of values followed by zeros up to
    pad_length points.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    return padded_peak_rows(v[None], delta_sigma, pad_length, low_cutoff_nm)[0]
