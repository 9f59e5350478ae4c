"""Discrete Fourier analysis of wavenumber-domain fringes.

The transform of a uniform wavenumber grid has its frequency axis in nm:
bin m of an N-point transform sits at m / (N * delta_sigma), which for
thin-film fringes reads directly as effective optical thickness. dft
returns two arrays, the bin frequencies and the complex amplitudes; it
applies no normalization (plain summation), so sum |X|^2 over a full
transform equals N times the input energy. A peak (PeakInfo) carries what
the estimators read: its centre, the bin frequency (rifts reads it alone),
and its width at half maximum (lamp sizes its wavelet by it).

A zero-padded transform is measured without materializing it: every
step-th padded bin comes from a shorter rfft that keeps at least 4 coarse
bins per resolution cell 1/(n * delta_sigma). It brackets the peak and each
half-maximum crossing; in a bracket the answer is the bin where a test on
single exact padded bins turns from False to True (assumed to turn once),
found by galloping out from a guess off the coarse grid (refined on exact
bins for the crossings only), then bisecting. Bin b is summed directly as
phasor row r = b mod 64 against the data modulated to the base b - r.
Cached read-only: phasor rows per (points, pad), modulations per (points,
pad, base), the first bin above the cutoff per grid. The 1000 nm cutoff is
fixed, as in the run configuration. padded_peak is a stack of one.

Both estimators measure a PaddedStack (padded_stack builds it): rows on one
wavenumber grid with their coarse rffts, which are linear in the rows, so a
caller may sum stacks it has transformed once. padded_peak_rows measures the
peak bin and both crossings, which the width needs (lamp sizes its wavelet by
it). padded_centre_rows finds the peak bin alone, for a caller that reads only
the centre (rifts): it searches no crossing, so a crossing that runs off the
spectrum raises nothing there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NoFringePeakError, PeakMeasurementError

MIN_TRANSFORM_POINTS = 16

LOW_CUTOFF_NM = 1000.0

COARSE_BINS_PER_SAMPLE = 4
BASE_BINS = 64  # exact sums start from bases on this fixed grid, so no bin depends on the step


@dataclass(frozen=True)
class PeakInfo:
    """Location and width of a spectral peak."""

    center_frequency_nm: float
    fwhm_nm: float


def dft(values, delta_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward transform of real wavenumber-domain samples.

    Returns (frequencies_nm, amplitudes) of the non-negative-frequency half;
    bin m maps to m / (len(values) * delta_sigma) nm.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < MIN_TRANSFORM_POINTS:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    amplitudes = np.fft.rfft(v)
    frequencies = np.arange(amplitudes.size) * (1.0 / (v.size * delta_sigma))
    return frequencies, amplitudes


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


def _peak_bin(coarse, df, step, exact, last) -> int:
    """The bin of the largest local maximum of |X[0..last]| above the cutoff, given coarse[c] =
    |X[c*step]| and exact(b) = |X[b]|. A main lobe spans >= 8 coarse bins, so it is unimodal
    within +/-1 of the coarse argmax: the peak is the first bin no lower than its right
    neighbour there, found by _first_true from the vertex of the parabola through coarse
    bins c - 1..c + 1, which sums no exact bin."""
    edge = _cutoff_edge(df, last)
    first = -(-edge // step)
    if first >= coarse.size:
        raise NoFringePeakError(f"no transform bins above the {LOW_CUTOFF_NM:g} nm cutoff")
    c = first + int(np.argmax(coarse[first:]))
    lo, hi = max(step * (c - 1), edge), min(step * (c + 1), last)
    guess = step * c
    if 0 < c < coarse.size - 1:
        left, mid, right = coarse[c - 1 : c + 2].tolist()
        guess = step * (c - 0.5 + _fraction(mid - left, right - mid, 0.0)) + 0.5
    peak = _first_true(lambda b: exact(b) >= exact(b + 1), lo, hi, guess)
    peak = edge if exact(edge) > exact(peak) else peak
    m = exact(peak)
    m_l, m_r = (exact(peak - 1), exact(peak + 1)) if 0 < peak < last else (m, m)
    if not (0 < peak < last and m > 0.0 and m >= max(m_l, m_r) and m > min(m_l, m_r)):
        raise NoFringePeakError(
            "no fringe peak: largest magnitude above the cutoff is not a local maximum")
    return peak


def _peak_centre(coarse, df, step, exact, last) -> float:
    """_measure_peak's centre frequency alone: no half-maximum crossing is searched, so none
    that runs off the spectrum raises."""
    return float(_peak_bin(coarse, df, step, exact, last) * df)


def _measure_peak(coarse, df, step, exact, last) -> PeakInfo:
    """Peak of magnitudes |X[0..last]| at frequencies m*df, given coarse[c] = |X[c*step]|.

    exact(b) returns |X[b]| (the coarse bin when step == 1). The peak is _peak_bin's; each
    flank is monotone, so each half-maximum crossing is where a False-then-True test on
    single exact bins turns True, found by _first_true from a guess taken off the coarse grid
    and refined on exact bins."""
    peak = _peak_bin(coarse, df, step, exact, last)
    m = exact(peak)
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
        f_j, f_k = j_bin * df, k_bin * df
        return float(f_j + frac * (f_k - f_j))

    right, left = crossing(1), crossing(-1)
    center = float(peak * df)
    return PeakInfo(center_frequency_nm=center, fwhm_nm=right - left)


@lru_cache(maxsize=16)
def _cutoff_edge(df: float, last: int) -> int:
    """First of bins 0..last above the cutoff (last + 1 if none); bin frequencies ascend.
    Cached: the rows of a stack, and the spectra of one grid, share it."""
    return _first_true(lambda b: df * b > LOW_CUTOFF_NM, 0, last + 1, 0)


def _full_padded_peak(values, delta_sigma, pad_length, measure=_measure_peak):
    """measure (_measure_peak, or _peak_centre) of the materialized zero-padded transform."""
    mags = np.abs(np.fft.rfft(np.asarray(values, dtype=float), n=pad_length))
    return measure(mags, 1.0 / (pad_length * delta_sigma), 1, mags.__getitem__, mags.size - 1)


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


@dataclass(frozen=True)
class PaddedStack:
    """A (rows, points) stack of values on a wavenumber grid of spacing delta_sigma, and the
    coarse rfft that the padded-peak search reads of each row (spectra): every step-th bin of
    its pad_length-point zero-padded transform. The spectra are linear in the rows, so the sum
    of two stacks on one grid (broadcast over rows) is the stack of the summed rows, to
    rounding. An index or slice takes rows."""

    values: np.ndarray
    spectra: np.ndarray
    delta_sigma: float
    pad_length: int

    def __add__(self, other: PaddedStack) -> PaddedStack:
        if (self.delta_sigma, self.pad_length) != (other.delta_sigma, other.pad_length):
            raise ValueError("stacks on different grids")
        return replace(self, values=self.values + other.values,
                       spectra=self.spectra + other.spectra)

    def __getitem__(self, rows) -> PaddedStack:
        return replace(self, values=self.values[rows], spectra=self.spectra[rows])


def padded_stack(rows, delta_sigma: float, pad_length: int) -> PaddedStack:
    """The PaddedStack of a (rows, points) stack sampled delta_sigma apart, for pad_length."""
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] < MIN_TRANSFORM_POINTS:
        raise ValueError(f"need rows of at least {MIN_TRANSFORM_POINTS} samples")
    if pad_length < v.shape[1]:
        raise ValueError("pad_length shorter than the data")
    if delta_sigma <= 0.0:
        raise ValueError("delta_sigma must be positive")
    spectra = np.fft.rfft(v, n=pad_length // _plan(v.shape[1], pad_length)[0], axis=1)
    return PaddedStack(v, spectra, delta_sigma, pad_length)


def _padded_rows(measure, stack: PaddedStack) -> list:
    """measure (_measure_peak or _peak_centre) of each row's zero-padded transform, from the
    stack's coarse spectra and single exact bins."""
    pad_length = stack.pad_length
    step, phasors = _plan(stack.values.shape[1], pad_length)
    df = 1.0 / (pad_length * stack.delta_sigma)
    return [measure(c, df, step, _ExactBins(row, pad_length, phasors).__getitem__,
                    pad_length // 2)
            for row, c in zip(stack.values, np.abs(stack.spectra))]


def padded_peak_rows(stack: PaddedStack) -> list:
    """padded_peak of each row of a stack."""
    return _padded_rows(_measure_peak, stack)


def padded_centre_rows(stack: PaddedStack) -> list:
    """Each row's padded_peak centre frequency (nm) alone, with no half-maximum search: a row
    whose crossing runs off the spectrum still has its centre."""
    return _padded_rows(_peak_centre, stack)


def padded_peak(values, delta_sigma: float, pad_length: int) -> PeakInfo:
    """Dominant peak of the zero-padded transform, without materializing it.

    The largest-magnitude local maximum above the cutoff of the transform of
    values followed by zeros up to pad_length points. The centre is the bin
    frequency. The full width at half maximum is measured on magnitude (not
    power) by linear interpolation around each crossing.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"need a 1-d array of at least {MIN_TRANSFORM_POINTS} samples")
    return padded_peak_rows(padded_stack(v[None], delta_sigma, pad_length))[0]
