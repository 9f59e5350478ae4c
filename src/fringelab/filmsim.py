"""Thin-film reflectance simulation and measurement-noise synthesis.

Single dielectric layer on an absorbing substrate at normal incidence,
evaluated with the characteristic-matrix method. Noise synthesis covers
white Gaussian noise plus deterministic linear offset / amplitude ramps,
with a bisection routine that calibrates ramp magnitudes to a target
signal-to-noise ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import CalibrationError, GridAlignmentError

# Simulation is meant for the visible / near-IR band the instrument covers.
WAVELENGTH_FLOOR_NM = 200.0
WAVELENGTH_CEIL_NM = 2000.0


@dataclass(frozen=True)
class FilmStack:
    """Ambient / film / substrate refractive indices and film thickness."""

    ambient_index: float = 1.0
    film_index: float = 1.2
    film_thickness_nm: float = 2400.0
    substrate_index: complex = 3.67 + 0.0j

    def __post_init__(self):
        if self.ambient_index < 1.0 or self.film_index < 1.0:
            raise ValueError("refractive indices must be >= 1")
        ns = complex(self.substrate_index)
        if ns.real < 1.0 or ns.imag < 0.0:
            raise ValueError("substrate index needs real part >= 1 and imag >= 0")
        if not self.film_thickness_nm > 0.0:
            raise ValueError("film thickness must be positive")

    @property
    def effective_optical_thickness_nm(self) -> float:
        """Twice the film's optical path, the fringe frequency in nm."""
        return 2.0 * self.film_index * self.film_thickness_nm

    def with_film_index_shift(self, delta_n: float) -> "FilmStack":
        return replace(self, film_index=self.film_index + delta_n)


@dataclass(frozen=True)
class Spectrum:
    """Reflectance sampled on a strictly ascending wavelength grid."""

    wavelengths_nm: np.ndarray
    reflectance: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        rf = np.asarray(self.reflectance, dtype=float)
        if wl.ndim != 1 or rf.ndim != 1 or wl.size != rf.size:
            raise ValueError("wavelengths and reflectance must be 1-d arrays of equal length")
        if wl.size < 2:
            raise ValueError("a spectrum needs at least two samples")
        if not np.all(np.isfinite(wl)) or not np.all(np.isfinite(rf)):
            raise ValueError("spectrum contains non-finite values")
        if np.any(np.diff(wl) <= 0.0):
            raise ValueError("wavelengths must be strictly ascending")
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "reflectance", rf)

    def __len__(self) -> int:
        return self.wavelengths_nm.size


def fabry_perot_reflectance(surface_reflectivity, phase_thickness):
    """Two-beam etalon reflectance 2R(1-cos phi) / (1 - 2R cos phi + R^2).

    surface_reflectivity is the single-interface intensity reflectivity R,
    identical on both faces; phase_thickness is the round-trip phase
    4*pi*n*L/lambda. Either argument may be an array.
    """
    big_r = np.asarray(surface_reflectivity, dtype=float)
    if np.any(big_r < 0.0) or np.any(big_r >= 1.0):
        raise ValueError("surface reflectivity must lie in [0, 1)")
    phi = np.asarray(phase_thickness, dtype=float)
    cos_phi = np.cos(phi)
    out = 2.0 * big_r * (1.0 - cos_phi) / (1.0 - 2.0 * big_r * cos_phi + big_r**2)
    if out.ndim == 0:
        return float(out)
    return out


def simulate_reflectance(stack: FilmStack, wavelengths_nm) -> Spectrum:
    """Normal-incidence reflectance of the stack at the given wavelengths.

    Uses the single-layer characteristic matrix; the substrate may be
    absorbing (complex index). Wavelengths must be strictly ascending and
    lie within the supported instrument band.
    """
    wl = np.asarray(wavelengths_nm, dtype=float)
    if wl.ndim != 1 or wl.size == 0:
        raise ValueError("wavelengths must be a non-empty 1-d array")
    if wl.size < 2:
        raise ValueError("need at least two wavelengths")
    if np.any(wl < WAVELENGTH_FLOOR_NM) or np.any(wl > WAVELENGTH_CEIL_NM):
        raise ValueError(
            f"wavelengths must lie within [{WAVELENGTH_FLOOR_NM:g}, {WAVELENGTH_CEIL_NM:g}] nm"
        )

    n0 = stack.ambient_index
    n1 = stack.film_index
    ns = complex(stack.substrate_index)
    delta = 2.0 * math.pi * n1 * stack.film_thickness_nm / wl

    cos_d = np.cos(delta)
    sin_d = np.sin(delta)
    m11 = cos_d
    m12 = 1j * sin_d / n1
    m21 = 1j * n1 * sin_d
    m22 = cos_d

    top = n0 * (m11 + m12 * ns) - (m21 + m22 * ns)
    bot = n0 * (m11 + m12 * ns) + (m21 + m22 * ns)
    r = top / bot
    reflectance = np.abs(r) ** 2
    # Guard against rounding pushing a lossless result a hair past the ends.
    np.clip(reflectance, 0.0, 1.0, out=reflectance)
    return Spectrum(wl, reflectance)


def ac_power(values) -> float:
    """Mean squared deviation from the mean (the fringe 'AC' power)."""
    v = np.asarray(values, dtype=float)
    return float(np.mean((v - v.mean()) ** 2))


def measure_snr(clean: Spectrum, noisy: Spectrum) -> float:
    """Signal-to-noise in dB: AC power of clean over power of (noisy - clean).

    Identical inputs have no noise to measure; that case returns math.inf
    rather than a finite decibel figure.
    """
    if not np.array_equal(clean.wavelengths_nm, noisy.wavelengths_nm):
        raise GridAlignmentError("spectra must share a wavelength grid")
    signal_power = ac_power(clean.reflectance)
    noise_power = float(np.mean((noisy.reflectance - clean.reflectance) ** 2))
    if noise_power == 0.0:
        return math.inf
    if signal_power == 0.0:
        raise ValueError("clean spectrum has zero AC power; S/N undefined")
    return 10.0 * math.log10(signal_power / noise_power)


def check_snr_db(name: str, value) -> None:
    """ValueError unless an S/N in dB is None or a number; a bool is neither."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a number or None, got {value!r}")


@dataclass(frozen=True)
class NoiseModel:
    """White Gaussian noise plus linear offset / amplitude ramps.

    Exactly one of target_snr_db (white level derived from the clean
    spectrum's AC power) or gaussian_sigma (absolute standard deviation,
    0 disables) must be given. Ramps scale a 0 -> 1 abscissa running from
    the first to the last wavelength.
    """

    target_snr_db: float | None = None
    gaussian_sigma: float | None = None
    offset_ramp_magnitude: float = 0.0
    amplitude_ramp_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_snr_db("target_snr_db", self.target_snr_db)
        if (self.target_snr_db is None) == (self.gaussian_sigma is None):
            raise ValueError("specify exactly one of target_snr_db or gaussian_sigma")
        if self.gaussian_sigma is not None and self.gaussian_sigma < 0.0:
            raise ValueError("gaussian_sigma must be >= 0")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def white_sigma_for_target(clean: Spectrum, target_snr_db: float) -> float:
    """Gaussian sigma that puts white noise at the requested S/N."""
    power = ac_power(clean.reflectance)
    if power == 0.0:
        raise ValueError("clean spectrum has zero AC power; target S/N unreachable")
    return math.sqrt(power) * 10.0 ** (-target_snr_db / 20.0)


def _ramp_abscissa(wavelengths_nm: np.ndarray) -> np.ndarray:
    lo = wavelengths_nm[0]
    hi = wavelengths_nm[-1]
    return (wavelengths_nm - lo) / (hi - lo)


def add_noise(spectrum: Spectrum, model: NoiseModel) -> Spectrum:
    """Apply the noise model: clean*(1 + g*t) + m*t + white Gaussian.

    Deterministic for a given seed. The white draw happens regardless of
    ramp settings, so runs differing only in ramp magnitude share noise
    samples (paired comparisons stay paired).
    """
    return Spectrum(spectrum.wavelengths_nm, noise_rows(spectrum, model, [model.seed])[0])


def noise_rows(spectrum: Spectrum, model: NoiseModel, seeds) -> np.ndarray:
    """add_noise's reflectance for each of seeds in place of the model's seed, one row each."""
    values = spectrum.reflectance
    t = _ramp_abscissa(spectrum.wavelengths_nm)
    if model.gaussian_sigma is not None:
        sigma = model.gaussian_sigma
    else:
        sigma = white_sigma_for_target(spectrum, model.target_snr_db)
    noisy = values * (1.0 + model.amplitude_ramp_gain * t) + model.offset_ramp_magnitude * t
    rows = np.tile(noisy, (len(seeds), 1))
    if sigma > 0.0:
        for row, seed in zip(rows, seeds):
            row += np.random.default_rng(seed).normal(0.0, sigma, values.size)
    return rows


def _ramp_noise_power(clean: Spectrum, kind: str, magnitude: float) -> float:
    t = _ramp_abscissa(clean.wavelengths_nm)
    if kind == "offset":
        delta = magnitude * t
    elif kind == "amplitude":
        delta = magnitude * t * clean.reflectance
    else:
        raise ValueError(f"unknown ramp kind {kind!r}")
    return float(np.mean(delta**2))


def calibrate_ramp_magnitude(
    clean: Spectrum,
    kind: str,
    target_snr_db: float,
    white_sigma: float = 0.0,
) -> float:
    """Bisect the ramp magnitude, in at most 200 halvings, to within 1e-9 dB of target_snr_db.

    Total noise power is the deterministic ramp power plus white_sigma**2,
    matching what measure_snr reports in expectation when white noise of
    that sigma rides on top of the ramp.
    """
    signal_power = ac_power(clean.reflectance)
    if signal_power == 0.0:
        raise ValueError("clean spectrum has zero AC power")
    floor_snr = math.inf
    if white_sigma > 0.0:
        floor_snr = 10.0 * math.log10(signal_power / white_sigma**2)
    if floor_snr <= target_snr_db:
        raise CalibrationError(
            f"white noise alone already puts S/N at {floor_snr:.3f} dB, "
            f"below the {target_snr_db:.3f} dB target"
        )

    def snr_at(magnitude: float) -> float:
        noise_power = _ramp_noise_power(clean, kind, magnitude) + white_sigma**2
        if noise_power == 0.0:
            return math.inf
        return 10.0 * math.log10(signal_power / noise_power)

    lo, hi = 0.0, 1.0
    grow = 0
    while snr_at(hi) > target_snr_db:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise CalibrationError("ramp magnitude bracket failed to expand")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if snr_at(mid) > target_snr_db:
            lo = mid
        else:
            hi = mid
        if abs(snr_at(hi) - target_snr_db) <= 1e-9:
            return hi
    raise CalibrationError("ramp calibration did not converge")
