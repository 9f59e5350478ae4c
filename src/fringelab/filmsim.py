"""Thin-film reflectance simulation and measurement-noise synthesis.

Single dielectric layer on an absorbing substrate at normal incidence,
evaluated with the characteristic-matrix method on an instrument's native
sampling, its NativeGrid. Noise synthesis covers white Gaussian noise plus
deterministic linear offset / amplitude ramps, with a bisection routine that
calibrates ramp magnitudes to a target signal-to-noise ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import (CalibrationError, GridAlignmentError, NoiseOverflowError,
                     ReflectanceOverflowError)

# Simulation is meant for the visible / near-IR band the instrument covers.
WAVELENGTH_FLOOR_NM = 200.0
WAVELENGTH_CEIL_NM = 2000.0


@dataclass(frozen=True)
class FilmStack:
    """Ambient / film / substrate refractive indices and film thickness, each finite."""

    ambient_index: float = 1.0
    film_index: float = 1.2
    film_thickness_nm: float = 2400.0
    substrate_index: complex = 3.67 + 0.0j

    def __post_init__(self):
        for name in ("ambient_index", "film_index", "film_thickness_nm"):
            check_float(name, getattr(self, name))
        if self.ambient_index < 1.0 or self.film_index < 1.0:
            raise ValueError("refractive indices must be >= 1")
        try:  # JSON gives a string
            ns = complex(self.substrate_index)
        except OverflowError:
            raise ValueError("substrate_index is too large for a float") from None
        except (TypeError, ValueError):
            ns = None
        if ns is None or isinstance(self.substrate_index, bool):  # complex(True) is 1
            raise ValueError(f"substrate_index must be a complex number or its string, "
                             f"got {self.substrate_index!r}")
        if not (math.isfinite(ns.real) and math.isfinite(ns.imag)):
            raise ValueError(f"substrate_index must be finite, got {self.substrate_index!r}")
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
    # near the float limit the phase thickness or the Fresnel products overflow: one error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    if not np.all(np.isfinite(reflectance)):
        raise ReflectanceOverflowError("the film stack's reflectance overflows the float range")
    # Guard against rounding pushing a lossless result a hair past the ends.
    np.clip(reflectance, 0.0, 1.0, out=reflectance)
    return Spectrum(wl, reflectance)


def ac_power(values) -> float:
    """Mean squared deviation from the mean (the fringe 'AC' power)."""
    v = np.asarray(values, dtype=float)
    return float(np.mean((v - v.mean()) ** 2))


def _fringe_power(clean: Spectrum) -> float:
    """ac_power of a clean spectrum; CalibrationError if it has no fringes, that is if the
    power is at most the rounding floor (n * eps * mean R)^2 of n samples of mean R."""
    power = ac_power(clean.reflectance)
    floor = (len(clean) * np.finfo(float).eps * float(clean.reflectance.mean())) ** 2
    if power <= floor:
        raise CalibrationError(f"clean spectrum has no fringes: its AC power {power:.3g} "
                               f"is at most the rounding floor {floor:.3g}")
    return power


def measure_snr(clean: Spectrum, noisy: Spectrum) -> float:
    """Signal-to-noise in dB: AC power of clean over power of (noisy - clean).

    Identical inputs have no noise to measure; that case returns math.inf
    rather than a finite decibel figure.
    """
    if not np.array_equal(clean.wavelengths_nm, noisy.wavelengths_nm):
        raise GridAlignmentError("spectra must share a wavelength grid")
    diff = noisy.reflectance - clean.reflectance
    scale = float(np.max(np.abs(diff)))
    if scale == 0.0:
        return math.inf
    # decibels term by term, from the difference scaled to at most 1: its square neither
    # overflows nor underflows to 0 at any noise level, where the noise power itself can
    return 10.0 * (math.log10(_fringe_power(clean)) - 2.0 * math.log10(scale)
                   - math.log10(float(np.mean((diff / scale) ** 2))))


def check_float(name: str, value, optional: bool = False, finite: bool = True) -> None:
    """ValueError naming the field unless value is a number (not a bool) that converts to a
    float, or None if optional. NaN never passes; an infinity passes only if not finite."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number{' or None' if optional else ''}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if math.isnan(number) or (finite and math.isinf(number)):
        raise ValueError(f"{name} must be finite, got {value!r}" if finite
                         else f"{name} must not be NaN")


def check_range_nm(value, name: str = "range_nm") -> tuple[float, float]:
    """value as (low, high) nm; ValueError naming name unless two real numbers (not bools,
    not text) with WAVELENGTH_FLOOR_NM <= low < high <= WAVELENGTH_CEIL_NM."""
    try:
        low, high = (float(x) if isinstance(x, Real) and not isinstance(x, bool) else math.nan
                     for x in value)
    except (TypeError, ValueError, OverflowError):
        low = high = math.nan
    if not WAVELENGTH_FLOOR_NM <= low < high <= WAVELENGTH_CEIL_NM:
        raise ValueError(f"{name} must be two numbers {WAVELENGTH_FLOOR_NM:g} <= low < high <= "
                         f"{WAVELENGTH_CEIL_NM:g} nm, got {value!r}")
    return low, high


def check_seed(value, name: str = "seed") -> int:
    """value, a seed; ValueError naming name unless an int (not a bool) in [0, 2**64)."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an integer 0 <= seed < 2**64, got {value!r}")
    return value


@dataclass(frozen=True)
class NativeGrid:
    """An instrument's native sampling, the one grid that the simulate command, the study and
    the iaw correction simulate on: points (an integer >= 16) wavelengths evenly spaced over
    range_nm, both ends included."""

    range_nm: tuple[float, float] = (500.0, 800.0)
    points: int = 768

    def __post_init__(self):
        object.__setattr__(self, "range_nm", check_range_nm(self.range_nm, "range_nm"))
        if not isinstance(self.points, (int, np.integer)) or self.points < 16:  # True is 1
            raise ValueError("points must be an integer >= 16")

    def wavelengths(self) -> np.ndarray:
        return np.linspace(*self.range_nm, self.points)


@dataclass(frozen=True)
class NoiseModel:
    """White Gaussian noise plus linear offset / amplitude ramps.

    Exactly one of target_snr_db (white level derived from the clean
    spectrum's AC power) or gaussian_sigma (absolute standard deviation,
    0 disables) must be given, and it must not be NaN; an infinite target draws
    no noise, and an infinite sigma is a NoiseOverflowError where it is drawn.
    Ramps must be finite; they scale a 0 -> 1 abscissa running from the first
    to the last wavelength.
    """

    target_snr_db: float | None = None
    gaussian_sigma: float | None = None
    offset_ramp_magnitude: float = 0.0
    amplitude_ramp_gain: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("target_snr_db", "gaussian_sigma"):
            check_float(name, getattr(self, name), optional=True, finite=False)
        for name in ("offset_ramp_magnitude", "amplitude_ramp_gain"):
            check_float(name, getattr(self, name))
        if (self.target_snr_db is None) == (self.gaussian_sigma is None):
            raise ValueError("specify exactly one of target_snr_db or gaussian_sigma")
        if self.gaussian_sigma is not None and self.gaussian_sigma < 0.0:
            raise ValueError("gaussian_sigma must be >= 0")
        check_seed(self.seed)

    def white_sigma(self, clean: Spectrum) -> float:
        """The white level: gaussian_sigma, or the sigma that puts clean at target_snr_db."""
        if self.gaussian_sigma is not None:
            return self.gaussian_sigma
        return white_sigma_for_target(clean, self.target_snr_db)


def white_sigma_for_target(clean: Spectrum, target_snr_db: float) -> float:
    """Gaussian sigma that puts white noise at the requested S/N."""
    return math.sqrt(_fringe_power(clean)) * 10.0 ** (-target_snr_db / 20.0)


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
    ramped = ramped_reflectance(spectrum, model)
    white = white_rows(model.white_sigma(spectrum), len(spectrum), [model.seed])[0]
    return Spectrum(spectrum.wavelengths_nm, ramped + white)


def ramped_reflectance(spectrum: Spectrum, model: NoiseModel) -> np.ndarray:
    """add_noise's reflectance before the white draw: clean*(1 + g*t) + m*t."""
    t = _ramp_abscissa(spectrum.wavelengths_nm)
    return (spectrum.reflectance * (1.0 + model.amplitude_ramp_gain * t)
            + model.offset_ramp_magnitude * t)


def white_rows(sigma: float, points: int, seeds) -> np.ndarray:
    """add_noise's white draw of points samples for each of seeds, one row each. Unless
    sigma > 0 nothing is drawn and the rows hold -0.0, which leaves every float it is added
    to as it is (+0.0 would turn -0.0 into +0.0). A row whose magnitudes do not sum to a
    finite float (sigma of about 1.8e308 / (0.8 points) or more) is a NoiseOverflowError:
    every estimator sums rows, and a spectrum holds finite values only."""
    rows = np.full((len(seeds), points), -0.0)
    if sigma > 0.0:
        for row, seed in zip(rows, seeds):
            row[:] = np.random.default_rng(seed).normal(0.0, sigma, points)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(rows).sum(axis=1)).all():
                raise NoiseOverflowError(f"white noise of sigma {sigma:g} overflows the float "
                                         f"range: a row of {points} draws has no finite sum")
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
    signal_power = _fringe_power(clean)
    floor_snr = math.inf
    if white_sigma > 0.0:
        # term by term in decibels: white_sigma**2 overflows or underflows at extreme sigmas
        floor_snr = 10.0 * math.log10(signal_power) - 20.0 * math.log10(white_sigma)
    if floor_snr <= target_snr_db:
        raise CalibrationError(
            f"white noise alone already puts S/N at {floor_snr:.3f} dB, "
            f"below the {target_snr_db:.3f} dB target"
        )

    def snr_at(magnitude: float) -> float:
        noise_power = _ramp_noise_power(clean, kind, magnitude) + white_sigma * white_sigma
        if noise_power == 0.0:
            return math.inf
        ratio = signal_power / noise_power  # 0 once the white power overflows
        return 10.0 * math.log10(ratio) if ratio > 0.0 else -math.inf

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
