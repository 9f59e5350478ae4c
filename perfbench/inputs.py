"""Seeded workload inputs, made without the package under test.

The spectra are computed here with numpy alone, so a change to the
package's own simulator cannot change what the benchmark feeds it: the
same seed gives byte-identical inputs on every commit.

Every input set starts with one noiseless "anchor" analyte at a fixed
index shift. Its outputs do not depend on the seed, so each run can
compare them with the golden values whatever seed it was given.
"""

from __future__ import annotations

import numpy as np

# Film of the package's default stack: ambient / film / substrate indices
# and film thickness (nm).
AMBIENT_INDEX = 1.0
FILM_INDEX = 1.2
FILM_THICKNESS_NM = 2400.0
SUBSTRATE_INDEX = 3.67

TARGET_SNR_DB = 27.7
ANCHOR_DELTA_N = 1e-3

STREAM_RANGE_NM = (450.0, 900.0)
STREAM_POINTS = 3648
STREAM_SPECTRA = 1000
# Share of stream spectra that carry an offset or an amplitude ramp.
RAMP_SHARE = 0.2

PROCESS_RANGE_NM = (500.0, 800.0)
PROCESS_POINTS = 768
PROCESS_ANALYTES = 50


def reflectance(wavelengths_nm: np.ndarray, delta_n: float = 0.0) -> np.ndarray:
    """Normal-incidence reflectance of the film stack (characteristic matrix)."""
    n1 = FILM_INDEX + delta_n
    delta = 2.0 * np.pi * n1 * FILM_THICKNESS_NM / wavelengths_nm
    cos_d, sin_d = np.cos(delta), np.sin(delta)
    ns = complex(SUBSTRATE_INDEX)
    lead = AMBIENT_INDEX * (cos_d + 1j * sin_d / n1 * ns)
    tail = 1j * n1 * sin_d + cos_d * ns
    return np.abs((lead - tail) / (lead + tail)) ** 2


def binding_curve(rng: np.random.Generator, count: int) -> np.ndarray:
    """Index shifts of an association then dissociation binding curve."""
    t = np.linspace(0.0, 1.0, count)
    peak = rng.uniform(1e-3, 3e-3)
    tau_on, tau_off = rng.uniform(0.05, 0.15, size=2)
    t_off = rng.uniform(0.5, 0.7)
    rise = peak * (1.0 - np.exp(-t / tau_on))
    plateau = peak * (1.0 - np.exp(-t_off / tau_on))
    fall = plateau * np.exp(-(t - t_off) / tau_off)
    return np.where(t < t_off, rise, fall)


def _analytes(seed: int, wavelengths: np.ndarray, reference: np.ndarray, count: int,
              ramp_share: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchor plus count - 1 noisy analytes along a seeded binding curve.

    White noise sits at TARGET_SNR_DB of the reference's AC power. A
    ramp, where drawn, puts its own noise power 15 dB below that signal.
    """
    rng = np.random.default_rng(seed)
    delta_n = np.concatenate(([ANCHOR_DELTA_N], binding_curve(rng, count - 1)))
    power = float(np.mean((reference - reference.mean()) ** 2))
    sigma = np.sqrt(power) * 10.0 ** (-TARGET_SNR_DB / 20.0)
    t = (wavelengths - wavelengths[0]) / (wavelengths[-1] - wavelengths[0])
    offset = np.sqrt(power * 10.0 ** -1.5 / np.mean(t**2))
    gain = np.sqrt(power * 10.0 ** -1.5 / np.mean((t * reference) ** 2))
    out = np.empty((count, wavelengths.size))
    out[0] = reflectance(wavelengths, ANCHOR_DELTA_N)
    for i in range(1, count):
        clean = reflectance(wavelengths, delta_n[i])
        kind = rng.random()
        if kind < ramp_share / 2:
            clean = clean + offset * t
        elif kind < ramp_share:
            clean = clean * (1.0 + gain * t)
        out[i] = clean + rng.normal(0.0, sigma, wavelengths.size)
    return delta_n, out


def stream_inputs(seed: int, count: int = STREAM_SPECTRA):
    """(wavelengths, reference, analytes, delta_n) on the wide native grid."""
    wavelengths = np.linspace(*STREAM_RANGE_NM, STREAM_POINTS)
    reference = reflectance(wavelengths)
    delta_n, analytes = _analytes(seed, wavelengths, reference, count, RAMP_SHARE)
    return wavelengths, reference, analytes, delta_n


def process_inputs(seed: int, count: int = PROCESS_ANALYTES):
    """(wavelengths, reference, analytes, delta_n) as the operator records them."""
    wavelengths = np.linspace(*PROCESS_RANGE_NM, PROCESS_POINTS)
    reference = reflectance(wavelengths)
    delta_n, analytes = _analytes(seed, wavelengths, reference, count, 0.0)
    return wavelengths, reference, analytes, delta_n


def spectrum_text(wavelengths: np.ndarray, values: np.ndarray) -> str:
    """The package's two-column spectrum file format, 17 significant digits."""
    rows = "".join(f"{w:.17g},{r:.17g}\n" for w, r in zip(wavelengths, values))
    return "wavelength_nm,reflectance\n" + rows
