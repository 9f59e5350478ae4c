"""rifts_eot, iaw and lamp_signal against tests/oracle.py, a reference written from their
definitions.

The study's spectra: its native grid (768 points, 500-800 nm), white noise at 27.7 dB,
each drift ramp calibrated to the study's floor, delta_n 0, 5e-4 and 1e-3, and three
seeds. rifts must land on the oracle's padded bin. The bin is compared, not the
frequency, because the oracle's k / (pad * spacing) and the package's k * (1 / (pad *
spacing)) differ by one ulp for some k. iaw must equal the oracle's with ==. lamp must
match the oracle within LAMP_REL_TOL, on the study's spectra at delta_n 0 and 1e-3 and on
wide 3648-px spectra over 450-900 nm, with and without a drift ramp.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import oracle
from fringelab import (
    FilmStack,
    NoiseModel,
    add_noise,
    calibrate_ramp_magnitude,
    iaw,
    lamp_signal,
    rifts_eot,
    simulate_reflectance,
    white_sigma_for_target,
)
from fringelab.lodstudy import AMPLITUDE_GRADIENT_SNR_DB, GRADIENTS, OFFSET_GRADIENT_SNR_DB

WAVELENGTHS = np.linspace(500.0, 800.0, 768)
REFERENCE = simulate_reflectance(FilmStack(), WAVELENGTHS)
WHITE_SIGMA = white_sigma_for_target(REFERENCE, 27.7)
RAMP_TERMS = {"offset": ("offset_ramp_magnitude", OFFSET_GRADIENT_SNR_DB),
              "amplitude": ("amplitude_ramp_gain", AMPLITUDE_GRADIENT_SNR_DB)}


def analyte(gradient, delta_n, seed):
    ramp = {}
    if gradient in RAMP_TERMS:
        term, floor_db = RAMP_TERMS[gradient]
        ramp[term] = calibrate_ramp_magnitude(REFERENCE, gradient, floor_db,
                                              white_sigma=WHITE_SIGMA)
    clean = simulate_reflectance(FilmStack().with_film_index_shift(delta_n), WAVELENGTHS)
    return add_noise(clean, NoiseModel(gaussian_sigma=WHITE_SIGMA, seed=seed, **ramp))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("delta_n", [0.0, 5e-4, 1e-3])
@pytest.mark.parametrize("gradient", GRADIENTS)
def test_rifts_and_iaw_equal_the_oracle(gradient, delta_n, seed):
    spectrum = analyte(gradient, delta_n, seed)
    peak, bin_nm = oracle.rifts_bin(spectrum)
    assert round(rifts_eot(spectrum) / bin_nm) == peak
    assert iaw(REFERENCE, spectrum) == oracle.iaw(REFERENCE, spectrum)


STREAM_WAVELENGTHS = np.linspace(450.0, 900.0, 3648)  # a wide 3648-px spectrometer
STREAM_REFERENCE = simulate_reflectance(FilmStack(), STREAM_WAVELENGTHS)
STREAM_SIGMA = white_sigma_for_target(STREAM_REFERENCE, 27.7)
# lamp within this relative tolerance; the worst case measured on these spectra is 9.0e-13
LAMP_REL_TOL = 1e-9


@lru_cache(maxsize=None)
def reference_phase(stream):
    return oracle.lamp_phase(STREAM_REFERENCE if stream else REFERENCE)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("delta_n", [0.0, 1e-3])
@pytest.mark.parametrize("gradient", GRADIENTS)
def test_lamp_matches_the_oracle_on_study_spectra(gradient, delta_n, seed):
    spectrum = analyte(gradient, delta_n, seed)
    expected = oracle.lamp_signal(reference_phase(False), spectrum)
    assert math.isclose(lamp_signal(REFERENCE, spectrum), expected, rel_tol=LAMP_REL_TOL)


@pytest.mark.parametrize("delta_n, ramp", [
    (0.0, {}), (1e-3, {}), (2e-3, {}),
    (1e-3, {"offset_ramp_magnitude": 0.01}), (2e-3, {"amplitude_ramp_gain": 0.05}),
])
def test_lamp_matches_the_oracle_on_wide_spectra(delta_n, ramp):
    clean = simulate_reflectance(FilmStack().with_film_index_shift(delta_n), STREAM_WAVELENGTHS)
    spectrum = add_noise(clean, NoiseModel(gaussian_sigma=STREAM_SIGMA, seed=11, **ramp))
    expected = oracle.lamp_signal(reference_phase(True), spectrum)
    assert math.isclose(lamp_signal(STREAM_REFERENCE, spectrum), expected, rel_tol=LAMP_REL_TOL)
