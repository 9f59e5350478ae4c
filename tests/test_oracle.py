"""rifts_eot and iaw against tests/oracle.py, a reference written from their definitions.

The spectra are the study's: its native grid (768 points, 500-800 nm), white noise at
27.7 dB, each drift ramp calibrated to the study's floor, delta_n 0, 5e-4 and 1e-3, and
three seeds. rifts must land on the oracle's padded bin. The bin is compared, not the
frequency, because the oracle's k / (pad * spacing) and the package's k * (1 / (pad *
spacing)) differ by one ulp for some k. iaw must equal the oracle's with ==.
"""

import numpy as np
import pytest

import oracle
from fringelab import (
    FilmStack,
    NoiseModel,
    add_noise,
    calibrate_ramp_magnitude,
    iaw,
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
