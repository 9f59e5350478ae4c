"""An independent reference for rifts_eot and iaw, written from their definitions.

It shares no code with fringelab beyond the Spectrum it reads. rifts resamples
with scipy's natural CubicSpline onto the uniform wavenumber grid of its window,
removes the mean, tapers with np.hanning, takes the full zero-padded np.fft.rfft
(the smallest power-of-two length whose bins lie at most 1.5 nm apart), and
returns the bin of the largest magnitude above the 1000 nm cutoff, which must be
a local maximum. iaw is the mean absolute de-meaned difference over the native
samples inside its window. Slow by design: one full 2**21-point transform per
spectrum at the default window.
"""

import numpy as np
from scipy.interpolate import CubicSpline

CUTOFF_NM = 1000.0
MAX_BIN_SPACING_NM = 1.5


def rifts_bin(spectrum, range_nm=(500.0, 800.0), n_points=2048) -> tuple[int, float]:
    """(peak bin, bin spacing in nm) of the padded transform of the resampled, tapered fringes."""
    sigmas = np.linspace(1.0 / range_nm[1], 1.0 / range_nm[0], n_points)
    spacing = (1.0 / range_nm[0] - 1.0 / range_nm[1]) / (n_points - 1)
    spline = CubicSpline(1.0 / spectrum.wavelengths_nm[::-1], spectrum.reflectance[::-1],
                         bc_type="natural")
    values = spline(sigmas)
    values = (values - values.mean()) * np.hanning(n_points)
    pad = 1
    while 1.0 / (pad * spacing) > MAX_BIN_SPACING_NM:
        pad *= 2
    mags = np.abs(np.fft.rfft(values, n=pad))
    first = int(np.argmax(np.arange(mags.size) / (pad * spacing) > CUTOFF_NM))
    k = first + int(np.argmax(mags[first:]))
    if not (0 < k < mags.size - 1 and mags[k - 1] <= mags[k] >= mags[k + 1]):
        raise ValueError("the largest magnitude above the cutoff is not a local maximum")
    return k, 1.0 / (pad * spacing)


def iaw(reference, analyte, range_nm=(500.0, 800.0)) -> float:
    """Mean absolute difference of analyte and reference inside the window, less its mean."""
    wavelengths = reference.wavelengths_nm
    inside = (wavelengths >= range_nm[0]) & (wavelengths <= range_nm[1])
    diff = analyte.reflectance[inside] - reference.reflectance[inside]
    return float(np.mean(np.abs(diff - diff.mean())))
