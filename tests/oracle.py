"""An independent reference for rifts_eot, iaw and lamp_signal, written from their definitions.

It shares no code with fringelab beyond the Spectrum it reads. Each window's grid is
2048 wavenumbers spanning it, and its transform is the full zero-padded np.fft.rfft (the
smallest power-of-two length whose bins lie at most 1.5 nm apart), whose peak is the bin
of the largest magnitude above the 1000 nm cutoff, which must be a local maximum.

rifts resamples with scipy's natural CubicSpline, removes the mean, tapers with
np.hanning, and returns the peak bin. iaw is the mean absolute de-meaned difference over
the native samples inside its window. lamp resamples with np.interp, subtracts an
np.polyfit of degree 2 on u in [-1, 1], and measures the peak's full width at half
maximum by linear interpolation on magnitude. Its Morlet wavelet has the peak's frequency
and an envelope whose frequency-domain FWHM is the peak's, sampled over +/-4 envelope
sigmas with unit energy. The fringes are filtered with np.convolve, sliced to the centred
n samples and scaled by the spacing; the phase is np.unwrap of np.angle, shifted by the
whole cycles that bring its first sample closest to 2*pi*centre*sigma_min. lamp_signal is
the mean difference of the analyte's and the reference's phases. Slow by design: one full
2**21-point transform per spectrum at the default window.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

CUTOFF_NM = 1000.0
MAX_BIN_SPACING_NM = 1.5
GRID_POINTS = 2048
ENVELOPE_SIGMAS = 4.0


def _grid(range_nm, n_points):
    """(wavenumbers, spacing) of the uniform grid of n_points spanning the window."""
    sigmas = np.linspace(1.0 / range_nm[1], 1.0 / range_nm[0], n_points)
    return sigmas, (1.0 / range_nm[0] - 1.0 / range_nm[1]) / (n_points - 1)


def _padded_peak(values, spacing) -> tuple[np.ndarray, int, float]:
    """(magnitudes, peak bin, bin spacing in nm) of the zero-padded transform of values."""
    pad = 1
    while 1.0 / (pad * spacing) > MAX_BIN_SPACING_NM:
        pad *= 2
    mags = np.abs(np.fft.rfft(values, n=pad))
    first = int(np.argmax(np.arange(mags.size) / (pad * spacing) > CUTOFF_NM))
    k = first + int(np.argmax(mags[first:]))
    if not (0 < k < mags.size - 1 and mags[k - 1] <= mags[k] >= mags[k + 1]):
        raise ValueError("the largest magnitude above the cutoff is not a local maximum")
    return mags, k, 1.0 / (pad * spacing)


def rifts_bin(spectrum, range_nm=(500.0, 800.0), n_points=GRID_POINTS) -> tuple[int, float]:
    """(peak bin, bin spacing in nm) of the padded transform of the resampled, tapered fringes."""
    sigmas, spacing = _grid(range_nm, n_points)
    spline = CubicSpline(1.0 / spectrum.wavelengths_nm[::-1], spectrum.reflectance[::-1],
                         bc_type="natural")
    values = spline(sigmas)
    values = (values - values.mean()) * np.hanning(n_points)
    _, k, bin_nm = _padded_peak(values, spacing)
    return k, bin_nm


def lamp_phase(spectrum, range_nm=(500.0, 800.0)) -> np.ndarray:
    """The anchored phase of one spectrum's Morlet-filtered fringes on the window's grid."""
    sigmas, spacing = _grid(range_nm, GRID_POINTS)
    values = np.interp(sigmas, 1.0 / spectrum.wavelengths_nm[::-1], spectrum.reflectance[::-1])
    u = np.linspace(-1.0, 1.0, GRID_POINTS)
    values = values - np.polyval(np.polyfit(u, values, 2), u)
    mags, k, bin_nm = _padded_peak(values, spacing)
    half = mags[k] / 2.0

    def crossing(step):  # nm where the magnitude falls to half, walking from the peak by step
        j = k
        while mags[j + step] > half:
            j += step
            if not 0 < j < mags.size - 1:
                raise ValueError("the half-maximum crossing runs off the spectrum")
        return (j + step * (half - mags[j]) / (mags[j + step] - mags[j])) * bin_nm

    centre, fwhm = k * bin_nm, crossing(1) - crossing(-1)
    envelope = 2.0 * math.sqrt(2.0 * math.log(2.0)) / (2.0 * math.pi * fwhm)
    reach = math.floor(ENVELOPE_SIGMAS * envelope / spacing)
    offsets = np.arange(-reach, reach + 1) * spacing
    taps = np.exp(2j * math.pi * centre * offsets) * np.exp(-offsets**2 / (2.0 * envelope**2))
    taps /= math.sqrt(np.sum(np.abs(taps) ** 2) * spacing)
    start = (taps.size - 1) // 2
    filtered = np.convolve(values, taps)[start:start + GRID_POINTS] * spacing
    phase = np.unwrap(np.angle(filtered))
    return phase + 2.0 * math.pi * round((2.0 * math.pi * centre * sigmas[0] - phase[0])
                                         / (2.0 * math.pi))


def lamp_signal(reference_phase, analyte, range_nm=(500.0, 800.0)) -> float:
    """Mean of the analyte's anchored phase less the reference's (lamp_phase of it), in rad."""
    return float(np.mean(lamp_phase(analyte, range_nm) - reference_phase))


def iaw(reference, analyte, range_nm=(500.0, 800.0)) -> float:
    """Mean absolute difference of analyte and reference inside the window, less its mean."""
    wavelengths = reference.wavelengths_nm
    inside = (wavelengths >= range_nm[0]) & (wavelengths <= range_nm[1])
    diff = analyte.reflectance[inside] - reference.reflectance[inside]
    return float(np.mean(np.abs(diff - diff.mean())))
