"""Exception types shared across the package.

Plain precondition violations (bad argument values, shape mismatches) raise
ValueError as usual; the classes here mark conditions callers are expected
to catch and handle distinctly.
"""

from __future__ import annotations


class FringelabError(Exception):
    """Base class for package-specific errors."""


class SpectrumFormatError(FringelabError):
    """A spectrum, manifest, or series file failed to parse."""


class ConfigError(FringelabError):
    """A run-configuration document failed validation."""


class GridAlignmentError(FringelabError):
    """Two spectra that must share a wavelength grid do not."""


class WavelengthRangeError(FringelabError, ValueError):
    """A processing window exceeds the samples, holds too few, or is too narrow to transform."""


class NoFringePeakError(FringelabError):
    """No local maximum above the low-frequency cutoff."""


class PeakMeasurementError(FringelabError):
    """A peak was found but its width could not be measured."""


class DegenerateAmplitudeError(FringelabError):
    """Filtered amplitude too small for a meaningful phase."""


class CalibrationError(FringelabError):
    """A calibration target could not be met, or a slope is unusable."""


class NoiseOverflowError(FringelabError):
    """White noise too large for a row of its draws to sum to a finite float."""


class ReflectanceOverflowError(FringelabError):
    """A film stack whose simulated reflectance overflows the float range."""


class StudyError(FringelabError):
    """A Monte-Carlo study aborted (too many per-trial failures)."""


class FitError(FringelabError):
    """Isotherm fitting failed to converge from every start."""


class SaturationError(FringelabError):
    """Requested threshold lies above the isotherm's supremum."""


class FoldOverError(FringelabError):
    """Requested optical-thickness change exceeds the half-period limit."""
