"""Thin-film fringe simulation and signal processing.

Simulates Fabry-Perot reflectance spectra with realistic measurement
noise, estimates optical-thickness changes by three methods (transform
peak tracking, integrated absolute difference, Morlet-filtered average
phase), quantifies each method's limit of detection by Monte-Carlo
study, and fits Redlich-Peterson adsorption isotherms.
"""

from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateAmplitudeError,
    FitError,
    FoldOverError,
    FringelabError,
    GridAlignmentError,
    NoFringePeakError,
    NoiseOverflowError,
    PeakMeasurementError,
    ReflectanceOverflowError,
    SaturationError,
    SpectrumFormatError,
    StudyError,
)
from .filmsim import (
    FilmStack,
    NativeGrid,
    NoiseModel,
    Spectrum,
    ac_power,
    add_noise,
    calibrate_ramp_magnitude,
    fabry_perot_reflectance,
    measure_snr,
    simulate_reflectance,
    white_sigma_for_target,
)
from .wavegrid import (
    WindowConfig,
    default_pad_length,
    hann_window,
    to_wavenumber,
)
from .spectral import PeakInfo, dft, padded_peak
from .legacy import iaw, rifts_eot
from .lamp import (
    MorletWavelet,
    anchor_cycle,
    design_wavelet,
    filter_spectrum,
    lamp_signal,
    lamp_to_delta_eot,
    unwrap_phase,
)
from .lodstudy import (
    LodResult,
    LodStudyConfig,
    Table1Report,
    lod_riu,
    run_table1,
    study_pass,
)
from .isotherm import (
    ConcentrationGroup,
    ConcentrationSeries,
    IawCorrection,
    RedlichPetersonFit,
    fit_redlich_peterson,
    iaw_fold_limit_percent,
    iaw_nonlinearity_correction,
    lod_concentration,
    model_eval,
    reduced_chi_squared,
)
from .io import (
    ManifestEntry,
    RunConfig,
    load_run_config,
    read_concentration_table,
    read_manifest,
    read_spectrum,
    write_manifest,
    write_polyline_svg,
    write_spectrum,
)

__version__ = "0.1.0"
