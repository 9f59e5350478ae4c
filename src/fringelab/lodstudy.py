"""Monte-Carlo limit-of-detection studies for the fringe estimators.

A study generates many noisy analyte spectra against one noiseless
reference, runs a chosen estimator on each, and reduces the per-trial
signals to distribution statistics. Detection limits follow the
blank-versus-shifted construction: LOD = 3.3 (sigma_blank + delta_g) / slope,
where delta_g charges any systematic drift penalty and the slope converts
signal units to refractive index units from a small calibration shift.

study_pass(cfg, keys, methods) is the one public pass. For every (delta_n, gradient) key and
every method it returns the signal of each trial, in trial order with NaN at a failed trial,
and the failures as (trial, type name, message). A key whose drift ramp failed to calibrate
holds that CalibrationError for every method. lod_riu (one method and drift) and run_table1
(every method and drift) are its two reductions. Each runs one pass over the keys its detection
limits read, and takes a key's signals without its failed trials, in trial order, to a mean and
std. A key with more than MAX_FAILURE_FRACTION of its trials failed is a StudyError, and a NaN at
a trial that did not fail is a bug: it raises ValueError.

A pass refuses an unknown method or gradient before it draws anything. Before it splits, a pass
takes each method's _front of its keys' ramped clean rows once. _trial_signals runs a range of
trials in chunks of CHUNK_ROWS (8) from the range's own start: a chunk's white rows are drawn,
and each method's front of them taken, once for every key. A key's stack is its clean front plus
the chunk's, the sum add_noise makes (to rounding, for rifts). A stack that raises a
FringelabError for a method is rerun row by row for that method (a row's result is the same
alone or stacked): only its failing trials fail. A window too narrow for rifts fails the clean
front, and with it every trial, each with the message it raises alone: the pass records those
failures and runs no trial of that method. Any other exception propagates. A pass whose every
ramp, or every method's clean front, failed draws nothing and does not split.

A pass's trials run through _split.split, which may run trials n_trials // 2 to n_trials - 1
in a forked child while the caller runs the rest. Each key's signals and failures are joined in
trial order, so every trial's result, failure and warning is the serial loop's, and a bug in
the child's trials is raised in the caller with its own type.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._split import split
from .errors import CalibrationError, FringelabError, StudyError
from .filmsim import (
    FilmStack,
    NativeGrid,
    NoiseModel,
    Spectrum,
    calibrate_ramp_magnitude,
    check_float,
    ramped_reflectance,
    simulate_reflectance,
    white_rows,
)
from .lamp import lamp_rows
from .legacy import iaw_rows, rifts_front
from .spectral import padded_centre_rows
from .wavegrid import WindowConfig

METHODS = ("rifts", "iaw", "lamp")
GRADIENTS = ("none", "offset", "amplitude")

# Pinned signal-to-noise floors once each drift ramp is included.
OFFSET_GRADIENT_SNR_DB = 7.9
AMPLITUDE_GRADIENT_SNR_DB = 7.7

MAX_FAILURE_FRACTION = 0.01
LINEARITY_TOLERANCE = 0.10
MIN_REPORTED_TRIALS = 100

# Trials per stack, set by memory: 16, 32 and 100 rows add ~4, 12 and 48 MB of peak RSS.
CHUNK_ROWS = 8


@dataclass(frozen=True)
class LodResult:
    sigma_blank: float
    delta_g: float
    slope: float
    lod_riu: float
    linearity_ratio: float

    def __post_init__(self):
        if min(self.sigma_blank, self.delta_g, self.slope, self.lod_riu) < 0:
            raise ValueError("detection-limit components must be non-negative")


@dataclass(frozen=True)
class LodStudyConfig:
    """Inputs for one Monte-Carlo detection-limit study.

    The noise model supplies the white level (explicit sigma or an S/N target resolved once
    against the clean reference) and the master seed; drift ramps are owned by the study and
    calibrated to the configured gradient S/N floors, so the model itself must not carry
    ramp terms. A floor is finite, or None to disable that ramp (magnitude 0). Trial i
    draws from a stream derived from (seed, i), making trials order-independent. The spectra
    are simulated on native; window is all three estimators' one window. The config names no
    method: each study call takes the method it computes, and run_table1 computes all three.
    """

    stack: FilmStack = field(default_factory=FilmStack)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(target_snr_db=27.7, seed=0))
    native: NativeGrid = field(default_factory=NativeGrid)
    n_trials: int = 1000
    calibration_delta_n: float = 1e-3
    offset_snr_db: float | None = OFFSET_GRADIENT_SNR_DB
    amplitude_snr_db: float | None = AMPLITUDE_GRADIENT_SNR_DB
    window: WindowConfig = field(default_factory=WindowConfig)

    def __post_init__(self):
        if not isinstance(self.n_trials, (int, np.integer)) or self.n_trials < 2:
            raise ValueError("n_trials must be an integer >= 2")
        check_float("calibration_delta_n", self.calibration_delta_n)
        if not self.calibration_delta_n > 0:
            raise ValueError("calibration_delta_n must be positive")
        for name in ("offset_snr_db", "amplitude_snr_db"):
            check_float(name, getattr(self, name), optional=True)
        if self.noise.offset_ramp_magnitude != 0.0 or self.noise.amplitude_ramp_gain != 0.0:
            raise ValueError(
                "drift ramps are applied by the study itself; "
                "configure gradient S/N floors instead of ramp magnitudes"
            )


def _trial_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def _front(cfg: LodStudyConfig, method: str, wavelengths, rows):
    """method's linear front end of a stack of rows: rifts' PaddedStack, lamp's and iaw's rows."""
    return rifts_front(wavelengths, rows, cfg.window) if method == "rifts" else rows


def _evaluate(cfg: LodStudyConfig, method: str, reference: Spectrum, stack) -> list:
    """method's signal for each row of a noisy stack, given as method's _front."""
    if method == "rifts":
        return padded_centre_rows(stack)
    if method == "iaw":
        return iaw_rows(reference, stack, cfg.window)
    return lamp_rows(reference, reference.wavelengths_nm, stack, cfg.window)


def _trial_signals(cfg: LodStudyConfig, reference: Spectrum, white_sigma: float, clean: dict,
                   n_keys: int, trials: range) -> list:
    """Per key, {method: (signals, failures)} over trials, given each method's _front of the
    n_keys ramped clean rows: signals holds a float64 per trial, NaN where it failed, and
    failures (trial, type name, message) in trial order. Each chunk's white rows are drawn
    once."""
    results = [{method: (np.full(len(trials), np.nan), []) for method in clean}
               for _ in range(n_keys)]
    for start in range(trials.start, trials.stop, CHUNK_ROWS):
        chunk = range(start, min(start + CHUNK_ROWS, trials.stop))
        white = white_rows(white_sigma, len(reference),
                           [_trial_seed(cfg.noise.seed, i) for i in chunk])
        whites = {method: _front(cfg, method, reference.wavelengths_nm, white) for method in clean}
        for k, result in enumerate(results):
            for method, (signals, failures) in result.items():
                out = signals[start - trials.start : chunk.stop - trials.start]  # a view
                stack = clean[method][k : k + 1] + whites[method]
                try:
                    out[:] = _evaluate(cfg, method, reference, stack)
                except FringelabError:  # rerun row by row: only the failing trials fail
                    for j, i in enumerate(chunk):
                        try:
                            out[j] = _evaluate(cfg, method, reference, stack[j : j + 1])[0]
                        except FringelabError as exc:
                            failures.append(_failure(i, exc))
        del whites  # after the chunk's last key
    return results


def _failure(trial: int, exc: FringelabError) -> tuple:
    return trial, type(exc).__name__, str(exc)


def _noise_model(cfg: LodStudyConfig, reference: Spectrum, white_sigma: float,
                 gradient: str) -> NoiseModel:
    """The white level plus gradient's drift ramp, calibrated to its S/N floor."""
    target = {"offset": cfg.offset_snr_db, "amplitude": cfg.amplitude_snr_db}.get(gradient)
    magnitude = 0.0 if target is None else calibrate_ramp_magnitude(
        reference, gradient, target, white_sigma=white_sigma)
    return NoiseModel(gaussian_sigma=white_sigma, seed=cfg.noise.seed,
                      offset_ramp_magnitude=magnitude if gradient == "offset" else 0.0,
                      amplitude_ramp_gain=magnitude if gradient == "amplitude" else 0.0)


def study_pass(cfg: LodStudyConfig, keys, methods: tuple) -> dict:
    """{(delta_n, gradient): {method: (signals, failures) or the CalibrationError of the key's
    ramp}} for every key, in one pass over every method. signals holds method's float64 signal
    for each of cfg.n_trials trials, NaN where the trial failed; failures lists each failed
    trial as (trial, type name, message), in trial order. An unknown method or gradient is
    refused before anything is drawn."""
    if any(method not in METHODS for method in methods):
        raise ValueError(f"method must be one of {METHODS}")
    if any(gradient not in GRADIENTS for _, gradient in keys):
        raise ValueError(f"gradient must be one of {GRADIENTS}")
    wavelengths = cfg.native.wavelengths()
    reference = simulate_reflectance(cfg.stack, wavelengths)
    white_sigma = cfg.noise.white_sigma(reference)
    passed, todo = {}, []
    for delta_n, gradient in keys:
        try:
            todo.append((delta_n, gradient, _noise_model(cfg, reference, white_sigma, gradient)))
        except CalibrationError as exc:  # the ramp's failure is every method's
            passed[delta_n, gradient] = dict.fromkeys(methods, exc)
    if not todo:  # every ramp failed: nothing to draw
        return passed
    spectra = {delta_n: simulate_reflectance(cfg.stack.with_film_index_shift(delta_n), wavelengths)
               for delta_n in dict.fromkeys(delta_n for delta_n, _, _ in todo)}
    ramped = np.array([ramped_reflectance(spectra[delta_n], model) for delta_n, _, model in todo])
    # before the split, so that a forked child inherits the fronts
    clean, failed = {}, {}
    for method in methods:
        try:
            clean[method] = _front(cfg, method, wavelengths, ramped)
        except FringelabError as exc:  # rifts' window error, which every trial raises alone
            failed[method] = exc
    parts = split(lambda trials: _trial_signals(cfg, reference, white_sigma, clean, len(todo),
                                                trials), cfg.n_trials) if clean else []
    for (delta_n, gradient, _), *results in zip(todo, *parts):  # a key's result in each part
        passed[delta_n, gradient] = {
            method: (np.full(cfg.n_trials, np.nan),
                     [_failure(i, failed[method]) for i in range(cfg.n_trials)])
            if method in failed else
            (np.concatenate([r[method][0] for r in results]),
             [failure for r in results for failure in r[method][1]])
            for method in methods}
    return passed


def _values(passed: dict, delta_n: float, gradient: str, method: str) -> np.ndarray:
    """method's signals at (delta_n, gradient) in a pass without its failed trials, in trial
    order; the key's CalibrationError, or a StudyError past MAX_FAILURE_FRACTION failures."""
    result = passed[delta_n, gradient][method]
    if isinstance(result, FringelabError):
        raise result.with_traceback(None)
    signals, failures = result
    if len(failures) > MAX_FAILURE_FRACTION * len(signals):
        trial, _, message = failures[0]
        raise StudyError(f"{len(failures)} of {len(signals)} trials failed ({method}, "
                         f"delta_n={delta_n:g}, gradient={gradient}); "
                         f"first failure: trial {trial}: {message}")
    values = np.delete(signals, [trial for trial, _, _ in failures])
    if not np.isfinite(values).all():  # a failed trial raised, so this one is a bug
        raise ValueError(f"{method} gave a non-finite signal at a trial that did not fail "
                         f"(delta_n={delta_n:g}, gradient={gradient})")
    return values


def _mean(passed: dict, delta_n: float, gradient: str, method: str) -> float:
    return float(_values(passed, delta_n, gradient, method).mean())


def _calibration(cfg: LodStudyConfig, passed: dict, method: str) -> tuple:
    """method's (blank std, slope, half-shift ratio), shared by every gradient."""
    blank = _values(passed, 0.0, "none", method)
    blank_mean = float(blank.mean())
    shifted = _mean(passed, cfg.calibration_delta_n, "none", method)
    slope = (shifted - blank_mean) / cfg.calibration_delta_n
    if slope <= 0:
        raise CalibrationError(f"{method} signal did not respond to the calibration "
                               f"shift (slope {slope:g})")
    half = _mean(passed, cfg.calibration_delta_n / 2.0, "none", method)
    half_slope = (half - blank_mean) / (cfg.calibration_delta_n / 2.0)
    ratio = half_slope / slope
    if abs(ratio - 1.0) > LINEARITY_TOLERANCE:
        message = (f"{method} response is not linear near the calibration point: "
                   f"slope at delta_n/2 differs by {100 * abs(ratio - 1):.1f}%")
        # _calibration <- run_table1 or lod_riu <- the user's call
        warnings.warn(message, stacklevel=3)
    return float(blank.std(ddof=1)), slope, ratio


def _drift(passed: dict, gradient: str, method: str) -> float:
    """Shift of method's blank mean when gradient's ramp is switched on. Trials are paired
    (the same seeds with and without the ramp), so the white noise cancels."""
    with_ramp, without = (_mean(passed, 0.0, g, method) for g in (gradient, "none"))
    return abs(with_ramp - without)


def crlb_delta_n(cfg: LodStudyConfig) -> float:
    """Cramér–Rao bound (RIU) on the standard deviation of any unbiased film-index estimate.

    With white Gaussian noise of sigma on the native samples against a noiseless
    reference, std(delta_n) >= sigma / |dR/dn| (Kay 1993, ch. 3); the derivative is a
    central difference of step 1e-6 on the native wavelengths, cut short below at the index
    floor of 1. Drift ramps are not included, so the bound applies to the none column.
    """
    h = 1e-6
    below = min(h, cfg.stack.film_index - 1.0)
    wavelengths = cfg.native.wavelengths()
    up, down = (simulate_reflectance(cfg.stack.with_film_index_shift(s), wavelengths)
                for s in (h, -below))
    jacobian = (up.reflectance - down.reflectance) / (h + below)
    white_sigma = cfg.noise.white_sigma(simulate_reflectance(cfg.stack, wavelengths))
    return white_sigma / float(np.linalg.norm(jacobian))


def _lod_keys(cfg: LodStudyConfig, gradients) -> list:
    """The (delta_n, gradient) keys that detection limits under gradients read."""
    shifts = (0.0, cfg.calibration_delta_n, cfg.calibration_delta_n / 2.0)
    return [(d, "none") for d in shifts] + [(0.0, g) for g in gradients if g != "none"]


def _lod(passed: dict, calibration: tuple, gradient: str, method: str) -> LodResult:
    """method's detection limit under gradient, from a pass and method's calibration."""
    sigma_blank, slope, ratio = calibration
    delta_g = 0.0 if gradient == "none" else _drift(passed, gradient, method)
    return LodResult(sigma_blank=sigma_blank, delta_g=delta_g, slope=slope,
                     lod_riu=3.3 * (sigma_blank + delta_g) / slope, linearity_ratio=ratio)


def lod_riu(cfg: LodStudyConfig, method: str, gradient: str = "none") -> LodResult:
    """Detection limit in refractive index units for one method and drift case."""
    passed = study_pass(cfg, _lod_keys(cfg, [gradient]), (method,))
    return _lod(passed, _calibration(cfg, passed, method), gradient, method)


@dataclass(frozen=True)
class Table1Report:
    """Detection limits for every method under every drift case.

    cells maps (method, gradient) to a LodResult; failures maps the same
    keys to diagnostic strings for cells that could not be computed.
    """

    cells: dict
    failures: dict
    n_trials: int
    master_seed: int

    def lod(self, method: str, gradient: str) -> float:
        return self.cells[(method, gradient)].lod_riu

    def to_dict(self) -> dict:
        out = {
            "n_trials": self.n_trials,
            "master_seed": self.master_seed,
            "methods": list(METHODS),
            "gradients": list(GRADIENTS),
            "cells": {},
        }
        for (method, gradient), result in self.cells.items():
            out["cells"][f"{method}/{gradient}"] = {
                "lod_riu": result.lod_riu,
                "sigma_blank": result.sigma_blank,
                "delta_g": result.delta_g,
                "slope": result.slope,
                "linearity_ratio": result.linearity_ratio,
            }
        for (method, gradient), message in self.failures.items():
            out["cells"][f"{method}/{gradient}"] = {"error": message}
        return out


def run_table1(base_cfg: LodStudyConfig = LodStudyConfig(), *,
               allow_smoke_trials: bool = False) -> Table1Report:
    """Compute the full method-by-drift detection-limit matrix.

    Cell failures are recorded rather than aborting the rest of the matrix. A row's
    calibration (and its linearity warning) is computed once, and every distribution of
    every method in one pass over shared noisy stacks (see the module docstring).
    allow_smoke_trials waives the minimum trial count for shakedown runs whose numbers
    are not reported.
    """
    if base_cfg.n_trials < MIN_REPORTED_TRIALS and not allow_smoke_trials:
        raise ValueError(f"reported studies need at least {MIN_REPORTED_TRIALS} trials")
    cells, failures = {}, {}
    passed = study_pass(base_cfg, _lod_keys(base_cfg, GRADIENTS), METHODS)
    for method in METHODS:
        try:
            calibration = _calibration(base_cfg, passed, method)
        except (StudyError, CalibrationError) as exc:  # the whole row fails with it
            failures.update({(method, gradient): str(exc) for gradient in GRADIENTS})
            continue
        for gradient in GRADIENTS:
            try:
                cells[(method, gradient)] = _lod(passed, calibration, gradient, method)
            except (StudyError, CalibrationError) as exc:
                failures[(method, gradient)] = str(exc)
    return Table1Report(cells=cells, failures=failures, n_trials=base_cfg.n_trials,
                        master_seed=base_cfg.noise.seed)
