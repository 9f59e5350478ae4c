"""Monte-Carlo limit-of-detection studies for the fringe estimators.

A study generates many noisy analyte spectra against one noiseless
reference, runs a chosen estimator on each, and reduces the per-trial
signals to distribution statistics. Detection limits follow the
blank-versus-shifted construction: LOD = 3.3 (sigma_blank + delta_g) / slope,
where delta_g charges any systematic drift penalty and the slope converts
signal units to refractive index units from a small calibration shift.

Each public call is one pass: _distributions returns every (delta_n, gradient) key the call
reads, for every method it serves, as a dict, and the call's detection limits are computed
from that dict; run_table1 is one pass over five keys and three methods. _trial_signals runs
a range of trials in chunks of CHUNK_ROWS (8) from the range's own start. A chunk's white rows
are drawn once and serve every key: a key's stack is its ramped clean row plus them, the sum
add_noise makes. Each stack is evaluated by lamp_rows, rifts_rows and iaw_rows against lamp's
cached reference profile, and the chunk's draws are dropped after its last key. A stack that
raises a FringelabError for a method is rerun row by row for that method (a row's result is
the same alone or stacked): only its failing trials are dropped and counted. Any other
exception propagates. A pass whose every ramp failed to calibrate draws nothing.

Where two CPUs and os.fork are available, a pass's trials are split once (_split.fork_join): one
forked child runs trials n_trials // 2 to n_trials - 1 while the caller runs the rest, and each
key's signals and errors are joined once, the caller's first, so every trial's result is what
the serial loop gives. The child sends its signals back through a pipe; warnings and failures
are raised by the caller, and a bug in the child's trials is raised there with its own type.
The study stays serial on fewer than 2 usable CPUs, without os.fork, or at n_trials <=
CHUNK_ROWS. Results, failures, the study's own warnings and to_dict() are the same on both
paths; numpy's floating-point warnings from the child's trials stay in the child.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._split import fork_join, forks
from .errors import CalibrationError, FringelabError, StudyError
from .filmsim import (
    FilmStack,
    NoiseModel,
    Spectrum,
    calibrate_ramp_magnitude,
    check_real,
    ramped_reflectance,
    simulate_reflectance,
    white_rows,
)
from .lamp import LampConfig, lamp_rows
from .legacy import IawConfig, RiftsConfig, iaw_rows, rifts_rows

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
class DistributionStats:
    """Sample mean and standard deviation of per-trial method signals."""

    mean: float
    std: float
    n_trials: int

    def __post_init__(self):
        if self.n_trials < 2:
            raise ValueError("need at least two trials for a distribution")
        if not self.std >= 0.0:
            raise ValueError("standard deviation must be non-negative")


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

    The noise model supplies the white level (explicit sigma or an
    S/N target resolved once against the clean reference) and the master
    seed; drift ramps are owned by the study and calibrated to the
    configured gradient S/N floors, so the model itself must not carry
    ramp terms. A floor of None disables that ramp (magnitude 0). Trial i
    draws from a stream derived from (seed, i), making trials
    order-independent.
    """

    stack: FilmStack = field(default_factory=FilmStack)
    noise: NoiseModel = field(default_factory=lambda: NoiseModel(target_snr_db=27.7, seed=0))
    native_range_nm: tuple = (500.0, 800.0)
    native_points: int = 768
    n_trials: int = 1000
    calibration_delta_n: float = 1e-3
    method: str = "lamp"
    offset_snr_db: float | None = OFFSET_GRADIENT_SNR_DB
    amplitude_snr_db: float | None = AMPLITUDE_GRADIENT_SNR_DB
    rifts: RiftsConfig = field(default_factory=RiftsConfig)
    iaw: IawConfig = field(default_factory=IawConfig)
    lamp: LampConfig = field(default_factory=LampConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not isinstance(self.n_trials, (int, np.integer)) or self.n_trials < 2:
            raise ValueError("n_trials must be an integer >= 2")
        check_real("calibration_delta_n", self.calibration_delta_n)
        if not self.calibration_delta_n > 0:
            raise ValueError("calibration_delta_n must be positive")
        if not isinstance(self.native_points, (int, np.integer)) or self.native_points < 16:
            raise ValueError("native_points must be an integer >= 16")
        for name in ("offset_snr_db", "amplitude_snr_db"):
            check_real(name, getattr(self, name), optional=True)
        lo, hi = self.native_range_nm
        if not 0 < lo < hi:
            raise ValueError("native range must satisfy 0 < low < high")
        if self.noise.offset_ramp_magnitude != 0.0 or self.noise.amplitude_ramp_gain != 0.0:
            raise ValueError(
                "drift ramps are applied by the study itself; "
                "configure gradient S/N floors instead of ramp magnitudes"
            )

    def wavelengths(self) -> np.ndarray:
        lo, hi = self.native_range_nm
        return np.linspace(lo, hi, self.native_points)


def _trial_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1, np.uint64)[0])


def _evaluate(cfg: LodStudyConfig, method: str, reference: Spectrum, rows: np.ndarray) -> list:
    """method's signal for each row of a noisy stack."""
    if method == "rifts":
        return rifts_rows(reference.wavelengths_nm, rows, cfg.rifts)
    if method == "iaw":
        return iaw_rows(reference, rows, cfg.iaw)
    return lamp_rows(reference, reference.wavelengths_nm, rows, cfg.lamp)


def _trial_signals(cfg: LodStudyConfig, methods: tuple, reference: Spectrum, white_sigma: float,
                   ramped: list, trials: range) -> list:
    """Per ramped clean row, {method: (signals, "trial i: ..." errors)} over trials, in order;
    each chunk of CHUNK_ROWS trials from trials.start draws its white rows once for every row."""
    results = [{method: ([], []) for method in methods} for _ in ramped]
    for start in range(trials.start, trials.stop, CHUNK_ROWS):
        chunk = range(start, min(start + CHUNK_ROWS, trials.stop))
        white = white_rows(white_sigma, len(reference),
                           [_trial_seed(cfg.noise.seed, i) for i in chunk])
        for row, result in zip(ramped, results):
            rows = row + white
            for method, (signals, errors) in result.items():
                try:
                    signals += _evaluate(cfg, method, reference, rows)
                except FringelabError:  # rerun row by row: only the failing trials are dropped
                    for i, alone in zip(chunk, rows):
                        try:
                            signals += _evaluate(cfg, method, reference, alone[None])
                        except FringelabError as exc:
                            errors.append(f"trial {i}: {exc}")
    return results


def _noise_model(cfg: LodStudyConfig, reference: Spectrum, white_sigma: float,
                 gradient: str) -> NoiseModel:
    """The white level plus gradient's drift ramp, calibrated to its S/N floor."""
    target = {"offset": cfg.offset_snr_db, "amplitude": cfg.amplitude_snr_db}.get(gradient)
    magnitude = 0.0 if target is None else calibrate_ramp_magnitude(
        reference, gradient, target, white_sigma=white_sigma)
    return NoiseModel(gaussian_sigma=white_sigma, seed=cfg.noise.seed,
                      offset_ramp_magnitude=magnitude if gradient == "offset" else 0.0,
                      amplitude_ramp_gain=magnitude if gradient == "amplitude" else 0.0)


def _stats(n_trials: int, method: str, delta_n: float, gradient: str, signals, errors):
    """method's DistributionStats over one key's signals, or its StudyError."""
    if len(errors) > MAX_FAILURE_FRACTION * n_trials:
        return StudyError(f"{len(errors)} of {n_trials} trials failed ({method}, "
                          f"delta_n={delta_n:g}, gradient={gradient}); "
                          f"first failure: {errors[0]}")
    values = np.asarray(signals)
    return DistributionStats(float(values.mean()), float(values.std(ddof=1)), values.size)


def _distributions(cfg: LodStudyConfig, keys, methods: tuple = ()) -> dict:
    """{(delta_n, gradient): {method: DistributionStats or the FringelabError that stopped
    it}} for every key, in one pass over every method (cfg.method by default)."""
    methods = methods or (cfg.method,)
    wavelengths = cfg.wavelengths()
    reference = simulate_reflectance(cfg.stack, wavelengths)
    white_sigma = cfg.noise.white_sigma(reference)
    dists, todo = {}, []
    for delta_n, gradient in keys:
        try:
            todo.append((delta_n, gradient, _noise_model(cfg, reference, white_sigma, gradient)))
        except CalibrationError as exc:  # the ramp's failure is every method's
            dists[delta_n, gradient] = dict.fromkeys(methods, exc)
    if not todo:  # every ramp failed: nothing to draw
        return dists
    clean = {delta_n: simulate_reflectance(cfg.stack.with_film_index_shift(delta_n), wavelengths)
             for delta_n in dict.fromkeys(delta_n for delta_n, _, _ in todo)}
    ramped = [ramped_reflectance(clean[delta_n], model) for delta_n, _, model in todo]
    args = (cfg, methods, reference, white_sigma, ramped)
    if not forks(cfg.n_trials, CHUNK_ROWS):
        results = _trial_signals(*args, range(cfg.n_trials))
    else:  # the worker takes the upper half of the trials, the odd one out
        split = cfg.n_trials // 2
        lower, upper = fork_join(lambda: _trial_signals(*args, range(split)),
                                 lambda: _trial_signals(*args, range(split, cfg.n_trials)))
        # each key's signals and errors in trial order: the caller's half, then the worker's
        results = [{method: tuple(a + b for a, b in zip(lo[method], up[method]))
                    for method in methods} for lo, up in zip(lower, upper)]
    for (delta_n, gradient, _), result in zip(todo, results):
        dists[delta_n, gradient] = {
            method: _stats(cfg.n_trials, method, delta_n, gradient, *result[method])
            for method in methods}
    return dists


def _read(dists: dict, delta_n: float, gradient: str, method: str) -> DistributionStats:
    """method's distribution at (delta_n, gradient) from a pass, or the error it stored."""
    stats = dists[delta_n, gradient][method]
    if isinstance(stats, FringelabError):
        raise stats.with_traceback(None)
    return stats


def _calibration(cfg: LodStudyConfig, dists: dict, method: str) -> tuple:
    """method's (blank, slope, half-shift ratio), shared by every gradient."""
    blank = _read(dists, 0.0, "none", method)
    shifted = _read(dists, cfg.calibration_delta_n, "none", method)
    slope = (shifted.mean - blank.mean) / cfg.calibration_delta_n
    if slope <= 0:
        raise CalibrationError(f"{method} signal did not respond to the calibration "
                               f"shift (slope {slope:g})")
    half = _read(dists, cfg.calibration_delta_n / 2.0, "none", method)
    half_slope = (half.mean - blank.mean) / (cfg.calibration_delta_n / 2.0)
    ratio = half_slope / slope
    if abs(ratio - 1.0) > LINEARITY_TOLERANCE:
        message = (f"{method} response is not linear near the calibration point: "
                   f"slope at delta_n/2 differs by {100 * abs(ratio - 1):.1f}%")
        # _calibration <- run_table1 or lod_riu <- the user's call
        warnings.warn(message, stacklevel=3)
    return blank, slope, ratio


def _drift(dists: dict, gradient: str, method: str) -> float:
    """Shift of method's blank mean when gradient's ramp is switched on."""
    with_ramp, without = (_read(dists, 0.0, g, method) for g in (gradient, "none"))
    return abs(with_ramp.mean - without.mean)


def response_distribution(
    cfg: LodStudyConfig, delta_n: float, gradient: str = "none"
) -> DistributionStats:
    """Distribution of the configured method's signal over noisy trials."""
    if gradient not in GRADIENTS:
        raise ValueError(f"gradient must be one of {GRADIENTS}")
    return _read(_distributions(cfg, [(delta_n, gradient)]), delta_n, gradient, cfg.method)


def gradient_delta(cfg: LodStudyConfig, gradient: str) -> float:
    """Drift penalty: shift of the blank mean when the ramp is switched on.

    Trials are paired (same derived seeds with and without the ramp), so
    the white-noise contribution cancels from the comparison. Both
    distributions are computed in one pass, as lod_riu's are.
    """
    if gradient not in ("offset", "amplitude"):
        raise ValueError("gradient must be 'offset' or 'amplitude'")
    return _drift(_distributions(cfg, [(0.0, "none"), (0.0, gradient)]), gradient, cfg.method)


def crlb_delta_n(cfg: LodStudyConfig) -> float:
    """Cramér–Rao bound (RIU) on the standard deviation of any unbiased film-index estimate.

    With white Gaussian noise of sigma on the native samples against a noiseless
    reference, std(delta_n) >= sigma / |dR/dn| (Kay 1993, ch. 3); the derivative is a
    central difference of step 1e-6 on the native wavelengths, cut short below at the index
    floor of 1. Drift ramps are not included, so the bound applies to the none column.
    """
    h = 1e-6
    below = min(h, cfg.stack.film_index - 1.0)
    wavelengths = cfg.wavelengths()
    up, down = (simulate_reflectance(cfg.stack.with_film_index_shift(s), wavelengths)
                for s in (h, -below))
    jacobian = (up.reflectance - down.reflectance) / (h + below)
    white_sigma = cfg.noise.white_sigma(simulate_reflectance(cfg.stack, wavelengths))
    return white_sigma / float(np.linalg.norm(jacobian))


def _lod_keys(cfg: LodStudyConfig, gradients) -> list:
    """The (delta_n, gradient) keys that detection limits under gradients read."""
    shifts = (0.0, cfg.calibration_delta_n, cfg.calibration_delta_n / 2.0)
    return [(d, "none") for d in shifts] + [(0.0, g) for g in gradients if g != "none"]


def _lod(dists: dict, calibration: tuple, gradient: str, method: str) -> LodResult:
    """method's detection limit under gradient, from a pass and method's calibration."""
    blank, slope, ratio = calibration
    delta_g = 0.0 if gradient == "none" else _drift(dists, gradient, method)
    return LodResult(sigma_blank=blank.std, delta_g=delta_g, slope=slope,
                     lod_riu=3.3 * (blank.std + delta_g) / slope, linearity_ratio=ratio)


def lod_riu(cfg: LodStudyConfig, gradient: str = "none") -> LodResult:
    """Detection limit in refractive index units for one method and drift case."""
    if gradient not in GRADIENTS:
        raise ValueError(f"gradient must be one of {GRADIENTS}")
    dists = _distributions(cfg, _lod_keys(cfg, [gradient]))
    return _lod(dists, _calibration(cfg, dists, cfg.method), gradient, cfg.method)


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
    dists = _distributions(base_cfg, _lod_keys(base_cfg, GRADIENTS), METHODS)
    for method in METHODS:
        try:
            calibration = _calibration(base_cfg, dists, method)
        except (StudyError, CalibrationError) as exc:  # the whole row fails with it
            failures.update({(method, gradient): str(exc) for gradient in GRADIENTS})
            continue
        for gradient in GRADIENTS:
            try:
                cells[(method, gradient)] = _lod(dists, calibration, gradient, method)
            except (StudyError, CalibrationError) as exc:
                failures[(method, gradient)] = str(exc)
    return Table1Report(cells=cells, failures=failures, n_trials=base_cfg.n_trials,
                        master_seed=base_cfg.noise.seed)
