"""Monte-Carlo limit-of-detection studies for the fringe estimators.

A study generates many noisy analyte spectra against one noiseless
reference, runs a chosen estimator on each, and reduces the per-trial
signals to distribution statistics. Detection limits follow the
blank-versus-shifted construction: LOD = 3.3 (sigma_blank + delta_g) / slope,
where delta_g charges any systematic drift penalty and the slope converts
signal units to refractive index units from a small calibration shift.

One pass computes (delta_n, gradient) keys for every method a study serves: trials run
as stacks of CHUNK_ROWS (8) from trial 0, each drawn once and evaluated by lamp_rows,
rifts_rows and iaw_rows against lamp's cached reference profile, so run_table1 is one
pass over five keys and three methods. A stack that raises a FringelabError for a method
is rerun row by row for that method (a row's result is the same alone or stacked): only
its failing trials are dropped and counted. Any other exception propagates.

Where two CPUs and fork are available, a pass's stacks are split once: a forked
one-process pool computes the upper half while the caller computes the lower half,
and the two are joined once, in stack order, so every row's result is what the serial
loop gives. Only arguments and signals cross; warnings and failures are raised by the
caller. The study stays serial on fewer than 2 usable CPUs, without the fork start
method, inside a daemonic process, or at n_trials <= CHUNK_ROWS. Results, failures,
warnings and to_dict() are the same on both paths.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError, FringelabError, StudyError
from .filmsim import (
    FilmStack,
    NoiseModel,
    Spectrum,
    calibrate_ramp_magnitude,
    check_snr_db,
    noise_rows,
    simulate_reflectance,
    white_sigma_for_target,
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
        if not self.calibration_delta_n > 0:
            raise ValueError("calibration_delta_n must be positive")
        if not isinstance(self.native_points, (int, np.integer)) or self.native_points < 16:
            raise ValueError("native_points must be an integer >= 16")
        for name in ("offset_snr_db", "amplitude_snr_db"):
            check_snr_db(name, getattr(self, name))
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


def _evaluate(cfg: LodStudyConfig, reference: Spectrum, rows: np.ndarray) -> list:
    """The configured method's signal for each row of a noisy stack."""
    if cfg.method == "rifts":
        return rifts_rows(reference.wavelengths_nm, rows, cfg.rifts)
    if cfg.method == "iaw":
        return iaw_rows(reference, rows, cfg.iaw)
    return lamp_rows(reference, reference.wavelengths_nm, rows, cfg.lamp)


def _stack_signals(cfgs: dict, reference: Spectrum, stacks: list) -> list:
    """Per (clean, model, trials) stack, {method: (signals, "trial i: ..." errors)}."""
    results = []
    for clean, model, trials in stacks:
        rows = noise_rows(clean, model, [_trial_seed(model.seed, i) for i in trials])
        results.append({})
        for method, cfg in cfgs.items():
            try:
                signals, errors = _evaluate(cfg, reference, rows), []
            except FringelabError:  # rerun row by row: only the failing trials are dropped
                signals, errors = [], []
                for i, row in zip(trials, rows):
                    try:
                        signals += _evaluate(cfg, reference, row[None])
                    except FringelabError as exc:
                        errors.append(f"trial {i}: {exc}")
            results[-1][method] = signals, errors
    return results


class _StudyEngine:
    """Per-study state: clean spectra, noise, ramps, and each method's results."""

    def __init__(self, cfg: LodStudyConfig, methods: tuple = ()):
        self.cfg = cfg
        self.cfgs = {m: replace(cfg, method=m) for m in methods or (cfg.method,)}
        self.reference = simulate_reflectance(cfg.stack, cfg.wavelengths())
        if cfg.noise.gaussian_sigma is not None:
            self.white_sigma = cfg.noise.gaussian_sigma
        else:
            self.white_sigma = white_sigma_for_target(self.reference, cfg.noise.target_snr_db)
        self._clean_cache: dict[float, Spectrum] = {}
        self._ramp_cache: dict[str, float] = {}
        self._dist_cache: dict[tuple, dict] = {}  # (delta_n, gradient) -> {method: stats or error}
        self._calibration: dict[str, tuple] = {}

    def clean_analyte(self, delta_n: float) -> Spectrum:
        if delta_n not in self._clean_cache:
            stack = self.cfg.stack.with_film_index_shift(delta_n)
            self._clean_cache[delta_n] = simulate_reflectance(stack, self.cfg.wavelengths())
        return self._clean_cache[delta_n]

    def ramp_magnitude(self, gradient: str) -> float:
        if gradient == "none":
            return 0.0
        target = (self.cfg.offset_snr_db if gradient == "offset"
                  else self.cfg.amplitude_snr_db)
        if target is None:
            return 0.0
        if gradient not in self._ramp_cache:
            self._ramp_cache[gradient] = calibrate_ramp_magnitude(
                self.reference, gradient, target, white_sigma=self.white_sigma)
        return self._ramp_cache[gradient]

    def _noise_model(self, gradient: str) -> NoiseModel:
        magnitude = self.ramp_magnitude(gradient)
        return NoiseModel(
            gaussian_sigma=self.white_sigma,
            offset_ramp_magnitude=magnitude if gradient == "offset" else 0.0,
            amplitude_ramp_gain=magnitude if gradient == "amplitude" else 0.0,
            seed=self.cfg.noise.seed,
        )

    def compute(self, keys, pool=None) -> None:
        """Every method's distribution at each (delta_n, gradient) key not yet cached, in one
        pass; with a pool its stacks are split once, and the worker takes the odd one out."""
        n_trials, todo, stacks = self.cfg.n_trials, [], []
        trials = [range(s, min(s + CHUNK_ROWS, n_trials)) for s in range(0, n_trials, CHUNK_ROWS)]
        for delta_n, gradient in keys:
            if (delta_n, gradient) in self._dist_cache:
                continue
            try:
                model = self._noise_model(gradient)
            except CalibrationError as exc:  # the ramp's failure is every method's
                self._dist_cache[delta_n, gradient] = dict.fromkeys(self.cfgs, exc)
                continue
            todo.append((delta_n, gradient, len(stacks)))
            stacks += [(self.clean_analyte(delta_n), model, stack) for stack in trials]
        args, split = (self.cfgs, self.reference), len(stacks) // 2
        if pool is None or not stacks:
            results = _stack_signals(*args, stacks)
        else:
            upper = pool.apply_async(_stack_signals, (*args, stacks[split:]))
            results = _stack_signals(*args, stacks[:split]) + upper.get()
        for delta_n, gradient, first in todo:
            chunk = results[first:first + len(trials)]
            self._dist_cache[delta_n, gradient] = {
                method: self._stats(method, delta_n, gradient, chunk) for method in self.cfgs}

    def _stats(self, method: str, delta_n: float, gradient: str, chunk: list):
        """method's DistributionStats over one key's stack results, or its StudyError."""
        signals = sum((result[method][0] for result in chunk), [])
        errors = sum((result[method][1] for result in chunk), [])
        if len(errors) > MAX_FAILURE_FRACTION * self.cfg.n_trials:
            return StudyError(f"{len(errors)} of {self.cfg.n_trials} trials failed ({method}, "
                              f"delta_n={delta_n:g}, gradient={gradient}); "
                              f"first failure: {errors[0]}")
        values = np.asarray(signals)
        return DistributionStats(float(values.mean()), float(values.std(ddof=1)), values.size)

    def distribution(self, delta_n: float, gradient: str, method: str) -> DistributionStats:
        self.compute([(delta_n, gradient)])
        stats = self._dist_cache[delta_n, gradient][method]
        if isinstance(stats, FringelabError):
            raise stats.with_traceback(None)
        return stats

    def calibration(self, method: str) -> tuple[DistributionStats, float, float]:
        """method's (blank, slope, half-shift ratio), shared by every gradient: a success, and
        its linearity warning, once per engine; a CalibrationError on every call."""
        cfg = self.cfgs[method]
        if cfg.method in self._calibration:
            return self._calibration[cfg.method]
        blank = self.distribution(0.0, "none", cfg.method)
        shifted = self.distribution(cfg.calibration_delta_n, "none", cfg.method)
        slope = (shifted.mean - blank.mean) / cfg.calibration_delta_n
        if slope <= 0:
            raise CalibrationError(f"{cfg.method} signal did not respond to the calibration "
                                   f"shift (slope {slope:g})")
        half = self.distribution(cfg.calibration_delta_n / 2.0, "none", cfg.method)
        half_slope = (half.mean - blank.mean) / (cfg.calibration_delta_n / 2.0)
        ratio = half_slope / slope
        if abs(ratio - 1.0) > LINEARITY_TOLERANCE:
            message = (f"{cfg.method} response is not linear near the calibration point: "
                       f"slope at delta_n/2 differs by {100 * abs(ratio - 1):.1f}%")
            # calibration <- _lod_from_engine <- run_table1 or lod_riu <- the user's call
            warnings.warn(message, stacklevel=4)
        self._calibration[cfg.method] = blank, slope, ratio
        return self._calibration[cfg.method]


def response_distribution(
    cfg: LodStudyConfig, delta_n: float, gradient: str = "none"
) -> DistributionStats:
    """Distribution of the configured method's signal over noisy trials."""
    if gradient not in GRADIENTS:
        raise ValueError(f"gradient must be one of {GRADIENTS}")
    return _computed_engine(cfg, [(delta_n, gradient)]).distribution(delta_n, gradient, cfg.method)


def gradient_delta(cfg: LodStudyConfig, gradient: str, engine: _StudyEngine | None = None) -> float:
    """Drift penalty: shift of the blank mean when the ramp is switched on.

    Trials are paired (same derived seeds with and without the ramp), so
    the white-noise contribution cancels from the comparison. Without an
    engine, both distributions are computed in one pass, as lod_riu's are.
    """
    if gradient not in ("offset", "amplitude"):
        raise ValueError("gradient must be 'offset' or 'amplitude'")
    if engine is None:
        engine = _computed_engine(cfg, [(0.0, "none"), (0.0, gradient)])
    with_ramp = engine.distribution(0.0, gradient, cfg.method)
    without = engine.distribution(0.0, "none", cfg.method)
    return abs(with_ramp.mean - without.mean)


def crlb_delta_n(cfg: LodStudyConfig) -> float:
    """Cramér–Rao bound (RIU) on the standard deviation of any unbiased film-index estimate.

    With white Gaussian noise of sigma on the native samples against a noiseless
    reference, std(delta_n) >= sigma / |dR/dn| (Kay 1993, ch. 3); the derivative is a
    central difference of step 1e-6 on the native wavelengths. Drift ramps are not
    included, so the bound applies to the none column.
    """
    h = 1e-6
    wavelengths = cfg.wavelengths()
    up, down = (simulate_reflectance(cfg.stack.with_film_index_shift(s), wavelengths)
                for s in (h, -h))
    jacobian = (up.reflectance - down.reflectance) / (2.0 * h)
    return _StudyEngine(cfg).white_sigma / float(np.linalg.norm(jacobian))


def _lod_keys(cfg: LodStudyConfig, gradients) -> list:
    """The (delta_n, gradient) keys that detection limits under gradients read."""
    shifts = (0.0, cfg.calibration_delta_n, cfg.calibration_delta_n / 2.0)
    return [(d, "none") for d in shifts] + [(0.0, g) for g in gradients if g != "none"]


def _lod_from_engine(engine: _StudyEngine, gradient: str, method: str) -> LodResult:
    cfg = engine.cfgs[method]
    blank, slope, ratio = engine.calibration(method)
    delta_g = 0.0 if gradient == "none" else gradient_delta(cfg, gradient, engine)
    lod = 3.3 * (blank.std + delta_g) / slope
    return LodResult(
        sigma_blank=blank.std,
        delta_g=delta_g,
        slope=slope,
        lod_riu=lod,
        linearity_ratio=ratio,
    )


def lod_riu(cfg: LodStudyConfig, gradient: str = "none") -> LodResult:
    """Detection limit in refractive index units for one method and drift case."""
    if gradient not in GRADIENTS:
        raise ValueError(f"gradient must be one of {GRADIENTS}")
    return _lod_from_engine(_computed_engine(cfg, _lod_keys(cfg, [gradient])), gradient, cfg.method)


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


def _fork_context(base_cfg: LodStudyConfig):
    """The fork multiprocessing context if a worker should share the trials, else None."""
    if base_cfg.n_trials <= CHUNK_ROWS:
        return None
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _computed_engine(cfg: LodStudyConfig, keys, methods: tuple = ()) -> _StudyEngine:
    """An engine with every key computed in one pass: shared with a forked one-process pool,
    or serial where forking cannot pay."""
    engine, context = _StudyEngine(cfg, methods), _fork_context(cfg)
    if context is None:
        engine.compute(keys)
        return engine
    with context.Pool(1) as pool:
        engine.compute(keys, pool)
    return engine


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
    cells: dict = {}
    failures: dict = {}
    engine = _computed_engine(base_cfg, _lod_keys(base_cfg, GRADIENTS), METHODS)
    for method in METHODS:
        for gradient in GRADIENTS:
            try:
                cells[(method, gradient)] = _lod_from_engine(engine, gradient, method)
            except (StudyError, CalibrationError) as exc:
                failures[(method, gradient)] = str(exc)
    return Table1Report(
        cells=cells,
        failures=failures,
        n_trials=base_cfg.n_trials,
        master_seed=base_cfg.noise.seed,
    )
