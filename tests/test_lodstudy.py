"""Tests for the Monte-Carlo detection-limit engine."""

import importlib
import math
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fringelab.legacy as legacy
import fringelab.lodstudy as lodstudy
from fringelab import (
    CalibrationError,
    FilmStack,
    FringelabError,
    LodStudyConfig,
    NativeGrid,
    NoiseModel,
    Spectrum,
    StudyError,
    WindowConfig,
    add_noise,
    iaw,
    lamp_signal,
    lod_riu,
    rifts_eot,
    run_table1,
    simulate_reflectance,
    study_pass,
)
from fringelab import _split
from fringelab.filmsim import ramped_reflectance, white_rows
from fringelab.lamp import lamp_rows
from fringelab.legacy import rifts_rows
from fringelab.lodstudy import CHUNK_ROWS, _trial_seed, crlb_delta_n

# Mean phase advance of the default film for a 1e-3 index shift:
# 4*pi*L*sigma_bar with L = 2400 nm and sigma_bar = (1/500 + 1/800)/2.
PHASE_PER_RIU = 4.0 * math.pi * 2400.0 * ((1.0 / 500.0 + 1.0 / 800.0) / 2.0)


def study(sigma=None, snr_db=27.7, seed=11, n_trials=12, **kw):
    if sigma is not None:
        noise = NoiseModel(gaussian_sigma=sigma, seed=seed)
    else:
        noise = NoiseModel(target_snr_db=snr_db, seed=seed)
    return LodStudyConfig(noise=noise, n_trials=n_trials, **kw)


def one_pass(cfg, method, delta_n=0.0, gradient="none"):
    """(signals, failures) of method at (delta_n, gradient), from a pass over that key alone."""
    return study_pass(cfg, [(delta_n, gradient)], (method,))[delta_n, gradient][method]


def pass_inputs(cfg, delta_n, gradient):
    """The reference, clean analyte and noise model a pass draws (delta_n, gradient) from."""
    wavelengths = cfg.native.wavelengths()
    reference = simulate_reflectance(cfg.stack, wavelengths)
    clean = simulate_reflectance(cfg.stack.with_film_index_shift(delta_n), wavelengths)
    white_sigma = cfg.noise.white_sigma(reference)
    return reference, clean, lodstudy._noise_model(cfg, reference, white_sigma, gradient)


def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        study(n_trials=1)
    with pytest.raises(ValueError):
        study(calibration_delta_n=0.0)


def test_a_pass_and_the_bound_simulate_on_the_native_grid(monkeypatch):
    grids = []

    def recorded(stack, wavelengths):
        grids.append(wavelengths)
        return simulate_reflectance(stack, wavelengths)

    monkeypatch.setattr(lodstudy, "simulate_reflectance", recorded)
    cfg = study(native=NativeGrid((520, 780), 400), n_trials=4)
    study_pass(cfg, [(0.0, "none")], ("iaw",))
    crlb_delta_n(cfg)
    # the pass's reference and analyte, and the bound's two shifted stacks and reference
    assert len(grids) == 5
    assert all(np.array_equal(grid, np.linspace(520, 780, 400)) for grid in grids)


@pytest.mark.parametrize("key, value", [
    ("n_trials", 12.0), ("n_trials", True), ("offset_snr_db", "x"), ("amplitude_snr_db", "x"),
    ("offset_snr_db", True),
    ("calibration_delta_n", "x"), ("calibration_delta_n", True),
])
def test_config_rejects_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=key):
        study(**{key: value})


@pytest.mark.parametrize("key", ["offset_snr_db", "amplitude_snr_db", "calibration_delta_n"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-too-large-for-a-float"])
def test_config_refuses_a_non_finite_number_by_name(key, value):
    # a NaN floor was accepted, and the table then failed its offset cells in calibration;
    # an infinite or too large one was accepted too
    with pytest.raises(ValueError, match=f"^{key} (must be finite|is too large for a float)"):
        study(**{key: value})


def test_config_takes_numpy_numbers_and_no_floor():
    cfg = study(n_trials=np.int64(12), native=NativeGrid(points=np.int32(768)),
                offset_snr_db=np.float64(7.9), amplitude_snr_db=None)
    assert cfg.n_trials == 12 and cfg.amplitude_snr_db is None


def test_config_rejects_ramp_bearing_noise_model():
    # Drift ramps belong to the study (it calibrates them itself).
    model = NoiseModel(target_snr_db=27.7, offset_ramp_magnitude=0.02, seed=0)
    with pytest.raises(ValueError, match="study itself"):
        LodStudyConfig(noise=model)


def test_trial_seeds_are_deterministic_and_distinct():
    seeds = [_trial_seed(99, i) for i in range(64)]
    assert seeds == [_trial_seed(99, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert _trial_seed(100, 0) != seeds[0]


def test_study_pass_is_deterministic():
    cfg = study(n_trials=10)
    (first, _), (second, _) = (one_pass(cfg, "iaw", 1e-3) for _ in range(2))
    assert np.array_equal(first, second)


def test_noiseless_blank_is_degenerate_for_lamp():
    signals, failures = one_pass(study(sigma=0.0, n_trials=3), "lamp")
    assert signals.tolist() == [0.0] * 3
    assert failures == []


def test_iaw_blank_rectifies_noise():
    signals, _ = one_pass(study(), "iaw")
    assert signals.mean() > 0.0
    assert signals.std() > 0.0


def test_lamp_shifted_mean_matches_phase_prediction():
    signals, _ = one_pass(study(n_trials=24), "lamp", 1e-3)
    assert signals.mean() == pytest.approx(PHASE_PER_RIU * 1e-3, rel=0.05)


def test_disabled_ramp_leaves_every_signal_and_no_drift_penalty():
    cfg = study(n_trials=8, offset_snr_db=None)
    passed = study_pass(cfg, [(0.0, "none"), (0.0, "offset")], ("lamp",))
    assert np.array_equal(passed[0.0, "offset"]["lamp"][0], passed[0.0, "none"]["lamp"][0])
    assert lod_riu(cfg, "lamp", "offset").delta_g == 0.0


def test_delta_g_pairs_out_white_noise():
    # With a vanishing white level the paired comparison must reduce to
    # the deterministic ramp penalty computed directly on clean spectra.
    cfg = study(sigma=1e-9, n_trials=6)
    reference, _, model = pass_inputs(cfg, 0.0, "offset")
    magnitude = model.offset_ramp_magnitude
    wl = cfg.native.wavelengths()
    t = (wl - wl[0]) / (wl[-1] - wl[0])
    ramped = Spectrum(wl, reference.reflectance + magnitude * t)
    expected = iaw(reference, ramped)
    assert lod_riu(cfg, "iaw", "offset").delta_g == pytest.approx(expected, rel=1e-6)
    # Zero-meaned ramp residue: mean |t - 1/2| over an even n-point grid
    # is n / (4 (n - 1)), the discrete form of the triangular-mean 1/4.
    n = cfg.native.points
    assert expected == pytest.approx(magnitude * n / (4.0 * (n - 1)), rel=1e-9)


def test_lod_result_satisfies_detection_formula():
    result = lod_riu(study(n_trials=16), "lamp", "offset")
    assert result.lod_riu == pytest.approx(
        3.3 * (result.sigma_blank + result.delta_g) / result.slope, rel=1e-12
    )
    assert result.slope > 0.0
    assert result.delta_g > 0.0
    assert result.linearity_ratio == pytest.approx(1.0, abs=0.1)


def test_lamp_slope_converts_phase_to_riu():
    result = lod_riu(study(n_trials=20), "lamp")
    assert result.delta_g == 0.0
    assert result.slope == pytest.approx(PHASE_PER_RIU, rel=0.05)


def test_unresponsive_signal_raises_calibration_error():
    cfg = study(n_trials=4)
    passed = {(delta_n, gradient): {"lamp": (np.full(4, 1.0 - 500.0 * delta_n), [])}
              for delta_n, gradient in lodstudy._lod_keys(cfg, ["none"])}

    with pytest.raises(CalibrationError, match="did not respond"):
        lodstudy._calibration(cfg, passed, "lamp")


def test_rectified_response_trips_linearity_guard():
    # The integrated-difference signal grows sub-linearly once the shift
    # is comparable to the noise floor, so the half-shift slope check
    # fires: a warning, never an error.
    cfg = study(n_trials=24)
    with pytest.warns(UserWarning, match="not linear"):
        lod_riu(cfg, "iaw")


@pytest.mark.parametrize("ratio, warns", [
    (0.89, True), (0.91, False), (1.09, False), (1.11, True), (1.15, True)])
def test_linearity_warning_fires_past_ten_percent_either_way(monkeypatch, ratio, warns):
    # the half-shift slope over the calibration slope, set through the pass's signals
    cfg = study(n_trials=100)
    means = {0.0: 0.0, cfg.calibration_delta_n: 1.0, cfg.calibration_delta_n / 2.0: 0.5 * ratio}
    monkeypatch.setattr(lodstudy, "study_pass", lambda cfg, keys, methods: {
        key: {methods[0]: (np.full(100, means[key[0]]), [])} for key in keys})
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = lod_riu(cfg, "lamp")
    assert result.linearity_ratio == pytest.approx(ratio, rel=1e-12)
    assert [str(w.message) for w in record] == (
        [f"lamp response is not linear near the calibration point: slope at delta_n/2 "
         f"differs by {100 * abs(ratio - 1):.1f}%"] if warns else [])


@pytest.mark.parametrize("indices", [(3,), (3, 60)], ids=["1-of-100", "2-of-100"])
def test_one_failed_trial_in_100_is_dropped_and_two_are_a_study_error(monkeypatch, indices):
    # MAX_FAILURE_FRACTION (1%) at MIN_REPORTED_TRIALS; a flat row has no rifts peak, and the
    # two failures fall on both sides of a forked pass's split
    cfg = study(n_trials=100)
    flatten_trial(monkeypatch, cfg, *indices)
    signals, failures = one_pass(cfg, "rifts")
    assert [trial for trial, _, _ in failures] == list(indices)
    if len(indices) == 1:  # the blank's std is its 99 other trials', in trial order
        assert lod_riu(cfg, "rifts").sigma_blank == float(np.delete(signals, 3).std(ddof=1))
    else:
        with pytest.raises(StudyError, match=r"^2 of 100 trials failed \(rifts, .*first "
                           r"failure: trial 3: no fringe peak"):
            lod_riu(cfg, "rifts")


def test_study_error_when_trials_cannot_be_processed():
    # Processing range wider than the simulated data fails every trial.
    cfg = study(n_trials=8, window=WindowConfig(range_nm=(400.0, 900.0)))
    with pytest.raises(StudyError, match="8 of 8 trials failed"):
        lod_riu(cfg, "lamp")


def test_blank_spread_agrees_across_seed_families():
    stds = []
    for seed in (101, 202):
        signals, _ = one_pass(study(seed=seed, n_trials=60), "iaw")
        stds.append(signals.std(ddof=1))
    # std-of-std law: relative standard error ~ 1/sqrt(2 n) per family
    combined = math.hypot(*stds) / math.sqrt(2 * 60)
    assert abs(stds[0] - stds[1]) < 5.0 * combined


def test_lod_scales_with_white_noise_for_linear_methods():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("rifts", "lamp"):
            lods = [
                lod_riu(study(sigma=s, n_trials=60), method).lod_riu
                for s in (0.002, 0.02)
            ]
            assert lods[1] / lods[0] == pytest.approx(10.0, rel=0.3)


def test_cramer_rao_bound_is_linear_in_white_sigma():
    bounds = [crlb_delta_n(study(sigma=s)) for s in (1e-3, 3e-3)]
    assert bounds[1] / bounds[0] == pytest.approx(3.0, rel=1e-9)
    # an S/N target resolves to the same sigma the study draws its noise with
    cfg = study()
    resolved = cfg.noise.white_sigma(simulate_reflectance(cfg.stack, cfg.native.wavelengths()))
    assert crlb_delta_n(study()) == pytest.approx(bounds[0] * resolved / 1e-3, rel=1e-12)


def test_cramer_rao_bound_falls_as_one_over_root_n():
    # four times the native samples over the same range: |dR/dn| grows by two
    coarse, dense = (crlb_delta_n(study(sigma=1e-3, native=NativeGrid(points=n)))
                     for n in (768, 4 * 768))
    assert coarse / dense == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("film_index", [1.0, 1.0 + 5e-7])
def test_cramer_rao_bound_steps_no_lower_than_the_index_floor(film_index):
    # a central difference would step below 1, which FilmStack refuses
    bound = crlb_delta_n(study(sigma=1e-3, stack=FilmStack(film_index=film_index)))
    assert math.isfinite(bound) and bound > 0.0


def test_run_table1_structure_and_orderings():
    cfg = study(n_trials=100, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_table1(cfg)
    keys = {(m, g) for m in ("rifts", "iaw", "lamp") for g in ("none", "offset", "amplitude")}
    assert set(report.cells) | set(report.failures) == keys
    assert not report.failures
    assert report.n_trials == 100
    assert report.master_seed == 5
    for gradient in ("none", "offset", "amplitude"):
        lods = {m: report.lod(m, gradient) for m in ("rifts", "iaw", "lamp")}
        assert lods["lamp"] == min(lods.values())
    for method in ("rifts", "iaw", "lamp"):
        base = report.lod(method, "none")
        assert report.lod(method, "offset") >= base
        assert report.lod(method, "amplitude") >= base
    as_dict = report.to_dict()
    assert set(as_dict["cells"]) == {f"{m}/{g}" for (m, g) in keys}
    assert as_dict["cells"]["lamp/none"]["lod_riu"] == report.lod("lamp", "none")


def test_run_table1_enforces_minimum_trials():
    with pytest.raises(ValueError, match="at least 100"):
        run_table1(study(n_trials=50))


@pytest.mark.parametrize("call, refused", [
    # the call form of a config that named its method
    (lambda cfg: lod_riu(cfg, "offset"), "method"),
    # one method's name where the pass takes a tuple of them
    (lambda cfg: study_pass(cfg, [(0.0, "none")], "lamp"), "method"),
    (lambda cfg: study_pass(cfg, [(0.0, "none")], ("lamp", "fourier")), "method"),
    (lambda cfg: lod_riu(cfg, "fourier", "offset"), "method"),
    (lambda cfg: study_pass(cfg, [(0.0, "none"), (0.0, "ramp")], ("lamp",)), "gradient"),
    (lambda cfg: lod_riu(cfg, "lamp", gradient="tilt"), "gradient"),
], ids=["old-lod_riu", "study_pass-one-name", "study_pass-method", "lod_riu-method",
        "study_pass-gradient", "lod_riu-gradient"])
def test_unknown_method_or_gradient_is_refused_before_any_row_is_drawn(monkeypatch, call,
                                                                        refused):
    # the pass's one check: without it, an unknown method ran as lamp and an unknown gradient
    # as none
    def drawn(*args):
        raise AssertionError("a white row was drawn")

    monkeypatch.setattr(lodstudy, "white_rows", drawn)
    vocabulary = {"method": lodstudy.METHODS, "gradient": lodstudy.GRADIENTS}[refused]
    with pytest.raises(ValueError, match=re.escape(f"{refused} must be one of {vocabulary}")):
        call(study())


def test_noise_stack_rows_are_the_serial_trials():
    # row i of a stack is what add_noise gives trial i on its own
    cfg = study(n_trials=CHUNK_ROWS)
    _, clean, model = pass_inputs(cfg, 1e-3, "offset")
    seeds = [_trial_seed(cfg.noise.seed, i) for i in range(CHUNK_ROWS)]
    rows = ramped_reflectance(clean, model) + white_rows(model.white_sigma(clean), len(clean),
                                                         seeds)
    for row, seed in zip(rows, seeds):
        np.testing.assert_array_equal(row, add_noise(clean, replace(model, seed=seed)).reflectance)


def flatten_trial(monkeypatch, cfg, *indices):
    """Make the study's noisy blank row (0.0, "none") for each trial of indices featureless (no
    fringe peak): its white row is the blank's ramped row negated, so the row is +0.0
    throughout."""
    targets = {_trial_seed(cfg.noise.seed, index) for index in indices}
    _, clean, model = pass_inputs(cfg, 0.0, "none")
    blank = ramped_reflectance(clean, model)

    def flattened(sigma, points, seeds):
        rows = white_rows(sigma, points, seeds)
        for row, seed in zip(rows, seeds):
            if seed in targets:
                row[:] = -blank
        return rows

    monkeypatch.setattr(lodstudy, "white_rows", flattened)


@pytest.mark.parametrize("method", ["lamp", "rifts"])
def test_domain_error_drops_only_its_row(monkeypatch, method):
    cfg = study(n_trials=100)
    flatten_trial(monkeypatch, cfg, 3)  # inside the first stack
    signals, failures = one_pass(cfg, method)
    # the other 99 trials keep the signals they have when evaluated alone
    seeds = [_trial_seed(cfg.noise.seed, i) for i in range(100) if i != 3]
    reference, clean, model = pass_inputs(cfg, 0.0, "none")
    rows = ramped_reflectance(clean, model) + white_rows(model.white_sigma(clean), len(clean),
                                                         seeds)
    one = {"lamp": lambda row: lamp_signal(reference, row, cfg.window),
           "rifts": lambda row: rifts_eot(row, cfg.window)}[method]
    alone = np.array([one(Spectrum(reference.wavelengths_nm, row)) for row in rows])
    assert [trial for trial, _, _ in failures] == [3] and math.isnan(signals[3])
    assert np.array_equal(np.delete(signals, 3), alone)


def test_domain_error_drops_its_trial_only_from_the_failing_methods(monkeypatch):
    # a flat row has no fringe peak for lamp or rifts; iaw still measures it
    cfg = study(n_trials=100)
    flatten_trial(monkeypatch, cfg, 3)
    shared = study_pass(cfg, [(0.0, "none")], lodstudy.METHODS)[0.0, "none"]
    failed = {m: [trial for trial, _, _ in shared[m][1]] for m in lodstudy.METHODS}
    assert failed == {"rifts": [3], "iaw": [], "lamp": [3]}
    for method in lodstudy.METHODS:  # evaluating the methods on shared stacks changes no value
        signals, failures = one_pass(cfg, method)
        assert np.array_equal(shared[method][0], signals, equal_nan=True)
        assert shared[method][1] == failures


def test_table_draws_each_stack_once_and_calibrates_each_ramp_once(monkeypatch):
    one_cpu(monkeypatch)
    calls = {"white_rows": 0, "calibrate_ramp_magnitude": 0}
    drawn = []  # the trial seeds of every white row drawn

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "white_rows":
                drawn.extend(args[2])
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(lodstudy, name, counting(name, getattr(lodstudy, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_table1(study(n_trials=100))
    # 13 chunks of trials, each drawn once for all 5 keys and all three methods
    assert calls == {"white_rows": 13, "calibrate_ramp_magnitude": 2}
    assert len(drawn) == len(set(drawn)) == 100  # one white row per trial, not one per key


def test_table_transforms_the_clean_rows_once_and_each_chunk_of_white_rows_once(monkeypatch):
    # rifts' cubic resample and coarse transform run on the 5 clean rows in one stack, then
    # once on each of the 13 chunks of white rows, not on each of the 65 noisy stacks
    one_cpu(monkeypatch)
    stacks = {"resample_rows": [], "padded_stack": []}  # the rows of each call

    def counting(name, original):
        def counted(*args, **kwargs):
            stacks[name].append(len(args[1] if name == "resample_rows" else args[0]))
            return original(*args, **kwargs)
        return counted

    for name in stacks:
        monkeypatch.setattr(legacy, name, counting(name, getattr(legacy, name)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_table1(study(n_trials=100))
    assert stacks["resample_rows"] == stacks["padded_stack"] == [5] + [8] * 12 + [4]


def test_pass_that_serves_no_rifts_builds_no_rifts_front(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("rifts front built for a lamp pass")

    monkeypatch.setattr(lodstudy, "rifts_front", broken)
    signals, failures = one_pass(study(n_trials=2 * CHUNK_ROWS), "lamp")
    assert np.isfinite(signals).all() and len(signals) == 2 * CHUNK_ROWS and failures == []


def test_pass_with_no_key_left_draws_no_white_rows(monkeypatch):
    # white noise at 27.7 dB cannot be topped up to a 40 dB floor: the pass's one ramp fails
    drawn = []

    def counted(*args):
        drawn.append(args)
        return white_rows(*args)

    monkeypatch.setattr(lodstudy, "white_rows", counted)
    cfg = study(n_trials=2 * CHUNK_ROWS, offset_snr_db=40.0)
    error = study_pass(cfg, [(0.0, "offset")], ("lamp", "iaw"))[0.0, "offset"]
    assert set(error) == {"lamp", "iaw"} and error["lamp"] is error["iaw"]
    assert isinstance(error["lamp"], CalibrationError) and "white noise alone" in str(error["lamp"])
    assert drawn == []


def test_detection_limits_read_only_the_keys_of_their_one_pass(monkeypatch):
    # _lod_keys names every key that calibration and the drift penalty read: none is computed
    # later
    one_cpu(monkeypatch)
    passes = []
    original = lodstudy._trial_signals

    def recorded(cfg, reference, white_sigma, clean, n_keys, trials):
        passes.append((n_keys, trials))
        return original(cfg, reference, white_sigma, clean, n_keys, trials)

    monkeypatch.setattr(lodstudy, "_trial_signals", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lod_riu(study(n_trials=2 * CHUNK_ROWS), "lamp", "offset")
    smoke_table()
    # (keys, trials): lod_riu's one pass, then the table's
    assert passes == [(4, range(16)), (5, range(16))]


def test_ramp_calibration_error_fails_that_column_of_every_method(monkeypatch):
    # white noise at 27.7 dB cannot be topped up to a 40 dB floor
    one_cpu(monkeypatch)
    report = smoke_table(offset_snr_db=40.0)
    assert set(report.failures) == {(m, "offset") for m in lodstudy.METHODS}
    messages = set(report.failures.values())
    assert len(messages) == 1 and "white noise alone" in messages.pop()


@pytest.mark.parametrize("method, module, stage", [("lamp", "lamp", "padded_peak_rows"),
                                                   ("rifts", "lodstudy", "padded_centre_rows")])
def test_bug_in_a_stage_propagates(monkeypatch, method, module, stage):
    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(importlib.import_module(f"fringelab.{module}"), stage, broken)
    with pytest.raises(TypeError, match="injected bug"):
        one_pass(study(n_trials=CHUNK_ROWS), method)


def test_a_nan_signal_at_a_trial_that_did_not_fail_is_a_bug(monkeypatch):
    # a failed trial is one that raised; a NaN that no exception explains is not dropped with
    # them, but raised as a bug
    def first_row_nan(*args):
        return [math.nan] + lamp_rows(*args)[1:]

    monkeypatch.setattr(lodstudy, "lamp_rows", first_row_nan)
    cfg = study(n_trials=2 * CHUNK_ROWS)
    signals, failures = one_pass(cfg, "lamp")
    assert failures == [] and np.isnan(signals).tolist() == [i % CHUNK_ROWS == 0 for i in range(16)]
    with pytest.raises(ValueError, match=r"^lamp gave a non-finite signal at a trial that did not "
                       r"fail \(delta_n=0, gradient=none\)"):
        lod_riu(cfg, "lamp")


FORKS = len(_split.split(list, 2 * CHUNK_ROWS)) == 2
needs_fork = pytest.mark.skipif(not FORKS, reason="the forked path needs fork and 2 CPUs")


def smoke_table(n_trials=2 * CHUNK_ROWS, **kw):
    """A 16-trial table by default: the worker runs trials 8-15."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_table1(study(n_trials=n_trials, seed=3, **kw), allow_smoke_trials=True)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.mark.parametrize("rule", ["one cpu", "one stack", "no fork"])
def test_table_stays_serial_when_forking_cannot_pay(monkeypatch, rule):
    n_trials = CHUNK_ROWS if rule == "one stack" else 2 * CHUNK_ROWS
    if rule == "one cpu":
        one_cpu(monkeypatch)
    if rule == "no fork":
        monkeypatch.delattr(os, "fork")
    assert _split.split(list, n_trials) == [list(range(n_trials))]


@pytest.mark.parametrize("n_trials, indices", [
    # in the caller's and the worker's half
    pytest.param(16, (3,), id="3"), pytest.param(16, (11,), id="11"),
    # 19 trials split at 9: trial 8 is the caller's last and trial 9 the worker's first, while
    # the serial path has both in its second chunk
    pytest.param(19, (8,), id="8-of-19"), pytest.param(19, (9,), id="9-of-19"),
    pytest.param(19, (8, 9), id="8-and-9-of-19"),
])
def test_domain_error_is_counted_with_its_trial_index(monkeypatch, n_trials, indices):
    cfg = study(n_trials=n_trials)
    flatten_trial(monkeypatch, cfg, *indices)
    expected = rf"{len(indices)} of {n_trials} trials failed .*first failure: trial {indices[0]}: "
    messages = []
    for path in ("forked", "one cpu") if FORKS else ("one cpu",):
        if path == "one cpu":
            one_cpu(monkeypatch)
        with pytest.raises(StudyError, match=expected) as info:
            lod_riu(cfg, "lamp")
        messages.append(str(info.value))
    assert len(set(messages)) == 1


def test_rifts_on_summed_fronts_is_rifts_rows_on_the_summed_stacks(monkeypatch):
    # the pass sums each clean row's front and its chunk's white front; every signal and
    # "trial i: ..." error is still rifts_rows' on the noisy row. Trials 8 and 9 are flat in
    # the blank key: the caller's last and the worker's first when forked (see above)
    cfg = study(n_trials=19, seed=3)
    flatten_trial(monkeypatch, cfg, 8, 9)
    keys = lodstudy._lod_keys(cfg, lodstudy.GRADIENTS)
    expected = {}
    for delta_n, gradient in keys:
        reference, clean, model = pass_inputs(cfg, delta_n, gradient)
        rows = ramped_reflectance(clean, model) + lodstudy.white_rows(
            model.white_sigma(reference), len(clean), [_trial_seed(3, i) for i in range(19)])
        signals, errors = np.full(19, np.nan), []
        for i, row in enumerate(rows):
            try:
                [signals[i]] = rifts_rows(cfg.native.wavelengths(), row[None], cfg.window)
            except FringelabError as exc:
                errors.append(f"trial {i}: {exc}")
        expected[delta_n, gradient] = (signals, errors)
    assert [len(errors) for _, errors in expected.values()] == [2, 0, 0, 0, 0]

    for path in ("forked", "one cpu") if FORKS else ("one cpu",):
        if path == "one cpu":
            one_cpu(monkeypatch)
        passed = study_pass(cfg, keys, lodstudy.METHODS)
        for key, (signals, errors) in expected.items():
            rifts, failures = passed[key]["rifts"]
            assert np.array_equal(rifts, signals, equal_nan=True), (path, key)
            assert [f"trial {i}: {message}" for i, _, message in failures] == errors, (path, key)


@pytest.mark.parametrize("method", ["rifts", "lamp"])
def test_narrow_window_fails_every_trial_with_its_own_message(monkeypatch, method):
    # rifts' window error is raised by the clean rows' front, before any white row is drawn;
    # it still fails each trial, with the message each raises alone
    cfg = study(n_trials=2 * CHUNK_ROWS, window=WindowConfig(range_nm=(600, 610)))
    expected = (rf"^16 of 16 trials failed \({method}, delta_n=0, gradient=none\); "
                r"first failure: trial 0: window too narrow")
    for path in ("forked", "one cpu") if FORKS else ("one cpu",):
        if path == "one cpu":
            one_cpu(monkeypatch)
        signals, failures = one_pass(cfg, method)
        assert np.isnan(signals).all() and [trial for trial, _, _ in failures] == list(range(16))
        with pytest.raises(StudyError, match=expected):
            lod_riu(cfg, method)


def test_a_pass_whose_every_clean_front_failed_draws_nothing_and_does_not_fork(monkeypatch):
    # the pass records each trial's failure itself: no white row is drawn, no child forked
    cfg = study(n_trials=100, window=WindowConfig(range_nm=(600, 610)))
    keys = lodstudy._lod_keys(cfg, lodstudy.GRADIENTS)
    _, clean, _ = pass_inputs(cfg, 0.0, "none")
    with pytest.raises(FringelabError, match="window too narrow") as info:
        rifts_rows(cfg.native.wavelengths(), clean.reflectance[None], cfg.window)
    expected = [(i, type(info.value).__name__, str(info.value)) for i in range(100)]

    def refuse(*args):
        raise AssertionError("a pass with no clean front drew white rows or split")

    monkeypatch.setattr(lodstudy, "white_rows", refuse)
    monkeypatch.setattr(lodstudy, "split", refuse)
    monkeypatch.setattr(_split, "fork_join", refuse)
    passed = study_pass(cfg, keys, ("rifts",))
    assert list(passed) == keys
    for key in keys:
        signals, failures = passed[key]["rifts"]
        assert signals.dtype == np.float64 and signals.shape == (100,)
        assert np.isnan(signals).all() and failures == expected, key


@needs_fork
def test_worker_computes_the_upper_half_of_the_stacks(monkeypatch, tmp_path):
    cfg = study(n_trials=100)
    caller = os.getpid()
    trial_of = {_trial_seed(cfg.noise.seed, i): i for i in range(100)}

    def logged(sigma, points, seeds):
        side = "caller" if os.getpid() == caller else "worker"
        with open(tmp_path / side, "a") as log:
            log.writelines(f"{trial_of[seed]}\n" for seed in seeds)
        return white_rows(sigma, points, seeds)

    monkeypatch.setattr(lodstudy, "white_rows", logged)
    one_pass(cfg, "lamp")
    trials = {side: [int(i) for i in (tmp_path / side).read_text().split()]
              for side in ("caller", "worker")}
    assert trials == {"caller": list(range(50)), "worker": list(range(50, 100))}


@pytest.mark.parametrize("n_trials", [CHUNK_ROWS, 2 * CHUNK_ROWS])
def test_lod_riu_warning_names_its_caller(monkeypatch, n_trials):
    monkeypatch.setattr(lodstudy, "LINEARITY_TOLERANCE", -1.0)
    with pytest.warns(UserWarning, match="iaw response is not linear") as record:
        lod_riu(study(n_trials=n_trials), "iaw")
    assert [w.filename for w in record] == [__file__]


@needs_fork
@pytest.mark.parametrize("n_trials", [
    2 * CHUNK_ROWS,
    # split at 9: the caller's chunks are 0-7 and 8, the worker's 9-16 and 17-18, stacks the
    # serial path (0-7, 8-15, 16-18) never builds
    19,
])
def test_forked_table_equals_serial(monkeypatch, n_trials):
    import json

    forked = json.dumps(smoke_table(n_trials).to_dict())
    one_cpu(monkeypatch)
    assert json.dumps(smoke_table(n_trials).to_dict()) == forked


@needs_fork
def test_forked_pass_equals_serial_with_failures_on_both_sides_of_the_split(monkeypatch):
    # 19 trials split at 9; flat blank rows in the caller's half (2, 8) and the worker's (9, 15)
    cfg = study(n_trials=19, seed=3)
    flatten_trial(monkeypatch, cfg, 2, 8, 9, 15)
    keys = lodstudy._lod_keys(cfg, lodstudy.GRADIENTS)
    forked = study_pass(cfg, keys, lodstudy.METHODS)
    one_cpu(monkeypatch)
    serial = study_pass(cfg, keys, lodstudy.METHODS)
    assert [trial for trial, _, _ in forked[0.0, "none"]["lamp"][1]] == [2, 8, 9, 15]
    for key in keys:
        for method in lodstudy.METHODS:
            (signals, failures), expected = forked[key][method], serial[key][method]
            assert np.array_equal(signals, expected[0], equal_nan=True), (key, method)
            assert failures == expected[1], (key, method)


@needs_fork
def test_forked_table_joins_the_worker_once(monkeypatch, tmp_path):
    from fringelab._split import fork_join

    caller, joins, original = os.getpid(), [], lodstudy._trial_signals

    def logged(*args):
        side = "caller" if os.getpid() == caller else "worker"
        with open(tmp_path / side, "a") as log:
            log.write(f"{args[-1]}\n")
        return original(*args)

    def counted(*halves):
        joins.append(halves)
        return fork_join(*halves)

    monkeypatch.setattr(lodstudy, "_trial_signals", logged)
    monkeypatch.setattr(_split, "fork_join", counted)
    smoke_table()
    assert len(joins) == 1
    ranges = {side: (tmp_path / side).read_text() for side in ("caller", "worker")}
    assert ranges == {"caller": "range(0, 8)\n", "worker": "range(8, 16)\n"}  # the upper half


@needs_fork
def test_forked_warnings_reach_the_caller_in_method_order(monkeypatch):
    monkeypatch.setattr(lodstudy, "LINEARITY_TOLERANCE", -1.0)
    with pytest.warns(UserWarning, match="response is not linear") as record:
        run_table1(study(n_trials=2 * CHUNK_ROWS), allow_smoke_trials=True)
    linearity = [w for w in record if "not linear" in str(w.message)]
    assert [str(w.message).split()[0] for w in linearity] == list(lodstudy.METHODS)
    assert {w.filename for w in linearity} == {__file__}


@needs_fork
def test_bug_in_the_forked_worker_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(importlib.import_module("fringelab.lamp"), "padded_peak_rows", broken)
    with pytest.raises(TypeError, match="injected bug"):
        smoke_table()


@needs_fork
def test_bug_only_in_the_forked_workers_half_reaches_the_caller(monkeypatch):
    caller = os.getpid()

    def broken(*args):
        if os.getpid() != caller:
            raise LookupError("injected bug")
        return white_rows(*args)

    monkeypatch.setattr(lodstudy, "white_rows", broken)
    with pytest.raises(LookupError, match="injected bug") as info:
        smoke_table()
    assert "in the forked worker" in str(info.value.__cause__)
    assert "injected bug" in str(info.value.__cause__)


@needs_fork
def test_forked_lamp_failures_equal_serial(monkeypatch):
    # a window wider than the samples fails rifts and lamp; iaw reads the samples inside it
    window = WindowConfig(range_nm=(400.0, 900.0))
    forked = smoke_table(window=window)
    assert set(forked.failures) == {(m, g) for m in ("rifts", "lamp") for g in lodstudy.GRADIENTS}
    one_cpu(monkeypatch)
    serial = smoke_table(window=window)
    assert forked.failures == serial.failures
    assert forked.to_dict() == serial.to_dict()
