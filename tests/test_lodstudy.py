"""Tests for the Monte-Carlo detection-limit engine."""

import importlib
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fringelab.lodstudy as lodstudy
from fringelab import (
    CalibrationError,
    FilmStack,
    LampConfig,
    LodStudyConfig,
    NoiseModel,
    Spectrum,
    StudyError,
    add_noise,
    gradient_delta,
    iaw,
    lod_riu,
    response_distribution,
    run_table1,
    simulate_reflectance,
)
from fringelab.filmsim import noise_rows, ramped_reflectance, white_rows
from fringelab.lodstudy import CHUNK_ROWS, _trial_seed, crlb_delta_n

# Mean phase advance of the default film for a 1e-3 index shift:
# 4*pi*L*sigma_bar with L = 2400 nm and sigma_bar = (1/500 + 1/800)/2.
PHASE_PER_RIU = 4.0 * math.pi * 2400.0 * ((1.0 / 500.0 + 1.0 / 800.0) / 2.0)


def study(method="lamp", sigma=None, snr_db=27.7, seed=11, n_trials=12, **kw):
    if sigma is not None:
        noise = NoiseModel(gaussian_sigma=sigma, seed=seed)
    else:
        noise = NoiseModel(target_snr_db=snr_db, seed=seed)
    return LodStudyConfig(noise=noise, method=method, n_trials=n_trials, **kw)


def pass_inputs(cfg, delta_n, gradient):
    """The reference, clean analyte and noise model a pass draws (delta_n, gradient) from."""
    reference = simulate_reflectance(cfg.stack, cfg.wavelengths())
    clean = simulate_reflectance(cfg.stack.with_film_index_shift(delta_n), cfg.wavelengths())
    white_sigma = cfg.noise.white_sigma(reference)
    return reference, clean, lodstudy._noise_model(cfg, reference, white_sigma, gradient)


def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        study(method="fourier")
    with pytest.raises(ValueError):
        study(n_trials=1)
    with pytest.raises(ValueError):
        study(calibration_delta_n=0.0)
    with pytest.raises(ValueError):
        study(native_points=8)
    with pytest.raises(ValueError):
        study(native_range_nm=(800.0, 500.0))


@pytest.mark.parametrize("key, value", [
    ("n_trials", 12.0), ("n_trials", True), ("native_points", 768.0), ("native_points", "768"),
    ("offset_snr_db", "x"), ("amplitude_snr_db", "x"), ("offset_snr_db", True),
    ("calibration_delta_n", "x"), ("calibration_delta_n", True),
])
def test_config_rejects_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=key):
        study(**{key: value})


def test_config_takes_numpy_numbers_and_no_floor():
    cfg = study(n_trials=np.int64(12), native_points=np.int32(768),
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


def test_response_distribution_is_deterministic():
    cfg = study(method="iaw", n_trials=10)
    first = response_distribution(cfg, 1e-3)
    second = response_distribution(cfg, 1e-3)
    assert first == second


def test_noiseless_blank_is_degenerate_for_lamp():
    cfg = study(sigma=0.0, n_trials=3)
    stats = response_distribution(cfg, 0.0)
    assert stats.mean == 0.0
    assert stats.std == 0.0
    assert stats.n_trials == 3


def test_iaw_blank_rectifies_noise():
    stats = response_distribution(study(method="iaw"), 0.0)
    assert stats.mean > 0.0
    assert stats.std > 0.0


def test_lamp_shifted_mean_matches_phase_prediction():
    cfg = study(n_trials=24)
    stats = response_distribution(cfg, 1e-3)
    assert stats.mean == pytest.approx(PHASE_PER_RIU * 1e-3, rel=0.05)


def test_gradient_delta_zero_when_ramp_disabled():
    cfg = study(method="iaw", n_trials=8, offset_snr_db=None)
    assert gradient_delta(cfg, "offset") == 0.0


def test_gradient_delta_pairs_out_white_noise():
    # With a vanishing white level the paired comparison must reduce to
    # the deterministic ramp penalty computed directly on clean spectra.
    cfg = study(method="iaw", sigma=1e-9, n_trials=6)
    reference, _, model = pass_inputs(cfg, 0.0, "offset")
    magnitude = model.offset_ramp_magnitude
    wl = cfg.wavelengths()
    t = (wl - wl[0]) / (wl[-1] - wl[0])
    ramped = Spectrum(wl, reference.reflectance + magnitude * t)
    expected = iaw(reference, ramped)
    assert gradient_delta(cfg, "offset") == pytest.approx(expected, rel=1e-6)
    # Zero-meaned ramp residue: mean |t - 1/2| over an even n-point grid
    # is n / (4 (n - 1)), the discrete form of the triangular-mean 1/4.
    n = cfg.native_points
    assert expected == pytest.approx(magnitude * n / (4.0 * (n - 1)), rel=1e-9)


def test_gradient_delta_rejects_none():
    with pytest.raises(ValueError):
        gradient_delta(study(), "none")


def test_lod_result_satisfies_detection_formula():
    result = lod_riu(study(n_trials=16), "offset")
    assert result.lod_riu == pytest.approx(
        3.3 * (result.sigma_blank + result.delta_g) / result.slope, rel=1e-12
    )
    assert result.slope > 0.0
    assert result.delta_g > 0.0
    assert result.linearity_ratio == pytest.approx(1.0, abs=0.1)


def test_lamp_slope_converts_phase_to_riu():
    result = lod_riu(study(n_trials=20))
    assert result.delta_g == 0.0
    assert result.slope == pytest.approx(PHASE_PER_RIU, rel=0.05)


def test_unresponsive_signal_raises_calibration_error():
    cfg = study(n_trials=4)
    dists = {(delta_n, gradient): {"lamp": type(
        "S", (), {"mean": 1.0 - 500.0 * delta_n, "std": 0.1}
    )()} for delta_n, gradient in lodstudy._lod_keys(cfg, ["none"])}

    with pytest.raises(CalibrationError, match="did not respond"):
        lodstudy._calibration(cfg, dists, "lamp")


def test_rectified_response_trips_linearity_guard():
    # The integrated-difference signal grows sub-linearly once the shift
    # is comparable to the noise floor, so the half-shift slope check
    # fires: a warning, never an error.
    cfg = study(method="iaw", n_trials=24)
    with pytest.warns(UserWarning, match="not linear"):
        lod_riu(cfg)


def test_study_error_when_trials_cannot_be_processed():
    # Processing range wider than the simulated data fails every trial.
    cfg = study(n_trials=8, lamp=LampConfig(range_nm=(400.0, 900.0)))
    with pytest.raises(StudyError, match="8 of 8 trials failed"):
        response_distribution(cfg, 0.0)


def test_blank_spread_agrees_across_seed_families():
    stds = []
    for seed in (101, 202):
        stats = response_distribution(study(method="iaw", seed=seed, n_trials=60), 0.0)
        stds.append(stats.std)
    # std-of-std law: relative standard error ~ 1/sqrt(2 n) per family
    combined = math.hypot(*stds) / math.sqrt(2 * 60)
    assert abs(stds[0] - stds[1]) < 5.0 * combined


def test_lod_scales_with_white_noise_for_linear_methods():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ("rifts", "lamp"):
            lods = [
                lod_riu(study(method=method, sigma=s, n_trials=60)).lod_riu
                for s in (0.002, 0.02)
            ]
            assert lods[1] / lods[0] == pytest.approx(10.0, rel=0.3)


def test_cramer_rao_bound_is_linear_in_white_sigma():
    bounds = [crlb_delta_n(study(sigma=s)) for s in (1e-3, 3e-3)]
    assert bounds[1] / bounds[0] == pytest.approx(3.0, rel=1e-9)
    # an S/N target resolves to the same sigma the study draws its noise with
    cfg = study()
    resolved = cfg.noise.white_sigma(simulate_reflectance(cfg.stack, cfg.wavelengths()))
    assert crlb_delta_n(study()) == pytest.approx(bounds[0] * resolved / 1e-3, rel=1e-12)


def test_cramer_rao_bound_falls_as_one_over_root_n():
    # four times the native samples over the same range: |dR/dn| grows by two
    coarse, dense = (crlb_delta_n(study(sigma=1e-3, native_points=n)) for n in (768, 4 * 768))
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


def test_gradient_rejected_outside_vocabulary():
    with pytest.raises(ValueError):
        response_distribution(study(), 0.0, gradient="ramp")
    with pytest.raises(ValueError):
        lod_riu(study(), gradient="tilt")


def test_noise_stack_rows_are_the_serial_trials():
    # row i of a stack is what add_noise gives trial i on its own
    cfg = study(n_trials=CHUNK_ROWS)
    _, clean, model = pass_inputs(cfg, 1e-3, "offset")
    seeds = [_trial_seed(cfg.noise.seed, i) for i in range(CHUNK_ROWS)]
    for row, seed in zip(noise_rows(clean, model, seeds), seeds):
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
    cfg = study(method=method, n_trials=100)
    flatten_trial(monkeypatch, cfg, 3)  # inside the first stack
    stats = response_distribution(cfg, 0.0)
    # the other 99 trials keep the signals they have when evaluated alone
    seeds = [_trial_seed(cfg.noise.seed, i) for i in range(100) if i != 3]
    reference, clean, model = pass_inputs(cfg, 0.0, "none")
    rows = noise_rows(clean, model, seeds)
    alone = np.array([lodstudy._evaluate(cfg, method, reference, row[None])[0] for row in rows])
    assert stats.n_trials == 99
    assert (stats.mean, stats.std) == (float(alone.mean()), float(alone.std(ddof=1)))


def test_domain_error_drops_its_trial_only_from_the_failing_methods(monkeypatch):
    # a flat row has no fringe peak for lamp or rifts; iaw still measures it
    cfg = study(n_trials=100)
    flatten_trial(monkeypatch, cfg, 3)
    shared = lodstudy._distributions(cfg, [(0.0, "none")], lodstudy.METHODS)[0.0, "none"]
    counts = {m: shared[m].n_trials for m in lodstudy.METHODS}
    assert counts == {"rifts": 99, "iaw": 100, "lamp": 99}
    for method in lodstudy.METHODS:  # evaluating the methods on shared stacks changes no value
        alone = response_distribution(replace(cfg, method=method), 0.0)
        assert shared[method] == alone


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


def test_pass_with_no_key_left_draws_no_white_rows(monkeypatch):
    # white noise at 27.7 dB cannot be topped up to a 40 dB floor: the pass's one ramp fails
    drawn = []

    def counted(*args):
        drawn.append(args)
        return white_rows(*args)

    monkeypatch.setattr(lodstudy, "white_rows", counted)
    cfg = study(n_trials=2 * CHUNK_ROWS, offset_snr_db=40.0)
    with pytest.raises(CalibrationError, match="white noise alone"):
        response_distribution(cfg, 0.0, "offset")
    assert drawn == []


def test_detection_limits_read_only_the_keys_of_their_one_pass(monkeypatch):
    # _lod_keys names every key that calibration and gradient_delta read: none is computed later;
    # gradient_delta alone computes its two keys in one pass
    one_cpu(monkeypatch)
    passes = []
    original = lodstudy._trial_signals

    def recorded(cfg, methods, reference, white_sigma, ramped, trials):
        passes.append((len(ramped), trials))
        return original(cfg, methods, reference, white_sigma, ramped, trials)

    monkeypatch.setattr(lodstudy, "_trial_signals", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lod_riu(study(n_trials=2 * CHUNK_ROWS), "offset")
    smoke_table()
    gradient_delta(study(n_trials=2 * CHUNK_ROWS), "amplitude")
    # (keys, trials): lod_riu's one pass, the table's, then gradient_delta's (ramp and blank)
    assert passes == [(4, range(16)), (5, range(16)), (2, range(16))]


def test_ramp_calibration_error_fails_that_column_of_every_method(monkeypatch):
    # white noise at 27.7 dB cannot be topped up to a 40 dB floor
    one_cpu(monkeypatch)
    report = smoke_table(offset_snr_db=40.0)
    assert set(report.failures) == {(m, "offset") for m in lodstudy.METHODS}
    messages = set(report.failures.values())
    assert len(messages) == 1 and "white noise alone" in messages.pop()


@pytest.mark.parametrize("method, module, stage", [("lamp", "lamp", "padded_peak_rows"),
                                                   ("rifts", "legacy", "padded_centre_rows")])
def test_bug_in_a_stage_propagates(monkeypatch, method, module, stage):
    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(importlib.import_module(f"fringelab.{module}"), stage, broken)
    with pytest.raises(TypeError, match="injected bug"):
        response_distribution(study(method=method, n_trials=CHUNK_ROWS), 0.0)


FORKS = lodstudy.forks(2 * CHUNK_ROWS, CHUNK_ROWS)
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
    assert not lodstudy.forks(n_trials, CHUNK_ROWS)


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
            response_distribution(cfg, 0.0)
        messages.append(str(info.value))
    assert len(set(messages)) == 1


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
    response_distribution(cfg, 0.0)
    trials = {side: [int(i) for i in (tmp_path / side).read_text().split()]
              for side in ("caller", "worker")}
    assert trials == {"caller": list(range(50)), "worker": list(range(50, 100))}


@pytest.mark.parametrize("n_trials", [CHUNK_ROWS, 2 * CHUNK_ROWS])
def test_lod_riu_warning_names_its_caller(monkeypatch, n_trials):
    monkeypatch.setattr(lodstudy, "LINEARITY_TOLERANCE", -1.0)
    with pytest.warns(UserWarning, match="iaw response is not linear") as record:
        lod_riu(study(method="iaw", n_trials=n_trials))
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
    monkeypatch.setattr(lodstudy, "fork_join", counted)
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
    lamp = LampConfig(range_nm=(400.0, 900.0))
    forked = smoke_table(lamp=lamp)
    assert set(forked.failures) == {("lamp", g) for g in lodstudy.GRADIENTS}
    one_cpu(monkeypatch)
    serial = smoke_table(lamp=lamp)
    assert forked.failures == serial.failures
    assert forked.to_dict() == serial.to_dict()
