"""Tests for the Monte-Carlo detection-limit engine."""

import importlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fringelab.lodstudy as lodstudy
from fringelab import (
    CalibrationError,
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
)
from fringelab.filmsim import noise_rows
from fringelab.lodstudy import CHUNK_ROWS, _StudyEngine, _trial_seed

# Mean phase advance of the default film for a 1e-3 index shift:
# 4*pi*L*sigma_bar with L = 2400 nm and sigma_bar = (1/500 + 1/800)/2.
PHASE_PER_RIU = 4.0 * math.pi * 2400.0 * ((1.0 / 500.0 + 1.0 / 800.0) / 2.0)


def study(method="lamp", sigma=None, snr_db=27.7, seed=11, n_trials=12, **kw):
    if sigma is not None:
        noise = NoiseModel(gaussian_sigma=sigma, seed=seed)
    else:
        noise = NoiseModel(target_snr_db=snr_db, seed=seed)
    return LodStudyConfig(noise=noise, method=method, n_trials=n_trials, **kw)


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
    engine = _StudyEngine(cfg)
    magnitude = engine.ramp_magnitude("offset")
    wl = cfg.wavelengths()
    t = (wl - wl[0]) / (wl[-1] - wl[0])
    ramped = Spectrum(wl, engine.reference.reflectance + magnitude * t)
    expected = iaw(engine.reference, ramped)
    assert gradient_delta(cfg, "offset", engine) == pytest.approx(expected, rel=1e-6)
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
    engine = _StudyEngine(study(n_trials=4))
    engine.distribution = lambda delta_n, gradient: type(
        "S", (), {"mean": 1.0 - 500.0 * delta_n, "std": 0.1}
    )()
    from fringelab.lodstudy import _lod_from_engine

    with pytest.raises(CalibrationError, match="did not respond"):
        _lod_from_engine(engine, "none")


def test_rectified_response_trips_linearity_guard():
    # The integrated-difference signal grows sub-linearly once the shift
    # is comparable to the noise floor, so the half-shift slope check
    # fires: a warning by default, an error in strict mode.
    cfg = study(method="iaw", n_trials=24)
    with pytest.warns(UserWarning, match="not linear"):
        lod_riu(cfg)
    with pytest.raises(CalibrationError, match="not linear"):
        lod_riu(replace(cfg, strict_linearity=True))


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
    engine = _StudyEngine(study(n_trials=CHUNK_ROWS))
    clean, model = engine.clean_analyte(1e-3), engine._noise_model("offset")
    seeds = [_trial_seed(engine.cfg.noise.seed, i) for i in range(CHUNK_ROWS)]
    for row, seed in zip(noise_rows(clean, model, seeds), seeds):
        np.testing.assert_array_equal(row, add_noise(clean, replace(model, seed=seed)).reflectance)


def flatten_trial(monkeypatch, cfg, index):
    """Make the study's noisy row for trial index featureless (no fringe peak)."""
    target = _trial_seed(cfg.noise.seed, index)

    def flattened(clean, model, seeds):
        rows = noise_rows(clean, model, seeds)
        if target in seeds:
            rows[seeds.index(target)] = 0.2
        return rows

    monkeypatch.setattr(lodstudy, "noise_rows", flattened)


@pytest.mark.parametrize("method", ["lamp", "rifts"])
def test_domain_error_drops_only_its_row(monkeypatch, method):
    cfg = study(method=method, n_trials=100)
    flatten_trial(monkeypatch, cfg, 3)  # inside the first stack
    engine = _StudyEngine(cfg)
    stats = engine.distribution(0.0, "none")
    # the other 99 trials keep the signals they have when evaluated alone
    seeds = [_trial_seed(cfg.noise.seed, i) for i in range(100) if i != 3]
    rows = noise_rows(engine.clean_analyte(0.0), engine._noise_model("none"), seeds)
    alone = np.array([engine._evaluate(row[None])[0] for row in rows])
    assert stats.n_trials == 99
    assert (stats.mean, stats.std) == (float(alone.mean()), float(alone.std(ddof=1)))


def test_domain_error_is_counted_with_its_trial_index(monkeypatch):
    cfg = study(n_trials=16)
    flatten_trial(monkeypatch, cfg, 11)  # inside the second stack
    with pytest.raises(StudyError, match=r"1 of 16 trials failed .*first failure: trial 11: "):
        response_distribution(cfg, 0.0)


@pytest.mark.parametrize("method, module", [("lamp", "lamp"), ("rifts", "legacy")])
def test_bug_in_a_stage_propagates(monkeypatch, method, module):
    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(importlib.import_module(f"fringelab.{module}"), "padded_peak_rows", broken)
    with pytest.raises(TypeError, match="injected bug"):
        response_distribution(study(method=method, n_trials=CHUNK_ROWS), 0.0)
