"""Acceptance gate: one pass/fail line per criterion, at the stated tolerance.

Each test prints its verdict outside pytest's capture so the gate lines
always appear in the run log. Tolerances are stated in the line itself.
The Monte-Carlo matrix is computed once per module at 1000 trials.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from fringelab import (
    FilmStack,
    FoldOverError,
    LodStudyConfig,
    NoiseModel,
    PeakInfo,
    RedlichPetersonFit,
    Spectrum,
    add_noise,
    calibrate_ramp_magnitude,
    design_wavelet,
    dft,
    fit_redlich_peterson,
    iaw_nonlinearity_correction,
    lamp_signal,
    lamp_to_delta_eot,
    lod_concentration,
    model_eval,
    rifts_eot,
    run_table1,
    simulate_reflectance,
    white_sigma_for_target,
)
from fringelab.cli import main
from fringelab.isotherm import ConcentrationSeries
from fringelab.lodstudy import crlb_delta_n
from fringelab.wavegrid import WindowConfig

MASTER_SEED = 20260817
METHODS = ("rifts", "iaw", "lamp")
GRADIENTS = ("none", "offset", "amplitude")

# Reference detection limits (RIU) the simulated matrix is held against.
REFERENCE_LOD = {
    ("rifts", "none"): 8.2e-4,
    ("rifts", "offset"): 2.5e-3,
    ("rifts", "amplitude"): 8.9e-4,
    ("iaw", "none"): 3.9e-4,
    ("iaw", "offset"): 1.7e-3,
    ("iaw", "amplitude"): 1.9e-2,
    ("lamp", "none"): 5.7e-5,
    ("lamp", "offset"): 1.3e-4,
    ("lamp", "amplitude"): 7.4e-5,
}

# Reference assay rows: 3.3 sigma blank, isotherm parameters (uM), LOD nM.
REFERENCE_ASSAYS = {
    "transform peak": (1.62e-1, 8.78, 50.16, 0.24, 0.92, 3.24),
    "integrated difference": (1.00e-2, 0.32, 4.02, 0.37, 0.95, 2.50),
    "filtered phase": (1.85e-4, 0.08, 0.82, 0.47, 0.88, 0.22),
}

NATIVE_WAVELENGTHS = np.linspace(500.0, 800.0, 768)


def check(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def table1():
    cfg = LodStudyConfig(
        noise=NoiseModel(target_snr_db=27.7, seed=MASTER_SEED), n_trials=1000
    )
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_table1(cfg)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def reference():
    return simulate_reflectance(FilmStack(), NATIVE_WAVELENGTHS)


def shifted(delta_n: float):
    return simulate_reflectance(
        FilmStack().with_film_index_shift(delta_n), NATIVE_WAVELENGTHS
    )


# criterion 1: Monte-Carlo detection-limit matrix ---------------------------

def test_criterion_1a_filtered_phase_wins_every_column(table1, capsys):
    report, _ = table1
    winners = {
        g: min(METHODS, key=lambda m: report.lod(m, g)) for g in GRADIENTS
    }
    check(
        capsys,
        "criterion 1a",
        all(w == "lamp" for w in winners.values()),
        f"lowest LOD per drift column {winners} (want lamp in all three)",
    )


@pytest.mark.parametrize("method,gradient", list(REFERENCE_LOD))
def test_criterion_1b_cell_matches_reference(table1, capsys, method, gradient):
    report, _ = table1
    lod = report.lod(method, gradient)
    expected = REFERENCE_LOD[(method, gradient)]
    ratio = lod / expected
    band = max(ratio, 1.0 / ratio)
    check(
        capsys,
        f"criterion 1b [{method}/{gradient}]",
        band < 3.0,
        f"LOD {lod:.3e} RIU vs reference {expected:.1e} (x{ratio:.2f}, within x3)",
    )


def test_criterion_1c_degradation_pattern_and_runtime(table1, capsys):
    report, elapsed = table1
    iaw_off = report.lod("iaw", "offset") / report.lod("iaw", "none")
    iaw_amp = report.lod("iaw", "amplitude") / report.lod("iaw", "none")
    lamp_worst = max(
        report.lod("lamp", g) / report.lod("lamp", "none")
        for g in ("offset", "amplitude")
    )
    ok = iaw_off >= 3.0 and iaw_amp >= 10.0 and lamp_worst < 3.0 and elapsed < 300.0
    check(
        capsys,
        "criterion 1c",
        ok,
        f"iaw degrades x{iaw_off:.1f} (>=3) / x{iaw_amp:.1f} (>=10), "
        f"lamp worst x{lamp_worst:.2f} (<3), runtime {elapsed:.0f}s (<300s)",
    )


def test_none_column_respects_the_cramer_rao_bound(table1, capsys):
    # sigma_blank / slope is each method's delta_n scatter; no unbiased estimator
    # beats the bound, and lamp is within a few percent of it on white noise
    report, _ = table1
    bound = crlb_delta_n(
        LodStudyConfig(noise=NoiseModel(target_snr_db=27.7, seed=MASTER_SEED))
    )
    efficiency = {
        m: report.cells[(m, "none")].sigma_blank / report.cells[(m, "none")].slope / bound
        for m in METHODS
    }
    ok = min(efficiency.values()) >= 0.9 and efficiency["lamp"] <= 1.2
    check(
        capsys,
        "Cramér–Rao bound",
        ok,
        f"sigma_blank/slope over the bound {bound:.3e} RIU: "
        + ", ".join(f"{m} x{e:.2f}" for m, e in efficiency.items())
        + " (all >=0.9, lamp <=1.2)",
    )


# criterion 2: filtered-phase accuracy --------------------------------------

def test_criterion_2_phase_response_accuracy(reference, capsys):
    delta_n = 1e-3
    phase = lamp_signal(reference, shifted(delta_n))
    grid = WindowConfig()
    delta_eot = lamp_to_delta_eot(phase, grid)
    slope = phase / delta_n
    expected_slope = 4.0 * math.pi * 2400.0 * grid.mean_sigma
    ok = (
        abs(phase - 0.0490) / 0.0490 < 0.02
        and abs(delta_eot - 4.8) / 4.8 < 0.02
        and abs(slope - expected_slope) / expected_slope < 0.03
    )
    check(
        capsys,
        "criterion 2",
        ok,
        f"phase {phase:.5f} rad (0.0490 +-2%), dEOT {delta_eot:.3f} nm (4.8 +-2%), "
        f"slope {slope:.2f} rad/RIU ({expected_slope:.2f} +-3%)",
    )


# criterion 3: transform-peak accuracy ---------------------------------------

def test_criterion_3_transform_peak_thickness(reference, capsys):
    eot = rifts_eot(reference)
    delta = rifts_eot(shifted(0.01)) - eot
    ok = abs(eot - 5760.0) < 2.0 and abs(delta - 48.0) < 3.0
    check(
        capsys,
        "criterion 3",
        ok,
        f"EOT {eot:.2f} nm (5760 +-2), step {delta:.2f} nm for dn=0.01 (48 +-3)",
    )


# criterion 4: robustness ----------------------------------------------------

def test_criterion_4_drift_scale_and_foldover(reference, capsys):
    delta_n = 1e-3
    analyte = shifted(delta_n)
    base = lamp_signal(reference, analyte)

    white = white_sigma_for_target(reference, 27.7)
    magnitude = calibrate_ramp_magnitude(reference, "offset", 7.9, white_sigma=white)
    ramped = add_noise(
        analyte, NoiseModel(gaussian_sigma=0.0, offset_ramp_magnitude=magnitude, seed=0)
    )
    ramp_shift = abs(lamp_signal(reference, ramped) - base) / base

    scaled = Spectrum(analyte.wavelengths_nm, 3.7 * analyte.reflectance)
    scale_shift = abs(lamp_signal(reference, scaled) - base)

    try:
        iaw_nonlinearity_correction(FilmStack(), max_eot_percent=6.0)
        fold_detected = False
    except FoldOverError:
        fold_detected = True

    ok = ramp_shift < 0.05 and scale_shift < 1e-6 and fold_detected
    check(
        capsys,
        "criterion 4",
        ok,
        f"offset-drift shift {100 * ramp_shift:.3f}% (<5%), gain invariance "
        f"{scale_shift:.2e} rad (<1e-6), fold-over detected {fold_detected}",
    )


# criterion 5: spectral infrastructure ---------------------------------------

def test_criterion_5_transform_and_wavelet_fidelity(capsys):
    rng = np.random.default_rng(11)
    values = rng.normal(0.2, 0.05, 96)
    delta_sigma = 3.6e-7
    amplitudes = dft(values, delta_sigma)[1]
    k = np.arange(values.size)
    direct = np.array(
        [np.sum(values * np.exp(-2j * np.pi * m * k / values.size))
         for m in range(values.size // 2 + 1)]
    )
    dft_err = np.max(np.abs(amplitudes - direct))

    power_time = float(np.sum(values**2)) * values.size
    mags = np.abs(amplitudes) ** 2
    power_freq = float(mags[0] + 2.0 * mags[1:-1].sum() + mags[-1])
    parseval_err = abs(power_time - power_freq) / power_time

    grid = WindowConfig()
    peak = PeakInfo(center_frequency_nm=5760.0, fwhm_nm=150.0)
    wavelet = design_wavelet(peak, grid.delta_sigma)
    n_fft = 2**22
    response = np.abs(np.fft.fft(wavelet.samples, n_fft))
    freqs = np.fft.fftfreq(n_fft, d=wavelet.spacing)
    top = int(np.argmax(response))
    pipeline_bin = 1.0 / (2**21 * grid.delta_sigma)
    center_err = abs(freqs[top] - 5760.0)
    half = response[top] / 2.0
    above = np.flatnonzero(response >= half)
    fwhm = freqs[above.max()] - freqs[above.min()]
    fwhm_err = abs(fwhm - 150.0) / 150.0

    ok = (
        dft_err < 1e-9
        and parseval_err < 1e-9
        and center_err <= pipeline_bin
        and fwhm_err < 0.05
    )
    check(
        capsys,
        "criterion 5",
        ok,
        f"transform vs direct sum {dft_err:.1e} (<1e-9), energy balance "
        f"{parseval_err:.1e} (<1e-9), wavelet center off {center_err:.3f} nm "
        f"(<= {pipeline_bin:.3f} bin), response FWHM off {100 * fwhm_err:.2f}% (<5%)",
    )


# criterion 6: isotherm fitting ----------------------------------------------

def lamp_series(noise: bool, seed: int = 0, replicates: int = 16):
    true = RedlichPetersonFit(intercept=0.08, a=0.82, b=0.47, beta=0.88)
    rng = np.random.default_rng(seed)
    concentrations = np.geomspace(3e-6, 300.0, 7)
    groups = []
    variances = []
    for c in concentrations:
        theta = model_eval(true, c)
        sigma = 0.015 * theta + 5e-4
        if noise:
            groups.append(tuple(rng.normal(theta, sigma, replicates)))
            variances.append(None)
        else:
            groups.append((theta, theta))
            variances.append(sigma**2)
    return true, ConcentrationSeries.from_display(
        concentrations, groups, unit="uM",
        variances=variances if not noise else None,
    )


def test_criterion_6_isotherm_recovery_and_assay_limits(capsys):
    true, clean_series = lamp_series(noise=False)
    exact = fit_redlich_peterson(clean_series)
    exact_err = max(
        abs(exact.intercept - true.intercept) / true.intercept,
        abs(exact.a - true.a) / true.a,
        abs(exact.b - true.b) / true.b,
        abs(exact.beta - true.beta) / true.beta,
    )

    _, noisy_series = lamp_series(noise=True, seed=0)
    noisy = fit_redlich_peterson(noisy_series)
    noisy_err = max(
        abs(noisy.intercept - true.intercept) / true.intercept,
        abs(noisy.a - true.a) / true.a,
        abs(noisy.b - true.b) / true.b,
        abs(noisy.beta - true.beta) / true.beta,
    )
    chi2_ok = 0.5 < noisy.reduced_chi2 < 2.0

    lod_errors = {}
    for name, (floor, i0, a, b, beta, lod_nm) in REFERENCE_ASSAYS.items():
        fit = RedlichPetersonFit(intercept=i0, a=a, b=b, beta=beta)
        computed = lod_concentration(fit, floor) * 1e3
        lod_errors[name] = abs(computed - lod_nm) / lod_nm

    ok = (
        exact_err < 1e-6
        and noisy_err < 0.10
        and chi2_ok
        and all(err < 0.05 for err in lod_errors.values())
    )
    worst_lod = max(lod_errors.values())
    check(
        capsys,
        "criterion 6",
        ok,
        f"noiseless recovery {exact_err:.1e} (<1e-6), noisy recovery "
        f"{100 * noisy_err:.1f}% (<10%), chi2 {noisy.reduced_chi2:.2f} (0.5..2), "
        f"assay LODs off at most {100 * worst_lod:.1f}% (<5%)",
    )


# criterion 7: determinism ---------------------------------------------------

def test_criterion_7_seeded_runs_are_identical(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for target in (first, second):
        assert main(["simulate", "--seed", "77", "--out", str(target)]) == 0
    files_equal = first.read_bytes() == second.read_bytes()

    cfg = LodStudyConfig(
        noise=NoiseModel(target_snr_db=27.7, seed=MASTER_SEED), n_trials=100
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = [json.dumps(run_table1(cfg).to_dict()) for _ in range(2)]
    check(
        capsys,
        "criterion 7",
        files_equal and reports[0] == reports[1],
        f"repeated seeded simulation byte-identical {files_equal}, "
        f"repeated study report identical {reports[0] == reports[1]}",
    )


# criterion 8: randomized invariants -----------------------------------------

def test_criterion_8_property_suite_breadth(capsys):
    import test_properties

    cases = test_properties.N_CASES
    properties = [name for name in dir(test_properties) if name.startswith("test_")]
    ok = cases >= 1000 and len(properties) >= 5
    check(
        capsys,
        "criterion 8",
        ok,
        f"{len(properties)} randomized properties at {cases} cases each (>=1000)",
    )
