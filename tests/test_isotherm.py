"""Tests for isotherm fitting, concentration detection limits, and the
integrated-difference linearization."""

import numpy as np
import pytest

from fringelab import (
    ConcentrationGroup,
    ConcentrationSeries,
    FilmStack,
    FitError,
    FoldOverError,
    RedlichPetersonFit,
    SaturationError,
    Spectrum,
    fit_redlich_peterson,
    iaw,
    iaw_fold_limit_percent,
    iaw_nonlinearity_correction,
    lod_concentration,
    model_eval,
    reduced_chi_squared,
    simulate_reflectance,
)
from fringelab import isotherm

LAMP_ROW = RedlichPetersonFit(intercept=0.08, a=0.82, b=0.47, beta=0.88)
CONCENTRATIONS_UM = np.logspace(np.log10(3e-6), np.log10(300.0), 7)
# (3.3 sigma_blank, I, a, b, beta) with concentrations in micromolar, then the
# reported LOD (uM) and its tolerance
ASSAY_ROWS = {
    "transform peak": (1.62e-1, 8.78, 50.16, 0.24, 0.92, 3.24e-3, 0.02),
    "integrated difference": (1.00e-2, 0.32, 4.02, 0.37, 0.95, 2.50e-3, 0.05),
    "filtered phase": (1.85e-4, 0.08, 0.82, 0.47, 0.88, 2.2e-4, 0.05),
}


def synthetic_series(true_fit, seed=0, replicates=16, noise=True):
    rng = np.random.default_rng(seed)
    groups = []
    for c in CONCENTRATIONS_UM:
        theta = model_eval(true_fit, c)
        if noise:
            sigma = 0.015 * theta + 5e-4
            groups.append(theta + sigma * rng.standard_normal(replicates))
        else:
            groups.append([theta] * replicates)
    variances = None if noise else [1.0] * len(CONCENTRATIONS_UM)
    return ConcentrationSeries.from_display(
        CONCENTRATIONS_UM, groups, unit="uM", variances=variances
    )


def test_model_returns_intercept_at_zero():
    assert model_eval(LAMP_ROW, 0.0) == 0.08
    flat = RedlichPetersonFit(intercept=1.5, a=2.0, b=3.0, beta=0.0)
    assert model_eval(flat, 0.0) == 1.5
    values = model_eval(LAMP_ROW, np.array([0.0, 0.0]))
    assert values.tolist() == [0.08, 0.08]


def test_model_reduces_to_langmuir_at_unit_beta():
    fit = RedlichPetersonFit(intercept=0.3, a=1.7, b=0.9, beta=1.0)
    c = np.array([1e-4, 0.03, 1.0, 40.0])
    langmuir = 0.3 + 1.7 * c / (1.0 + 0.9 * c)
    np.testing.assert_allclose(model_eval(fit, c), langmuir, rtol=1e-14)


def test_model_spot_value():
    # 0.08 + 0.82 / 1.47
    assert model_eval(LAMP_ROW, 1.0) == pytest.approx(0.08 + 0.82 / 1.47, rel=1e-12)


def test_model_is_nondecreasing():
    c = np.linspace(0.0, 100.0, 4001)
    for beta in (0.0, 0.35, 0.88, 1.0):
        fit = RedlichPetersonFit(intercept=-0.2, a=1.3, b=0.6, beta=beta)
        theta = model_eval(fit, c)
        assert np.all(np.diff(theta) >= -1e-12)


def test_model_rejects_negative_concentration():
    with pytest.raises(ValueError):
        model_eval(LAMP_ROW, -1.0)


def test_series_validation():
    good = ConcentrationGroup(1e-6, (0.1, 0.2))
    with pytest.raises(ValueError):
        ConcentrationGroup(-1e-6, (0.1, 0.2))
    with pytest.raises(ValueError, match="replicates"):
        ConcentrationGroup(1e-6, (0.1,))
    assert ConcentrationGroup(1e-6, (0.1,), variance=0.01).sample_variance() == 0.01
    with pytest.raises(ValueError, match="ascending"):
        ConcentrationSeries(groups=(good, good))
    with pytest.raises(ValueError, match="unit"):
        ConcentrationSeries(groups=(good,), display_unit="mol")


def test_fit_requires_four_groups():
    series = ConcentrationSeries.from_display(
        [0.1, 1.0, 10.0], [[0.1, 0.11]] * 3, unit="uM"
    )
    with pytest.raises(ValueError, match="4"):
        fit_redlich_peterson(series)


def test_noiseless_recovery_is_exact():
    series = synthetic_series(LAMP_ROW, noise=False, replicates=2)
    fit = fit_redlich_peterson(series)
    assert fit.intercept == pytest.approx(LAMP_ROW.intercept, rel=1e-6)
    assert fit.a == pytest.approx(LAMP_ROW.a, rel=1e-6)
    assert fit.b == pytest.approx(LAMP_ROW.b, rel=1e-6)
    assert fit.beta == pytest.approx(LAMP_ROW.beta, rel=1e-6)
    assert fit.reduced_chi2 == pytest.approx(0.0, abs=1e-12)


def test_noisy_recovery_within_ten_percent():
    series = synthetic_series(LAMP_ROW, seed=0)
    fit = fit_redlich_peterson(series)
    assert fit.intercept == pytest.approx(LAMP_ROW.intercept, rel=0.10)
    assert fit.a == pytest.approx(LAMP_ROW.a, rel=0.10)
    assert fit.b == pytest.approx(LAMP_ROW.b, rel=0.10)
    assert fit.beta == pytest.approx(LAMP_ROW.beta, rel=0.10)
    assert 0.5 < fit.reduced_chi2 < 2.0
    assert fit.covariance is not None


def test_langmuir_boundary_recovery():
    true = RedlichPetersonFit(intercept=0.1, a=2.0, b=0.5, beta=1.0)
    series = synthetic_series(true, seed=3)
    fit = fit_redlich_peterson(series)
    assert fit.beta >= 0.97


def test_zero_variance_groups_fall_back_to_pooled():
    base = synthetic_series(LAMP_ROW, seed=4, replicates=4)
    flattened = ConcentrationSeries(
        groups=(
            ConcentrationGroup(base.groups[0].concentration, (base.groups[0].mean(),) * 4),
        ) + base.groups[1:],
        display_unit=base.display_unit,
    )
    with pytest.warns(UserWarning, match="pooled"):
        fit_redlich_peterson(flattened)


def test_all_degenerate_variances_fall_back_to_unweighted():
    groups = [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.35, 0.35], [0.38, 0.38]]
    series = ConcentrationSeries.from_display(
        [0.01, 0.1, 1.0, 10.0, 100.0], groups, unit="uM"
    )
    with pytest.warns(UserWarning, match="unweighted"):
        fit_redlich_peterson(series)


def test_fit_error_names_every_failed_start(monkeypatch):
    monkeypatch.setattr(isotherm, "_residuals", lambda params, c, y, sigma: np.full_like(y, np.nan))
    with pytest.raises(FitError, match="no fit start converged") as raised:
        fit_redlich_peterson(synthetic_series(LAMP_ROW, seed=0))
    message = str(raised.value)
    assert [f"start beta={beta:.2f}: non-finite cost" in message
            for beta in isotherm.BETA_STARTS] == [True] * 5


def test_a_fault_in_the_model_propagates_instead_of_failing_a_start(monkeypatch):
    def broken(params, c, y, sigma):
        raise ZeroDivisionError("model fault")

    monkeypatch.setattr(isotherm, "_residuals", broken)
    with pytest.raises(ZeroDivisionError, match="model fault"):
        fit_redlich_peterson(synthetic_series(LAMP_ROW, seed=0))


def scipy_trf_fit(series):
    """The bounded fit by scipy's trust-region-reflective solver, from the same starts."""
    from scipy.optimize import least_squares  # the reference; fringelab itself never imports it
    counts = [len(g.responses) for g in series.groups]
    c = np.repeat(series.display_concentrations(), counts)
    y = np.concatenate([g.responses for g in series.groups])
    sigma = np.repeat([np.sqrt(g.sample_variance()) for g in series.groups], counts)

    def residuals(p):
        fit = RedlichPetersonFit(intercept=p[0], a=p[1], b=p[2], beta=min(max(p[3], 0.0), 1.0))
        return (y - model_eval(fit, c)) / sigma

    bounds = ([-np.inf, 0.0, 0.0, 0.0], [np.inf, np.inf, np.inf, 1.0])
    return min((least_squares(residuals, x0, bounds=bounds, method="trf", x_scale="jac",
                              max_nfev=5000)
                for x0 in isotherm._starting_points(series)), key=lambda result: result.cost)


@pytest.mark.parametrize("true_beta", [0.5, 0.88, 1.0])
def test_fit_matches_scipy_trf_reference(true_beta):
    # true beta = 1 puts the optimum on or near the bound, where clipping alone stalls
    true = RedlichPetersonFit(intercept=0.08, a=0.82, b=0.47, beta=true_beta)
    for seed in range(10):
        series = synthetic_series(true, seed=seed)
        fit = fit_redlich_peterson(series)
        reference = scipy_trf_fit(series)
        cost = 0.5 * fit.reduced_chi2 * (series.n_points() - 4)
        assert cost <= reference.cost * (1.0 + 1e-9), seed
        np.testing.assert_allclose([fit.intercept, fit.a, fit.b, fit.beta], reference.x,
                                   rtol=1e-6, err_msg=f"seed {seed}")


def test_fit_wastes_few_residual_evaluations(monkeypatch):
    # Nielsen's damping: 106 residual evaluations against 73 Jacobians over the five starts,
    # where dividing and multiplying the damping by 10 took 162 against 94
    calls, residuals = [], isotherm._residuals
    monkeypatch.setattr(isotherm, "_residuals", lambda *args: calls.append(1) or residuals(*args))
    fit_redlich_peterson(synthetic_series(LAMP_ROW, seed=0))
    assert len(calls) <= 110


def test_lod_matches_scipy_brentq_reference():
    from scipy.optimize import brentq  # the reference; fringelab itself never imports it
    rng = np.random.default_rng(5)
    cases = [(RedlichPetersonFit(intercept=i0, a=a, b=b, beta=beta), floor)
             for floor, i0, a, b, beta, _, _ in ASSAY_ROWS.values()]
    for _ in range(50):
        fit = RedlichPetersonFit(intercept=rng.normal(), a=10 ** rng.uniform(-1, 2),
                                 b=10 ** rng.uniform(-2, 1), beta=rng.uniform(0.3, 1.0))
        # a threshold below the Langmuir cap a / b, which binds at beta = 1
        cases.append((fit, rng.uniform(0.01, 0.9) * fit.a / fit.b))
    for fit, floor in cases:
        low = floor / fit.a
        high = low
        while model_eval(fit, high) - fit.intercept < floor:
            high *= 2.0
        expected = brentq(lambda c: model_eval(fit, c) - fit.intercept - floor, low, high,
                          rtol=1e-9)
        assert lod_concentration(fit, floor) == pytest.approx(expected, rel=1e-8)


def test_fit_scales_linearly_with_response_units():
    series = synthetic_series(LAMP_ROW, seed=1)
    scaled = ConcentrationSeries(
        groups=tuple(
            ConcentrationGroup(g.concentration, tuple(5.0 * r for r in g.responses))
            for g in series.groups
        ),
        display_unit=series.display_unit,
    )
    base = fit_redlich_peterson(series)
    big = fit_redlich_peterson(scaled)
    assert big.intercept == pytest.approx(5.0 * base.intercept, rel=1e-4)
    assert big.a == pytest.approx(5.0 * base.a, rel=1e-4)
    assert big.b == pytest.approx(base.b, rel=1e-4)
    assert big.beta == pytest.approx(base.beta, rel=1e-4)
    assert big.reduced_chi2 == pytest.approx(base.reduced_chi2, rel=1e-6)


def test_equal_supplied_variances_match_unit_weights():
    series = synthetic_series(LAMP_ROW, seed=2)
    constant = ConcentrationSeries(
        groups=tuple(
            ConcentrationGroup(g.concentration, g.responses, variance=0.25)
            for g in series.groups
        ),
        display_unit=series.display_unit,
    )
    unit = ConcentrationSeries(
        groups=tuple(
            ConcentrationGroup(g.concentration, g.responses, variance=1.0)
            for g in series.groups
        ),
        display_unit=series.display_unit,
    )
    a = fit_redlich_peterson(constant)
    b = fit_redlich_peterson(unit)
    assert a.intercept == pytest.approx(b.intercept, rel=1e-6)
    assert a.a == pytest.approx(b.a, rel=1e-6)
    assert a.b == pytest.approx(b.b, rel=1e-6)
    assert a.beta == pytest.approx(b.beta, rel=1e-6)


def test_reduced_chi_squared_definition():
    fit = RedlichPetersonFit(intercept=0.1, a=1.0, b=0.2, beta=0.9)
    groups = []
    conc = [0.01, 0.1, 1.0, 10.0, 100.0]
    for c in conc:
        sigma = 0.1 + 0.01 * c
        theta = model_eval(fit, c)
        groups.append(
            ConcentrationGroup(
                c * 1e-6, (theta + sigma, theta + sigma), variance=sigma**2
            )
        )
    series = ConcentrationSeries(groups=tuple(groups), display_unit="uM")
    # every whitened residual is exactly 1 -> N / (N - 4)
    assert reduced_chi_squared(fit, series) == pytest.approx(10.0 / 6.0, rel=1e-12)


def test_reduced_chi_squared_requires_extra_points():
    fit = RedlichPetersonFit(intercept=0.0, a=1.0, b=0.0, beta=1.0)
    series = ConcentrationSeries.from_display(
        [1.0, 10.0], [[1.0, 1.1], [2.0, 2.1]], unit="uM"
    )
    with pytest.raises(ValueError, match="undefined"):
        reduced_chi_squared(fit, series)


def test_perfect_fit_has_zero_chi_squared():
    series = synthetic_series(LAMP_ROW, noise=False, replicates=2)
    assert reduced_chi_squared(LAMP_ROW, series) == 0.0


def test_lod_closed_form_for_linear_model():
    fit = RedlichPetersonFit(intercept=0.4, a=2.5, b=0.0, beta=0.7)
    assert lod_concentration(fit, 0.05) == 0.05 / 2.5


def test_lod_reproduces_reported_assay_limits():
    for noise_floor, intercept, a, b, beta, expected, tol in ASSAY_ROWS.values():
        fit = RedlichPetersonFit(intercept=intercept, a=a, b=b, beta=beta)
        assert lod_concentration(fit, noise_floor) == pytest.approx(expected, rel=tol)


def test_lod_bisection_ends_on_a_subnormal_bracket():
    fit = RedlichPetersonFit(intercept=0.0, a=1.0, b=1.0, beta=0.5)
    assert lod_concentration(fit, 1e-315) == pytest.approx(1e-315, rel=1e-8)


def test_lod_increases_with_threshold():
    lods = [lod_concentration(LAMP_ROW, s) for s in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(a < b for a, b in zip(lods, lods[1:]))


def test_lod_solution_satisfies_model():
    c = lod_concentration(LAMP_ROW, 0.05)
    assert model_eval(LAMP_ROW, c) == pytest.approx(LAMP_ROW.intercept + 0.05, rel=1e-8)


def test_lod_saturation_detected_for_langmuir():
    fit = RedlichPetersonFit(intercept=0.0, a=1.0, b=0.5, beta=1.0)
    with pytest.raises(SaturationError, match="saturation"):
        lod_concentration(fit, 2.0)  # rise cap is a/b = 2.0


def test_lod_input_validation():
    with pytest.raises(ValueError):
        lod_concentration(LAMP_ROW, 0.0)
    flat = RedlichPetersonFit(intercept=0.0, a=0.0, b=0.1, beta=0.5)
    with pytest.raises(ValueError, match="increasing"):
        lod_concentration(flat, 0.1)


def test_fold_limit_arithmetic():
    # half a fringe period at the band's mean wavenumber, as a percent of 2nL
    sigma_bar = (1.0 / 500.0 + 1.0 / 800.0) / 2.0
    expected = 100.0 * (0.5 / sigma_bar) / 5760.0
    assert iaw_fold_limit_percent(FilmStack()) == pytest.approx(expected, rel=1e-12)


def test_correction_linearizes_simulated_sweep():
    stack = FilmStack()
    correction = iaw_nonlinearity_correction(stack, max_eot_percent=4.0)
    wavelengths = np.linspace(500.0, 800.0, 768)
    reference = simulate_reflectance(stack, wavelengths)
    percents = np.linspace(0.0, 4.0, 25)
    raw = np.array([
        iaw(reference, simulate_reflectance(
            stack.with_film_index_shift(stack.film_index * p / 100.0), wavelengths))
        for p in percents
    ])
    linear = correction.linear_slope * percents
    span = correction.linear_slope * percents[-1]
    raw_rms = np.sqrt(np.mean((raw - linear) ** 2)) / span
    fixed_rms = np.sqrt(np.mean((correction.correct(raw, percents) - linear) ** 2)) / span
    assert raw_rms > 0.04  # the sweep is visibly sub-linear before correction
    assert fixed_rms < 0.02


def test_correction_vanishes_for_tiny_sweep():
    correction = iaw_nonlinearity_correction(FilmStack(), max_eot_percent=1e-3)
    x = np.linspace(0.0, 1e-3, 11)
    relative = np.abs(correction.deviation(x)) / (correction.linear_slope * 1e-3)
    assert np.max(relative) < 1e-3


def test_correction_rejects_sweep_past_fold():
    with pytest.raises(FoldOverError, match="free spectral range"):
        iaw_nonlinearity_correction(FilmStack(), max_eot_percent=6.0)


def test_correction_validation():
    with pytest.raises(ValueError):
        iaw_nonlinearity_correction(FilmStack(), max_eot_percent=0.0)
    with pytest.raises(ValueError):
        iaw_nonlinearity_correction(FilmStack(), max_eot_percent=1.0, n_sweep=3)
