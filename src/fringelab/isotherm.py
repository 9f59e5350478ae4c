"""Adsorption-isotherm fitting and concentration-domain detection limits.

The response of a sensor surface to an analyte concentration C follows the
Redlich-Peterson form theta(C) = I + A C / (1 + B C^beta) with beta in
[0, 1] (the Langmuir isotherm at beta = 1). Fitting is variance-weighted
nonlinear least squares over replicate groups by bounded Levenberg-Marquardt;
the detection limit, found by bisection, is the concentration where the
fitted curve rises a given amount above its own intercept. A separate helper
linearizes integrated-difference responses, whose raw output folds over once
a shift exceeds half the free spectral range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, FoldOverError, SaturationError
from .filmsim import FilmStack, NativeGrid, check_float, simulate_reflectance
from .legacy import iaw
from .wavegrid import WindowConfig

# Concentration units a series may be given in; its groups keep that unit.
UNITS = ("M", "mM", "uM", "nM", "pM")

N_PARAMETERS = 4  # intercept, a, b, beta
LOWER = np.array([-np.inf, 0.0, 0.0, 0.0])
UPPER = np.array([np.inf, np.inf, np.inf, 1.0])
BETA_STARTS = (0.2, 0.5, 0.8, 0.95, 1.0)
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class ConcentrationGroup:
    """Replicate responses measured at one equilibrium concentration.

    concentration is in its series' unit. variance, when supplied, overrides
    the replicate sample variance for weighting.
    """

    concentration: float
    responses: tuple
    variance: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(float(r) for r in self.responses))
        check_float("concentration", self.concentration)
        if self.concentration < 0:
            raise ValueError("concentrations must be non-negative")
        if not all(math.isfinite(r) for r in self.responses):
            raise ValueError("responses must be finite")
        if len(self.responses) < 2 and self.variance is None:
            raise ValueError("need >= 2 replicates per group or a supplied variance")
        check_float("variance", self.variance, optional=True)
        if self.variance is not None and self.variance < 0:
            raise ValueError("supplied variance must be non-negative")

    def mean(self) -> float:
        return float(np.mean(self.responses))

    def sample_variance(self) -> float:
        if self.variance is not None:
            return float(self.variance)
        return float(np.var(self.responses, ddof=1))


@dataclass(frozen=True)
class ConcentrationSeries:
    """Ascending concentration groups, all in display_unit, the unit the fit is made in."""

    groups: tuple
    display_unit: str = "uM"

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.display_unit not in UNITS:
            raise ValueError(f"unknown unit {self.display_unit!r}; use one of {sorted(UNITS)}")
        conc = [g.concentration for g in self.groups]
        if any(b <= a for a, b in zip(conc, conc[1:])):
            raise ValueError("group concentrations must be strictly ascending")

    @classmethod
    def from_display(cls, concentrations, response_groups, unit: str = "uM",
                     variances=None) -> "ConcentrationSeries":
        """Build a series from concentrations expressed in unit, which its groups keep."""
        if variances is None:
            variances = [None] * len(concentrations)
        groups = tuple(
            ConcentrationGroup(c, tuple(r), v)
            for c, r, v in zip(concentrations, response_groups, variances)
        )
        return cls(groups=groups, display_unit=unit)

    def display_concentrations(self) -> np.ndarray:
        return np.array([g.concentration for g in self.groups])

    def n_points(self) -> int:
        return sum(len(g.responses) for g in self.groups)


@dataclass(frozen=True)
class RedlichPetersonFit:
    """Fitted isotherm theta(C) = intercept + a C / (1 + b C^beta).

    Parameter units follow the concentration unit the fit was performed
    in: a carries signal per concentration, b carries concentration^-beta.
    """

    intercept: float
    a: float
    b: float
    beta: float
    reduced_chi2: float | None = None
    covariance: tuple | None = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.b < 0:
            raise ValueError("b must be non-negative")


def model_eval(fit: RedlichPetersonFit, concentration):
    """Evaluate the isotherm at one or many concentrations (>= 0).

    C = 0 returns the intercept exactly: the numerator vanishes, so the
    0^beta corner never contributes.
    """
    c = np.asarray(concentration, dtype=float)
    if np.any(c < 0):
        raise ValueError("concentrations must be non-negative")
    positive = c > 0
    powered = np.zeros_like(c)
    np.power(c, fit.beta, where=positive, out=powered)
    theta = fit.intercept + fit.a * c / (1.0 + fit.b * powered)
    if np.isscalar(concentration) or np.ndim(concentration) == 0:
        return float(theta)
    return theta


def _replicates(series: ConcentrationSeries):
    """Each replicate's display-unit concentration, response and weighting sigma.

    Zero or non-finite group variances fall back to the pooled variance of
    the healthy groups; if no group has usable spread, weights collapse to
    unity. Both fallbacks warn, since they change the estimator.
    """
    variances = np.array([g.sample_variance() for g in series.groups])
    usable = np.isfinite(variances) & (variances > 0)
    if not usable.all():
        if usable.any():
            pooled = float(variances[usable].mean())
            warnings.warn("zero-variance concentration groups weighted by the pooled variance",
                          stacklevel=3)
            variances = np.where(usable, variances, pooled)
        else:
            warnings.warn("no usable group variances; falling back to unweighted residuals",
                          stacklevel=3)
            variances = np.ones_like(variances)
    counts = [len(g.responses) for g in series.groups]
    return (np.repeat(series.display_concentrations(), counts),
            np.concatenate([g.responses for g in series.groups]),
            np.repeat(np.sqrt(variances), counts))


def _residuals(params, c, y, sigma):
    intercept, a, b, beta = params
    return (y - model_eval(RedlichPetersonFit(intercept, a, b, beta), c)) / sigma


def _jacobian(params, c, sigma):
    """d residual / d (intercept, a, b, beta); all but the first column vanish at C = 0."""
    _, a, b, beta = params
    powered = np.power(c, beta, where=c > 0, out=np.zeros_like(c))
    log_c = np.log(c, where=c > 0, out=np.zeros_like(c))
    d = 1.0 + b * powered
    rise = a * c * powered / d**2
    return np.column_stack([np.ones_like(c), c / d, -rise, -b * rise * log_c]) / -sigma[:, None]


def _levenberg_marquardt(x, c, y, sigma):
    """Minimise |_residuals|^2 / 2 from x inside the bounds; returns (x, cost).

    Marquardt's damping is scaled by the running maximum of diag(J^T J); the
    trial point is clipped to the bounds, and a parameter on a bound whose
    gradient points outward is held for that step. The damping follows
    Nielsen's rule (Madsen, Nielsen & Tingleff 2004, sec. 3.2): an accepted
    step scales it by max(1/3, 1 - (2 rho - 1)^3), rho being the cost's drop
    over the drop the damped linear model predicts for the unclipped step,
    and rejected steps multiply it by 2, 4, 8, ...
    """
    r = _residuals(x, c, y, sigma)
    cost, damping, growth, scale = 0.5 * r @ r, 1e-3, 2.0, np.zeros_like(x)
    for _ in range(MAX_ITERATIONS):
        jac = _jacobian(x, c, sigma)
        gradient, curvature = jac.T @ r, jac.T @ jac
        scale = np.maximum(scale, np.diag(curvature))
        held = ((x <= LOWER) & (gradient > 0)) | ((x >= UPPER) & (gradient < 0))
        gradient[held] = curvature[held] = curvature[:, held] = 0.0
        while True:
            step = np.linalg.solve(curvature + damping * np.diag(scale), -gradient)
            trial = np.clip(x + step, LOWER, UPPER)
            r_trial = _residuals(trial, c, y, sigma)
            cost_trial = 0.5 * r_trial @ r_trial
            if cost_trial < cost:
                break
            damping, growth = damping * growth, 2.0 * growth
            if cost_trial <= cost * (1.0 + 1e-15) or damping > 1e16:
                return x, cost  # no lower cost is representable, or none within reach
        rho = (cost - cost_trial) / (0.5 * step @ (damping * scale * step - gradient))
        damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        x, r, cost, growth = trial, r_trial, cost_trial, 2.0
    return x, cost


def _starting_points(series: ConcentrationSeries):
    conc = series.display_concentrations()
    means = np.array([g.mean() for g in series.groups])
    intercept0 = means[0]
    positive = conc[conc > 0]
    c_ref = float(np.median(positive))
    c_top = float(positive[-1])
    top_rise = max(means[-1] - intercept0, 1e-12 * max(abs(means[-1]), 1.0))
    for beta0 in BETA_STARTS:
        b0 = 1.0 / c_ref**beta0
        a0 = top_rise * (1.0 + b0 * c_top**beta0) / c_top
        yield np.array([intercept0, a0, b0, beta0])


def fit_redlich_peterson(series: ConcentrationSeries) -> RedlichPetersonFit:
    """Variance-weighted least-squares fit of the four isotherm parameters.

    Each replicate contributes (y - theta(C)) / sigma_group. A bounded
    Levenberg-Marquardt solver runs from several beta starting values and
    the lowest-cost solution wins; concentrations enter in the series'
    display unit, so the returned a and b are scaled to that unit.
    """
    if len(series.groups) < N_PARAMETERS:
        raise ValueError(f"need at least {N_PARAMETERS} concentration groups")
    if not any(g.concentration > 0 for g in series.groups):
        raise ValueError("need at least one positive concentration")
    c, y, sigma = _replicates(series)
    best, diagnostics = (None, np.inf), []
    for x0 in _starting_points(series):
        try:
            x, cost = _levenberg_marquardt(x0, c, y, sigma)
        except np.linalg.LinAlgError as exc:
            diagnostics.append(f"start beta={x0[3]:.2f}: {exc}")
            continue
        if not np.isfinite(cost):
            diagnostics.append(f"start beta={x0[3]:.2f}: non-finite cost")
        elif cost < best[1]:
            best = x, cost
    if best[0] is None:
        raise FitError("no fit start converged: " + "; ".join(diagnostics))
    (intercept, a, b, beta), cost = best
    n_points = series.n_points()
    reduced = 2.0 * cost / (n_points - N_PARAMETERS) if n_points > N_PARAMETERS else None
    jac = _jacobian(best[0], c, sigma)
    try:
        covariance = tuple(map(tuple, np.linalg.inv(jac.T @ jac)))
    except np.linalg.LinAlgError:
        covariance = None
    return RedlichPetersonFit(intercept=float(intercept), a=float(a), b=float(b),
                              beta=float(beta), reduced_chi2=reduced, covariance=covariance)


def reduced_chi_squared(fit: RedlichPetersonFit, series: ConcentrationSeries) -> float:
    """Weighted residual sum over (points - parameters) degrees of freedom."""
    n_points = series.n_points()
    if n_points <= N_PARAMETERS:
        raise ValueError(
            f"reduced chi-squared undefined for {n_points} points and "
            f"{N_PARAMETERS} parameters"
        )
    c, y, sigma = _replicates(series)
    residuals = _residuals((fit.intercept, fit.a, fit.b, fit.beta), c, y, sigma)
    return float(np.sum(residuals**2) / (n_points - N_PARAMETERS))


def lod_concentration(fit: RedlichPetersonFit, three_sigma_blank: float) -> float:
    """Concentration where the fitted curve exceeds its intercept by the noise floor.

    Solves theta(C) = intercept + three_sigma_blank on the monotone branch:
    the bracket doubles from the linear model's crossing until the curve
    reaches the threshold, then bisection narrows it to 1e-9 relative in C.
    The result is expressed in the same unit the fit's parameters carry.
    """
    if not three_sigma_blank > 0:
        raise ValueError("three_sigma_blank must be positive")
    if not fit.a > 0:
        raise ValueError("model is not increasing: a must be positive")
    if fit.b == 0.0:
        return three_sigma_blank / fit.a
    if fit.beta == 1.0 and three_sigma_blank >= fit.a / fit.b:
        raise SaturationError(
            f"threshold {three_sigma_blank:g} is at or above the model's "
            f"saturation rise {fit.a / fit.b:g}"
        )

    def rise(c: float) -> float:
        return model_eval(fit, c) - fit.intercept - three_sigma_blank

    low = three_sigma_blank / fit.a  # linear model reaches the threshold here
    high = low
    for _ in range(2000):
        high *= 2.0
        if rise(high) >= 0.0:
            break
    else:
        raise SaturationError(
            f"threshold {three_sigma_blank:g} not reached by the fitted "
            "isotherm within any bounded concentration"
        )
    # math.ulp(0.0) ends a bracket of two adjacent subnormals, which no halving narrows
    while high - low > 1e-9 * high + math.ulp(0.0):
        middle = 0.5 * (low + high)
        low, high = (low, middle) if rise(middle) >= 0.0 else (middle, high)
    return 0.5 * (low + high)


@dataclass(frozen=True)
class IawCorrection:
    """Quadratic linearization of the integrated-difference response.

    coefficients hold the fitted deviation-from-linear polynomial
    (highest degree first, in percent optical-thickness change);
    linear_slope is the response per percent at vanishing shift.
    """

    coefficients: tuple
    linear_slope: float
    max_eot_percent: float

    def deviation(self, eot_percent):
        return np.polyval(self.coefficients, eot_percent)

    def correct(self, response, eot_percent):
        """Rescale a measured response onto the linear trend.

        The measured percent optical-thickness change must come from an
        independent estimator, since the folded response itself is not
        invertible.
        """
        eot = np.asarray(eot_percent, dtype=float)
        linear = self.linear_slope * eot
        predicted = linear + self.deviation(eot)
        ratio = np.divide(linear, predicted, where=predicted != 0,
                          out=np.ones_like(eot))
        corrected = np.asarray(response) * ratio
        if np.ndim(eot_percent) == 0 and np.ndim(response) == 0:
            return float(corrected)
        return corrected


def iaw_fold_limit_percent(stack: FilmStack, range_nm=(500.0, 800.0)) -> float:
    """Largest percent optical-thickness change before the response folds.

    The integrated difference grows until the fringe pattern has shifted
    by half a period at the band's mean wavenumber, i.e. an optical
    thickness change of 1/(2 sigma_bar).
    """
    sigma_bar = WindowConfig(range_nm).mean_sigma
    return 100.0 * (0.5 / sigma_bar) / stack.effective_optical_thickness_nm


def iaw_nonlinearity_correction(
    stack: FilmStack,
    native: NativeGrid = NativeGrid(),
    max_eot_percent: float = 4.0,
    n_sweep: int = 25,
) -> IawCorrection:
    """Calibrate the sub-linearity of the integrated difference by sweeping index shifts,
    simulated on the native grid and read in a window spanning its range, and fitting the
    deviation from the initial slope with a second-order polynomial.
    """
    if not max_eot_percent > 0:
        raise ValueError("max_eot_percent must be positive")
    if n_sweep < 5:
        raise ValueError("need at least 5 sweep points")
    limit = iaw_fold_limit_percent(stack, native.range_nm)
    if max_eot_percent >= limit:
        raise FoldOverError(
            f"sweep to {max_eot_percent:g}% crosses the fold-over at "
            f"{limit:.3f}% (half the free spectral range)"
        )
    wavelengths = native.wavelengths()
    reference = simulate_reflectance(stack, wavelengths)
    cfg = WindowConfig(native.range_nm)
    percents = np.linspace(0.0, max_eot_percent, n_sweep)
    responses = np.empty_like(percents)
    responses[0] = 0.0
    for i, pct in enumerate(percents[1:], start=1):
        delta_n = stack.film_index * pct / 100.0
        shifted = simulate_reflectance(stack.with_film_index_shift(delta_n), wavelengths)
        responses[i] = iaw(reference, shifted, cfg)
    slope = responses[1] / percents[1]
    deviation = responses - slope * percents
    coefficients = tuple(float(c) for c in np.polyfit(percents, deviation, 2))
    return IawCorrection(
        coefficients=coefficients,
        linear_slope=float(slope),
        max_eot_percent=float(max_eot_percent),
    )
