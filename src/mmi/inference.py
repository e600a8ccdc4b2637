"""Inverse problems on interferograms.

Four parametric forward models are fit by damped least squares:

* ``thermal_thermal``: temperature ratio θ₁/θ₀ with the reference θ₀
  known (the interferometric-thermometer configuration; only the ratio is
  identifiable from normalized data, so it is the single parameter);
* ``one_photon_vacuum``: mean frequency and width of a single-photon
  pulse against vacuum;
* ``fock_fock`` / ``coherent_coherent``: signal mean frequency and common
  width with the LO spectrum known, without/with the sin cross term.

The table ``_MODELS`` lists each model once: its parameter names, the
known quantities it reads from ``FitProblem.fixed`` (a problem missing one
is rejected when it is built), its prediction and its default start point.

The coherence-time estimator inverts the thermal-vacuum closed form by one
grid search: it returns the smallest dimensionless delay beyond which the
fringe deviation |ratio - 1/2| stays inside a threshold ε.  The default ε
is calibrated so the answer is 1.5 (in units of ħ/k_B T); the choice of
threshold is a convention, recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .intensity import _closed_fringe, _closed_pair_ratio, _finish, _finite_delays, thermal_vacuum_ratio
from .spectra import SpectralDistribution
from .states import _check_temperature
from .thermal_kernels import _fringe_slope, fringe_deviation

__all__ = [
    "CoherenceReport",
    "DEFAULT_COHERENCE_EPSILON",
    "FitProblem",
    "FitResult",
    "IdentifiabilityError",
    "NonConvergenceError",
    "StateClassification",
    "discriminate_state_class",
    "estimate_coherence_time",
    "fit",
    "model_prediction",
]

# |ratio(a) - 1/2| of the three-dimensional thermal-vacuum closed form at
# a = 1.5, to eight digits (0.040781489935...), so the default coherence
# threshold reproduces a_c = 1.5.
DEFAULT_COHERENCE_EPSILON = 0.04078149


class IdentifiabilityError(ValueError):
    """The data carry no information on the requested parameters."""


class NonConvergenceError(RuntimeError):
    """Raised when the fit loop hits its iteration cap; carries the best iterate."""

    def __init__(self, message: str, result: "FitResult"):
        super().__init__(message)
        self.result = result


def _spectral_pair_start(problem) -> tuple:
    lo_mean = problem.fixed["lo_mean_freq"]
    width = problem.fixed.get("width_guess", lo_mean / 3.0)
    # plateau of the closed form is (1 + lo/sig)/2: invert the tail mean; the ratio is even in τ
    distance = np.abs(problem.tau)
    plateau = float(np.mean(problem.ratios[distance >= 0.75 * distance.max()]))
    mean_guess = lo_mean / max(2.0 * plateau - 1.0, 0.2)
    return (mean_guess, width)


def _spectral_jacobian(t, p, mean_lo, cross: bool, env, cos_s, cos_lo) -> np.ndarray:
    """Columns ∂/∂ω̄_s and ∂/∂σ of :func:`~mmi.intensity._closed_pair_ratio` with the width σ
    shared by both ports; a ``mean_lo`` of 0 is vacuum, whose LO term has weight ω̄_lo/ω̄_s = 0.
    ``env``, ``cos_s`` and ``cos_lo`` are the envelope e^{-(στ)²/4}, cos ω̄_sτ and cos ω̄_loτ.

    With one width the cross term is (μ/ω̄_s) G e^{-(στ)²/4} sin μτ, μ = (ω̄_s + ω̄_lo)/2 and
    G = e^{-(ω̄_s - ω̄_lo)²/4σ²}: its amplitude is 1 and it shares the other terms' envelope.
    """
    mean, width = p
    d_env = -0.5 * width * t * t  # ∂ ln env/∂σ
    jac = np.empty((t.size, 2))
    ratio = mean_lo / mean
    jac[:, 0] = 0.5 * (-(ratio / mean) * (1.0 - env * cos_lo) - t * env * np.sin(t * mean))
    jac[:, 1] = 0.5 * d_env * env * (cos_s - ratio * cos_lo)
    if cross:
        mu, gap = 0.5 * (mean + mean_lo), mean - mean_lo
        detune = math.exp(-gap * gap / (4.0 * width * width))
        term = (detune / mean) * env
        sin_mu = np.sin(mu * t)
        jac[:, 0] -= term * ((-0.5 * ratio - mu * gap / (2.0 * width * width)) * sin_mu + 0.5 * mu * t * np.cos(mu * t))
        jac[:, 1] -= term * mu * sin_mu * (gap * gap / (2.0 * width**3) + d_env)
    return jac


def _spectral_row(*, vacuum: bool, cross: bool):
    """``bind`` of a spectral row, the unguarded closed form with one width for both ports:
    cos ω̄_loτ once per binding (vacuum: ω̄_lo = 0, a row of cos 0 that the Jacobian weighs by 0)."""

    def bind(tau, fixed):
        mean_lo = 0.0 if vacuum else fixed["lo_mean_freq"]
        cos_lo = np.cos(tau * mean_lo)

        def evaluate(p):
            mean, width = p
            ratios, env, cos_s = _closed_pair_ratio(mean, width, None if vacuum else mean_lo, width, tau, cross, cos_lo)
            return ratios, lambda: _spectral_jacobian(tau, p, mean_lo, cross, env, cos_s, cos_lo)

        return evaluate

    return bind


def _thermal_pair_bind(tau, fixed):
    """``bind`` of the thermal pair at d = 3, p = θ₁/θ₀: ``thermal_thermal_ratio(θ₀, pθ₀, τ)`` and
    its Jacobian ½[-(d+1)p^-(d+2)(1 - K(πa₀)) + π|τ|θ₀ K'(πa₁)], a₀ = |τ|θ₀, a₁ = |τ|pθ₀.  The
    LO's K(πa₀) and K(π|τ|θ₀) are formed at the first evaluation, after the checks of
    ``thermal_thermal_ratio`` (the trial temperature, θ₀, the delays, in that order)."""
    d, theta0 = 3, fixed["theta0"]
    t = np.abs(tau).reshape(-1)
    lo = None  # (K(πa₀), x₀, 1 - K(x₀))

    def evaluate(p):
        nonlocal lo
        theta1 = p[0] * theta0
        _check_temperature(theta1)
        # an a-grid or x that overflows to inf reads K = K' = 0, their limits at a = inf
        with np.errstate(over="ignore"):
            if lo is None:
                _check_temperature(theta0)
                _finite_delays(tau)
                x0 = t * (math.pi * theta0)
                lo = _closed_fringe(t * theta0, d), x0, 1.0 - fringe_deviation(x0, d)
            w = (theta0 / theta1) ** (d + 1)
            x1 = t * theta1
            ratios = _finish(_closed_fringe(x1, d), lo[0], w)  # x1 is now πa₁

        def jacobian():
            return (0.5 * (-(d + 1) * p[0] ** -(d + 2) * lo[2] + lo[1] * _fringe_slope(x1, d)))[:, None]

        return ratios.reshape(np.shape(tau)), jacobian

    return evaluate


class _Model(NamedTuple):
    """A fit model: parameter names, the `fixed` keys it reads, its binding and its default start.
    ``bind(tau, fixed)``, which forms what depends on them alone, returns ``evaluate(params) ->
    (ratios, jacobian)``; the thunk ``jacobian()`` reuses what the evaluation formed."""

    names: tuple
    needs: tuple
    bind: Callable
    start: Callable

    def predict(self, tau, params, fixed):
        return self.bind(tau, fixed)(params)[0]

    def jacobian(self, tau, params, fixed):
        return self.bind(tau, fixed)(params)[1]()


# The spectral models use the unguarded closed form: the optimizer may step through
# parameter regions where the public closed forms refuse the approximation.
_MODELS = {
    "thermal_thermal": _Model(("theta_ratio",), ("theta0",), _thermal_pair_bind, lambda problem: (1.1,)),
    "one_photon_vacuum": _Model(
        ("mean_freq", "width"), (), _spectral_row(vacuum=True, cross=False), lambda problem: (3.0, 1.0)),
    "fock_fock": _Model(
        ("mean_freq", "width"), ("lo_mean_freq",), _spectral_row(vacuum=False, cross=False), _spectral_pair_start),
    "coherent_coherent": _Model(
        ("mean_freq", "width"), ("lo_mean_freq",), _spectral_row(vacuum=False, cross=True), _spectral_pair_start),
}


def model_prediction(model: str, tau: np.ndarray, params, fixed: dict) -> np.ndarray:
    """Forward model ratios on a delay grid; `fixed` holds the known quantities."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_MODELS)}")
    row = _MODELS[model]
    if len(params) != len(row.names):
        raise ValueError(f"model {model} takes parameters {row.names}")
    return np.asarray(row.predict(np.asarray(tau, dtype=float), params, fixed))


@dataclass(frozen=True)
class FitProblem:
    """Least-squares problem binding data, model and start point.

    It keeps read-only flat copies of tau, ratios and noise (a scalar noise becomes
    one level), and a read-only copy of ``fixed``.  Their shapes are checked
    before the model's default start reads them: one delay per ratio, at least
    two per parameter, and one noise level or one per ratio.  Every parameter,
    the start point too, lies in the box :data:`_BOUNDS`.
    """

    tau: np.ndarray
    ratios: np.ndarray
    model: str
    fixed: Mapping = field(default_factory=dict)
    initial: tuple = ()
    noise: np.ndarray | None = None  # per-point std for weighting, or one for all points

    def __post_init__(self):
        for name in ("tau", "ratios", "noise"):
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=float).ravel()  # a copy the caller cannot edit
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        object.__setattr__(self, "fixed", MappingProxyType(dict(self.fixed)))  # a copy the caller cannot edit
        if not (np.isfinite(self.tau).all() and np.isfinite(self.ratios).all()):
            raise ValueError("delays and ratios must be finite")
        if self.noise is not None and not np.isfinite(self.noise).all():
            raise ValueError("noise levels must be finite")
        if self.noise is not None and np.any(self.noise <= 0.0):
            raise ValueError("noise levels must be positive")
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        names, needs, _, start = _MODELS[self.model]
        missing = [key for key in needs if self.fixed.get(key) is None]
        if missing:
            raise ValueError(f"model {self.model} needs fixed {missing}")
        # the data's shapes before the default start, which reads the data
        if self.tau.shape != self.ratios.shape:
            raise ValueError("delay and ratio arrays differ in length")
        if self.noise is not None and self.noise.size not in (1, self.ratios.size):
            raise ValueError(f"{self.noise.size} noise levels for {self.ratios.size} ratios; give one or one per ratio")
        samples, count = self.tau.size, len(names)
        if samples < 2 * count:
            raise IdentifiabilityError(
                f"{samples} sample{'s' * (samples != 1)} cannot constrain {count} "
                f"parameter{'s' * (count != 1)} (need at least twice as many)"
            )
        initial = tuple(self.initial) if self.initial else start(self)
        object.__setattr__(self, "initial", initial)
        if len(initial) != len(names):
            raise ValueError(f"model {self.model} takes parameters {names}")
        lo, hi = _BOUNDS
        for p in initial:
            if not lo <= p <= hi:
                raise ValueError(f"initial guess {p} outside bounds ({lo}, {hi})")

    @property
    def parameter_names(self) -> tuple:
        return _MODELS[self.model].names

    def weights(self) -> np.ndarray:
        if self.noise is None:
            return np.ones_like(self.ratios)
        return 1.0 / np.broadcast_to(self.noise, self.ratios.shape)


@dataclass(frozen=True)
class FitResult:
    estimates: dict
    uncertainties: dict
    residual_norm: float
    initial_residual_norm: float
    iterations: int
    converged: bool


# Iteration cap of the fit loop, and the step and gradient norms below which it stops.
_MAX_ITER = 200
# The box (lo, hi) that holds every fit parameter.
_BOUNDS = (1e-6, 1e6)
_STEP_TOL = 1e-10
_GRAD_TOL = 1e-10


def _normal_equations(jac, r) -> tuple:
    """g = Jᵀr and the symmetric H = JᵀJ = [[a, b], [b, c]] as the Python floats (g₀, g₁, a, b, c).

    A one-column J is the 1×1 case: it reads as g = (g₀, 0) and H = diag(a, a).
    """
    g, h = (jac.T @ r).tolist(), (jac.T @ jac).tolist()
    if len(g) == 1:
        return g[0], 0.0, h[0][0], 0.0, h[0][0]
    return g[0], g[1], h[0][0], h[0][1], h[1][1]


def _extreme_eigenvalues(a, b, c) -> tuple:
    """Smallest and largest eigenvalue of the symmetric [[a, b], [b, c]]: mid ∓ hypot(½(a - c), b)."""
    mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    return mid - rad, mid + rad


def fit(problem: FitProblem) -> FitResult:
    """Damped least-squares fit of a forward model to interferogram data.

    Minimizes Σ w_i (ratio_i - model(τ_i; p))² by Levenberg-Marquardt steps
    with the model's exact Jacobian, taken at each accepted point from that
    point's evaluation (the row is bound to the delays once), and
    Marquardt's scaling D = diag(JᵀWJ).  Every model has one or two
    parameters, so after the two products g = JᵀWr and H = JᵀWJ an iteration
    runs on Python floats in closed form: the guard's extreme eigenvalues of
    the symmetric 2×2 H, and each damped trial step (H + λD)δ = -g by
    Cramer's rule on its scaling by D^-½ (a one-parameter model is the 1×1
    case); no ``numpy.linalg`` routine runs.  The
    damping λ follows Nielsen's rule (Madsen, Nielsen & Tingleff 2004,
    §3.2): an accepted step, ρ its actual over predicted cost reduction,
    scales λ by max(1/3, 1 - (2ρ - 1)³) and resets ν to 2; a rejected one
    scales λ by ν and doubles ν.  Converges when a proposed step's norm or
    the gradient norm drops below 1e-10.  Deterministic for identical
    inputs.  Flat data, or normal equations with cond₂(JᵀWJ) > 1e14, raise
    :class:`IdentifiabilityError`; hitting the iteration cap (200) raises
    :class:`NonConvergenceError` carrying the best iterate.

    ``uncertainties`` are sqrt(diag(s²(JᵀWJ)⁻¹)), with J the model's
    Jacobian at the returned estimates, W = diag(1/noise²) (the identity
    without noise) and s² = cost/dof the reduced χ² of the weighted
    residuals.  They are rescaled by s² also when ``noise`` is given
    (scipy's ``absolute_sigma=False``): ``noise`` sets the weights, and a
    misstated noise level does not misstate the error bars.  They are NaN
    where JᵀWJ has no inverse.
    """
    w = problem.weights()
    data = problem.ratios
    if float(np.ptp(data)) < 1e-10:
        raise IdentifiabilityError(
            "interferogram is constant; the scenario parameters are not identifiable"
        )
    n = len(problem.initial)
    evaluate = _MODELS[problem.model].bind(problem.tau, problem.fixed)

    def residual(params):
        """The weighted residuals at ``params`` and the thunk of their Jacobian."""
        ratios, jacobian = evaluate(params[:n])
        return w * (ratios - data), lambda: w[:, None] * jacobian()

    lo, hi = _BOUNDS
    # a one-parameter row is the 1×1 case of the 2×2 algebra below: a second coordinate, parked
    # on the lower bound, that H = diag(a, a) and g = (g₀, 0) leave uncoupled, so no step moves it
    p = [float(x) for x in problem.initial] + [lo] * (2 - n)
    r, jacobian = residual(p)
    cost = float(r @ r)
    initial_cost = cost
    jac = jacobian()
    lam, nu = 1e-3, 2.0
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        g0, g1, a, b, c = _normal_equations(jac, r)
        if math.hypot(g0, g1) < _GRAD_TOL:
            converged = True
            break
        low, high = _extreme_eigenvalues(a, b, c)
        if not (math.isfinite(high) and 0.0 < low and high <= 1e14 * low):
            raise IdentifiabilityError("normal equations are singular; parameters degenerate")
        # (H + λD)δ = -g as (SHS + λ)y = Sg, δ = -Sy, with S = D^-½; each yᵢ by Cramer's rule, its
        # numerator and determinant divided by the other diagonal entry
        s0, s1 = 1.0 / math.sqrt(max(a, 1e-30)), 1.0 / math.sqrt(max(c, 1e-30))
        m0, m1, m01, u0, u1 = s0 * a * s0, s1 * c * s1, s0 * b * s1, s0 * g0, s1 * g1
        for _ in range(40):
            k0, k1 = m01 / (m1 + lam), m01 / (m0 + lam)
            y0, y1 = (u0 - k0 * u1) / (m0 + lam - k0 * m01), (u1 - k1 * u0) / (m1 + lam - k1 * m01)
            trial = [min(max(p[0] - s0 * y0, lo), hi), min(max(p[1] - s1 * y1, lo), hi)]
            e0, e1 = trial[0] - p[0], trial[1] - p[1]
            small = math.hypot(e0, e1) < _STEP_TOL
            r_trial, jacobian = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                # ‖r‖² - ‖r + Jδ‖² = -δ·(2g + Hδ)
                predicted = -(e0 * (2.0 * g0 + (a * e0 + b * e1)) + e1 * (2.0 * g1 + (b * e0 + c * e1)))
                rho = min((cost - cost_trial) / predicted, 1.0) if predicted > 0.0 else 1.0  # λ/3 from ρ = 1 up
                lam, nu = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-14), 2.0
                p, r, cost = trial, r_trial, cost_trial
                jac = jacobian()
                break
            if small:  # a larger λ only shortens the step
                break
            lam, nu = lam * nu, 2.0 * nu
        else:  # forty rejections
            small = True
        if small:
            converged = True
            break

    dof = max(r.size - n, 1)
    sigma_sq = max(cost, 1e-300) / dof
    _, _, a, b, c = _normal_equations(jac, r)
    try:  # the diagonal of (JᵀJ)⁻¹, each entry the inverse of its Schur complement
        inverse = (1.0 / (a - b * (b / c)), 1.0 / (c - b * (b / a)))
    except ZeroDivisionError:  # a column of J vanishes, or the two are parallel
        inverse = (math.nan, math.nan)
    uncertainties = [math.sqrt(max(sigma_sq * q, 1e-300)) for q in inverse]

    names = problem.parameter_names
    result = FitResult(
        estimates=dict(zip(names, p)),
        uncertainties=dict(zip(names, uncertainties)),
        residual_norm=math.sqrt(cost),
        initial_residual_norm=math.sqrt(initial_cost),
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise NonConvergenceError(
            f"no convergence within {_MAX_ITER} iterations (residual {result.residual_norm:.3e})",
            result,
        )
    return result


# ---------------------------------------------------------------------------
# coherence time


@dataclass(frozen=True)
class CoherenceReport:
    """Thermal fringe-visibility horizon for a given threshold.

    ``a_c`` is dimensionless delay (τ k_B T/ħ); ``tau_c`` = a_c/θ in the
    working time unit and ``coherence_length`` = c·τ_c (c = 1 unless the
    caller converts).
    """

    a_c: float
    tau_c: float
    coherence_length: float
    epsilon: float


def estimate_coherence_time(
    theta: float = 1.0,
    epsilon: float = DEFAULT_COHERENCE_EPSILON,
    *,
    speed_of_light: float = 1.0,
) -> CoherenceReport:
    """The dimensionless delay a_c at which |ratio(a) - 1/2| last crosses ε, as a grid samples it.

    a_c is one of two adjacent floats, the lower with a deviation >= ε and
    the upper with one < ε, and they are the last such pair that a grid of
    the search samples.  Evaluated on the three-dimensional thermal-vacuum
    closed form.  The deviation envelope beyond its first minimum decays
    monotonically (a power law with an exponentially small correction), so
    one loop locates the last threshold crossing: it grids its bracket,
    keeps the last grid point whose deviation reaches ε and that point's
    right neighbour as the next bracket, and stops once the bracket is two
    adjacent floats, returning their midpoint (which rounds onto one of
    them).  The first grid is 4096 points on [0, a_max], every later one
    ``_GRID_POINTS`` across the bracket, one closed-form call per grid.
    Where the deviation's rounding is smooth this pair is the last crossing
    of all, so |ratio(a') - 1/2| < ε for every a' above a_c.  Near
    ε ≈ 0.12–0.16 the closed form's rounding makes the deviation cross ε
    many times within a few hundred ulps, and floats beyond a_c can still
    reach ε (at ε = 0.15552299530928815, a_c = 0.3192278333376005, and
    floats 93 ulps above it do).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("threshold must lie strictly between 0 and 0.5")
    _check_temperature(theta)
    epsilon = float(epsilon)

    # beyond a_max the power-law envelope 45/(2(aπ)^4) is already below ε
    a_max = max((45.0 / (2.0 * epsilon)) ** 0.25 / math.pi * 1.5, 2.0)
    # at a = 0 the deviation is exactly 1/2 >= ε, so the first grid always holds a crossing
    grid = np.linspace(0.0, a_max, 4096)
    while True:
        deviation = np.abs(thermal_vacuum_ratio(1.0, grid, 3, "closed_form") - 0.5)
        i = np.nonzero(deviation >= epsilon)[0][-1]
        if i + 1 >= grid.size:
            raise RuntimeError("threshold crossing not bracketed; widen the scan")
        lo, hi = float(grid[i]), float(grid[i + 1])
        a_c = 0.5 * (lo + hi)
        if not lo < a_c < hi:  # the bracket cannot shrink further
            break
        grid = np.linspace(lo, hi, _GRID_POINTS)
    tau_c = a_c / float(theta)
    return CoherenceReport(a_c, tau_c, float(speed_of_light * tau_c), epsilon)


# Points of every coherence grid after the first: the bracket's two ends and 63
# between.  A closed-form call costs about as much for 65 points as for one.
_GRID_POINTS = 65


# ---------------------------------------------------------------------------
# state-class discrimination


@dataclass(frozen=True)
class StateClassification:
    label: str  # 'fock-like' | 'coherent-like' | 'indistinguishable'
    score: float  # residual-norm ratio, preferred/other; 0.0 when the other fit failed
    fock_fit: FitResult | None  # None when the fit failed
    coherent_fit: FitResult | None


def _is_tau_symmetrized(tau: np.ndarray, ratios: np.ndarray) -> bool:
    """True when the grid pairs ±τ and the odd part of the data vanishes.

    A nonzero delay pairs with the first of its mirror's sorted neighbours
    j - 1, j, j + 1 within 1e-9·max(|τ|, 1); at least 80 % must pair, and
    the odd part must stay within 1e-6 of the data's range.
    """
    order = np.argsort(tau)
    t, r = tau[order], ratios[order]
    i = np.flatnonzero(np.abs(t) > 1e-15)
    if not i.size:
        return False
    ti = t[i]
    j = np.searchsorted(t, -ti)
    tol = 1e-9 * np.maximum(np.abs(ti), 1.0)
    partner = np.full(i.size, -1)
    for k in (j + 1, j, j - 1):  # the last match written is the first candidate
        near = (k >= 0) & (k < t.size) & (np.abs(np.take(t, k, mode="clip") + ti) <= tol)
        partner[near] = k[near]
    paired = partner >= 0
    if np.count_nonzero(paired) < 0.8 * i.size:
        return False
    odd_max = np.max(0.5 * np.abs(r[i[paired]] - r[partner[paired]]), initial=0.0)
    return odd_max <= 1e-6 * max(float(np.ptp(r)), 1e-12)


# Residual norms within this fraction of each other classify as indistinguishable.
_TIE_FRACTION = 0.01


def discriminate_state_class(tau, ratios, f_lo: SpectralDistribution) -> StateClassification:
    """Decide whether an interferogram came from Fock or coherent inputs.

    Fits both closed-form models (with and without the odd sin cross term)
    and reports the one with the smaller residual norm; residual norms
    within 1 % of each other are declared indistinguishable.  A model whose
    fit raises :class:`IdentifiabilityError` or :class:`NonConvergenceError`
    drops out (its fit is None) and the other wins with score 0.0; only when
    both fail does the first failure propagate.
    The distinguishing information lives entirely in the odd-in-τ part of
    the interferogram, so data whose delay grid pairs ±τ and whose odd
    component vanishes (τ-symmetrized data) are reported indistinguishable
    up front; the symmetrization has erased the evidence.
    """
    tau = np.asarray(tau, dtype=float).ravel()
    ratios = np.asarray(ratios, dtype=float).ravel()
    span = float(tau.max() - tau.min()) if tau.size else 0.0
    if span * f_lo.mean_freq < 2.0 * math.pi:  # an LO at ω̄ = 0 has no fringe period
        raise IdentifiabilityError("data span less than one fringe period")

    fixed = {"lo_mean_freq": f_lo.mean_freq, "width_guess": f_lo.width}
    fits, failures = [], []
    for model in ("fock_fock", "coherent_coherent"):
        try:
            fits.append(fit(FitProblem(tau=tau, ratios=ratios, model=model, fixed=fixed)))
        except (IdentifiabilityError, NonConvergenceError) as exc:  # the wrong model may drift flat
            fits.append(None)
            failures.append(exc)
    if len(failures) == 2:
        raise failures[0]
    fock, coherent = fits

    if _is_tau_symmetrized(tau, ratios):
        label, score = "indistinguishable", 1.0
    elif failures:  # the model whose fit failed drops out
        label, score = ("coherent-like" if fock is None else "fock-like"), 0.0
    else:
        r_fock, r_coh = fock.residual_norm, coherent.residual_norm
        best, other = (r_fock, r_coh) if r_fock <= r_coh else (r_coh, r_fock)
        if other == 0.0 or (other - best) <= _TIE_FRACTION * other:
            label = "indistinguishable"
            score = 1.0 if other == 0.0 else best / other
        elif r_fock < r_coh:
            label, score = "fock-like", r_fock / r_coh
        else:
            label, score = "coherent-like", r_coh / r_fock
    return StateClassification(label=label, score=score, fock_fit=fock, coherent_fit=coherent)
