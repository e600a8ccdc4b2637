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

The coherence-time estimator inverts the thermal-vacuum closed form: it
returns the smallest dimensionless delay beyond which the fringe deviation
|ratio - 1/2| stays inside a threshold ε.  The default ε is calibrated so
the answer is 1.5 (in units of ħ/k_B T); the choice of threshold is a
convention, recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .intensity import _closed_pair_ratio, thermal_thermal_ratio, thermal_vacuum_ratio
from .spectra import SpectralDistribution
from .states import _check_temperature

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
    # plateau of the closed form is (1 + lo/sig)/2: invert the tail mean
    tail = problem.ratios[problem.tau >= 0.75 * problem.tau.max()]
    plateau = float(np.mean(tail)) if tail.size else 1.0
    mean_guess = lo_mean / max(2.0 * plateau - 1.0, 0.2)
    return (mean_guess, width)


# Each fit model: its parameter names, the `fixed` keys it reads, its
# prediction (tau, params, fixed) -> ratios and its default start point.  The
# spectral models use the unguarded closed form: the optimizer may step through
# parameter regions where the public closed forms refuse the approximation.
_MODELS = {
    "thermal_thermal": (
        ("theta_ratio",), ("theta0",),
        lambda tau, p, fixed: thermal_thermal_ratio(fixed["theta0"], p[0] * fixed["theta0"], tau),
        lambda problem: (1.1,),
    ),
    "one_photon_vacuum": (
        ("mean_freq", "width"), (),
        lambda tau, p, fixed: _closed_pair_ratio(p[0], p[1], None, None, tau, False),
        lambda problem: (3.0, 1.0),
    ),
    "fock_fock": (
        ("mean_freq", "width"), ("lo_mean_freq",),
        lambda tau, p, fixed: _closed_pair_ratio(p[0], p[1], fixed["lo_mean_freq"], p[1], tau, False),
        _spectral_pair_start,
    ),
    "coherent_coherent": (
        ("mean_freq", "width"), ("lo_mean_freq",),
        lambda tau, p, fixed: _closed_pair_ratio(p[0], p[1], fixed["lo_mean_freq"], p[1], tau, True),
        _spectral_pair_start,
    ),
}


def model_prediction(model: str, tau: np.ndarray, params, fixed: dict) -> np.ndarray:
    """Forward model ratios on a delay grid; `fixed` holds the known quantities."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {sorted(_MODELS)}")
    names, _, predict, _ = _MODELS[model]
    if len(params) != len(names):
        raise ValueError(f"model {model} takes parameters {names}")
    return np.asarray(predict(np.asarray(tau, dtype=float), params, fixed))


@dataclass(frozen=True)
class FitProblem:
    """Least-squares problem binding data, model and start point.

    It keeps read-only flat copies of tau, ratios and noise (a scalar noise becomes
    one level), and a read-only copy of ``fixed``.  Every parameter, the start
    point too, lies in the box :data:`_BOUNDS`.
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
        initial = tuple(self.initial) if self.initial else start(self)
        object.__setattr__(self, "initial", initial)
        if len(initial) != len(names):
            raise ValueError(f"model {self.model} takes parameters {names}")
        lo, hi = _BOUNDS
        for p in initial:
            if not lo <= p <= hi:
                raise ValueError(f"initial guess {p} outside bounds ({lo}, {hi})")
        if self.tau.shape != self.ratios.shape:
            raise ValueError("delay and ratio arrays differ in length")
        if self.tau.size < 2 * len(names):
            raise IdentifiabilityError(
                f"{self.tau.size} samples cannot constrain {len(names)} parameters "
                "(need at least twice as many)"
            )

    @property
    def parameter_names(self) -> tuple:
        return _MODELS[self.model][0]

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


def fit(problem: FitProblem) -> FitResult:
    """Damped least-squares fit of a forward model to interferogram data.

    Minimizes Σ w_i (ratio_i - model(τ_i; p))² with Levenberg-Marquardt
    damping and forward-difference Jacobians; converges when the step norm
    or the gradient norm drops below 1e-10.  Deterministic for identical
    inputs.  Flat data raise :class:`IdentifiabilityError`; hitting the
    iteration cap (200) raises :class:`NonConvergenceError` carrying the
    best iterate.

    ``uncertainties`` are sqrt(diag(s²(JᵀWJ)⁻¹)), with J the model's
    Jacobian from the last iteration, W = diag(1/noise²) (the identity
    without noise) and s² = cost/dof the reduced χ² of the weighted
    residuals.  They are rescaled by s² also when ``noise`` is given
    (scipy's ``absolute_sigma=False``): ``noise`` sets the weights, and a
    misstated noise level does not misstate the error bars.
    """
    w = problem.weights()
    data = problem.ratios
    if float(np.ptp(data)) < 1e-10:
        raise IdentifiabilityError(
            "interferogram is constant; the scenario parameters are not identifiable"
        )

    def residual(params):
        return w * (model_prediction(problem.model, problem.tau, params, problem.fixed) - data)

    p = np.array(problem.initial, dtype=float)
    lo, hi = _BOUNDS
    r = residual(p)
    cost = float(r @ r)
    initial_cost = cost
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        jac = np.empty((r.size, p.size))
        for i in range(p.size):
            h = 1e-7 * max(abs(p[i]), 1e-3)
            stepped = p.copy()
            stepped[i] = min(p[i] + h, hi)
            actual = stepped[i] - p[i]
            if actual == 0.0:
                stepped[i] = p[i] - h
                actual = -h
            jac[:, i] = (residual(stepped) - r) / actual
        grad = jac.T @ r
        if float(np.linalg.norm(grad)) < _GRAD_TOL:
            converged = True
            break
        hess = jac.T @ jac
        if not np.all(np.isfinite(hess)) or np.linalg.cond(hess + np.eye(p.size) * 1e-300) > 1e14:
            raise IdentifiabilityError("normal equations are singular; parameters degenerate")
        step = None
        for _ in range(40):
            damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-30))
            try:
                candidate = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(p + candidate, lo, hi)
            r_trial = residual(trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                step = trial - p
                p, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 5.0
        if step is None or float(np.linalg.norm(step)) < _STEP_TOL:
            converged = True
            break

    dof = max(r.size - p.size, 1)
    sigma_sq = max(cost, 1e-300) / dof
    try:
        cov = sigma_sq * np.linalg.inv(jac.T @ jac)
        uncertainties = np.sqrt(np.maximum(np.diag(cov), 1e-300))
    except np.linalg.LinAlgError:
        uncertainties = np.full(p.size, math.nan)

    names = problem.parameter_names
    result = FitResult(
        estimates=dict(zip(names, map(float, p))),
        uncertainties=dict(zip(names, map(float, uncertainties))),
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
    """Smallest a beyond which |ratio(a') - 1/2| < ε for all a' >= a.

    Evaluated on the three-dimensional thermal-vacuum closed form.  The
    deviation envelope beyond its first minimum decays monotonically (a
    power law with an exponentially small correction), so a backward grid
    scan plus bisection locates the last threshold crossing.  The bisection
    halves the scan's bracket until its midpoint rounds onto an end, taking
    ``_TREE_DEPTH`` halvings per closed-form call with the midpoints and
    comparisons of one halving per call, so a_c does not depend on the depth.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("threshold must lie strictly between 0 and 0.5")
    _check_temperature(theta)
    epsilon = float(epsilon)

    # beyond a_max the power-law envelope 45/(2(aπ)^4) is already below ε
    a_max = max((45.0 / (2.0 * epsilon)) ** 0.25 / math.pi * 1.5, 2.0)
    # at a = 0 the deviation is exactly 1/2 >= ε, so the scan always finds a crossing
    grid = np.linspace(0.0, a_max, 4096)
    i = np.nonzero(_coherence_deviation(grid) >= epsilon)[0][-1]
    if i + 1 >= grid.size:
        raise RuntimeError("threshold crossing not bracketed; widen the scan")
    a_c = _bisect_crossing(float(grid[i]), float(grid[i + 1]), epsilon)
    tau_c = a_c / float(theta)
    return CoherenceReport(a_c, tau_c, float(speed_of_light * tau_c), epsilon)


# Halvings per closed-form call of the coherence bisection: a call costs about
# as much for 63 midpoints as for one, while the 2^d - 1 midpoints double per
# level.  Depth 6 measured fastest of 4 to 8.
_TREE_DEPTH = 6
_TREE_NODES = 2**_TREE_DEPTH - 1


def _coherence_deviation(a):
    return np.abs(thermal_vacuum_ratio(1.0, a, 3, "closed_form") - 0.5)


def _bisect_crossing(lo: float, hi: float, epsilon: float) -> float:
    """Halve [lo, hi] towards the last a with deviation >= ε until the midpoint rounds onto an end.

    Each round stores the midpoints of the next ``_TREE_DEPTH`` halvings in
    heap order (node k's children are 2k + 1 when its deviation is >= ε, so
    lo moves up, and 2k + 2 otherwise), evaluates them in one call, and
    walks down the tree.
    """
    while True:
        brackets, mids = [(lo, hi)], []
        for k in range(_TREE_NODES):
            lo, hi = brackets[k]
            mids.append(0.5 * (lo + hi))
            brackets += ((mids[k], hi), (lo, mids[k]))
        reached = (_coherence_deviation(np.array(mids)) >= epsilon).tolist()
        k = 0
        while k < _TREE_NODES:
            lo, hi = brackets[k]
            if not lo < mids[k] < hi:  # the bracket cannot shrink further
                return mids[k]
            k = 2 * k + 1 if reached[k] else 2 * k + 2
        lo, hi = brackets[k]


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
