"""Normalized single-photon detection intensity ⟨I⟩(τ)/⟨I⟩(0).

Every scenario has a quadrature path that integrates the defining spectral
integral directly, an exact path that ``method="auto"`` takes, and, where
one exists, a closed-form path:

====================  =========================================  ====================  ==========
ports (signal, LO)    quadrature integrand (up to constants)     exact path (auto)     closed form
====================  =========================================  ====================  ==========
one-photon pair       ω[f_s²(1+cos ωτ) + f_lo²(1-cos ωτ)]        Gaussian-Fourier      Gaussian-envelope approximation
coherent pair         same + cross term -2ω f_s f_lo sin ωτ      Gaussian-Fourier      same + approximate sin term
one-photon / vacuum   ω f_s²(1+cos ωτ)                           Gaussian-Fourier      ½(1 + e^{-(στ)²/4} cos ω̄τ)
thermal / vacuum      ω^d n̄(ω,θ)(1+cos ωτ)                       closed form           exact hyperbolic form (d=1, 3)
thermal pair          ω^d[n̄₁(1+cos ωτ) + n̄₀(1-cos ωτ)]          closed form           exact hyperbolic form (d=1, 3)
====================  =========================================  ====================  ==========

The spectral exact path ("exact" in the metadata) evaluates every term of
the quadrature integrand, at d = 1 or 3, from the moments
M_n(τ) = ∫₀^∞ ωⁿ e^{-(ω-μ)²/σ²} e^{iωτ} dω derived in :mod:`mmi.spectra`,
vectorised over the delay grid; the coherent cross term f_s f_lo is a
single product Gaussian.  It agrees with the quadrature path to its 1e-12
tolerance and keeps working at optical ω̄/σ, where the rounding of cos ωτ
stops quadrature short of it.
Both thermal scenarios are one evaluator: against an LO at θ_lo the ratio
is ½[1 + r^{d+1} + K_d(a_s) - r^{d+1} K_d(a_lo)], r = θ_lo/θ_s, a = |τ|θ,
and a vacuum LO is r = 0.  Its closed forms are exact at every dimension a
thermal scenario admits, so ``auto`` never integrates;
``method="quadrature"`` is the check.

A request without a dimension takes the scenario's default: d = 3 for the
thermal scenarios (the blackbody) and d = 1 for the spectral ones.  Every
scenario admits d ∈ {1, 3}.  These rules, and the path each method takes, are
decided once, by :func:`_resolve`, for every entry point of this module
and for the ``--d`` flag of ``mmi simulate``.

The thermal closed forms are exact and stable down to τ = 0 thanks to the
cancellation-free kernel in :mod:`mmi.thermal_kernels`, one generator for
every odd d.  The spectral-state
closed forms replace ω by ω̄ and extend the frequency range to the whole
real line, so they are approximations.  Over the whole line,
∫ ω e^{-(ω-ω̄)²/σ²} cos ωτ dω = √π σ e^{-(στ)²/4}[ω̄ cos ω̄τ - (σ²τ/2) sin ω̄τ],
and the ω -> ω̄ replacement keeps only the first term.  For the one-photon
pair (common width σ) the exact ratio is therefore the closed form plus

    D(τ) = (σ²τ/4ω̄_s) e^{-(στ)²/4} (sin ω̄_lo τ - sin ω̄_s τ),

with |D| ≤ |ω̄_lo - ω̄_s|/(e ω̄_s): the error is set by the relative
detuning, not by σ/ω̄ (at 5 % detuning max |D| is 1.83e-2, 1.80e-2 and
1.75e-2 at ω̄_s = 3σ, 5σ and 10σ).  Against vacuum the dropped term is
-(σ²τ/4ω̄) e^{-(στ)²/4} sin ω̄τ, bounded by σ/(ω̄√(8e)), 7.1e-2 at ω̄ = 3σ.
The ω < 0 tail the extended range adds is below 2e-5 at ω̄ ≥ 2.85σ.
Every spectral closed form is one formula behind one gate: each occupied
port needs ω̄ ≥ 2σ (a warning below 3σ); a negative ratio raises
:class:`ClosedFormError` rather than being clipped.

Unnormalized intensities carry an arbitrary but consistent internal scale
(constant prefactors are dropped); only ratios are part of the contract.
"""

from __future__ import annotations

import math
import mmap
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import _workers
from .quadrature import TOL, QuadratureError, QuadratureResult
from .spectra import SpectralDistribution, _line_moments, integrate_over_spectra
from .states import Coherent, OnePhoton, PortState, Thermal, Vacuum, _check_temperature, bose_weighted_integral
from .thermal_kernels import bose_integral_constant, fringe_deviation

__all__ = [
    "ClosedFormError",
    "Interferogram",
    "IntensityRequest",
    "coherent_intensity",
    "coherent_intensity_closed",
    "compute_interferogram",
    "fock_intensity",
    "fock_intensity_closed",
    "one_photon_vacuum_ratio",
    "thermal_thermal_ratio",
    "thermal_vacuum_ratio",
]

_METHODS = ("auto", "closed_form", "quadrature")
# the dimensions each scenario admits, default first; thermal closed forms exist at each
_DIMENSIONS = {"spectral": (1, 3), "thermal-vacuum": (3, 1), "thermal-thermal": (3, 1)}


def _resolve(scenario: str, d: int | None, method: str):
    """(dimension, path) that ``method`` takes for ``scenario`` at dimension d.

    ``auto`` takes the exact Gaussian-Fourier path for spectral states and the
    closed form for thermal ones.  A missing d takes the scenario's default.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    dims = _DIMENSIONS[scenario]
    if d is None:
        d = dims[0]
    elif d not in dims:
        expected = " or ".join(map(str, sorted(dims)))
        raise ValueError(f"dimension {d} unsupported for the {scenario} scenario; expected {expected}")
    if method == "auto":
        return d, "exact" if scenario == "spectral" else "closed_form"
    if method == "closed_form" and scenario == "spectral" and d != 1:
        raise ValueError(f"the {scenario} closed form is only available in dimension 1")
    return d, method


# σ|τ| at which e^{-(στ)²/4}, and the cross term's narrower envelope, are e^{-900} = 0 in floating point.
_ENVELOPE_REACH = 60.0


class ClosedFormError(ValueError):
    """A spectral closed form, an approximation, left the range [0, ∞) of a ratio."""


def _finite_delays(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("delays must be finite")
    return tau


BLOCK = 65_536


def _walk(tau, evaluate, lines=1):
    """``evaluate``, elementwise, over the flattened delays of ``tau``, shaped like it.

    Blocks of ``BLOCK // (lines × CPUs)`` delays, ``lines`` the values a delay
    needs at once, keep about ``BLOCK`` values in flight on any CPU count.  One
    block runs on the calling thread; more run on one worker per CPU into one
    output mapped from the OS, not from malloc, whose heap a grid this size
    would fragment (it moved the benchmark's thermal peak RSS by up to 8 MB
    with the code layout).  The bits do not depend on the blocks.  An empty
    grid evaluates nothing.
    """
    workers = _workers.cpu_count()
    step = max(1, BLOCK // (lines * workers))
    flat = tau.reshape(-1)
    if flat.size <= step:
        return evaluate(flat).reshape(tau.shape) if flat.size else np.empty(tau.shape)
    out = np.frombuffer(mmap.mmap(-1, 8 * flat.size), dtype=float)

    def job(i, _):
        block = slice(i * step, (i + 1) * step)
        out[block] = evaluate(flat[block])

    _workers.run(job, -(-flat.size // step), workers)
    return out.reshape(tau.shape)


# ---------------------------------------------------------------------------
# spectral-state scenarios


def _spectral_integral(f_s, f_lo, tau, d, cross: bool):
    """Quadrature of the full detection integrand at every delay of ``tau``.

    Each amplitude is evaluated once per node for the whole grid; returns the
    :class:`~mmi.quadrature.QuadratureResult`, value and error shaped like ``tau``.
    """

    def integrand(w):
        # ω^d [s²(1 + cos) + l²(1 - cos) - 2 s l sin], as the coefficients of 1, cos ωτ and sin ωτ
        w_d = w**d
        amp_s = f_s.amplitude(w)
        signal = w_d * amp_s**2
        if f_lo is None:
            return signal, signal, None
        amp_lo = f_lo.amplitude(w)
        lo = w_d * amp_lo**2
        return signal + lo, signal - lo, -2.0 * w_d * amp_s * amp_lo if cross else None

    spectra = (f_s,) if f_lo is None else (f_s, f_lo)
    return integrate_over_spectra(integrand, spectra, tau)


def _product_gaussian(mean_s, width_s, mean_lo, width_lo):
    """f_s f_lo = detune e^{-(ω-centre)²/width²}/(N_s N_lo): (centre, width, detune)."""
    var_sum = width_s**2 + width_lo**2
    centre = (mean_s * width_lo**2 + mean_lo * width_s**2) / var_sum
    detune = math.exp(-((mean_s - mean_lo) ** 2) / (2.0 * var_sum))
    return centre, width_s * width_lo * math.sqrt(2.0 / var_sum), detune


def _spectral_intensity(f_s, f_lo, grid, d, cross: bool):
    """Unnormalized intensities at the delays of ``grid``.

    The integrand of :func:`_spectral_integral` term by term: with
    f² = e^{-(ω-ω̄)²/σ²}/N², ∫ω^d f²(1 ± cos ωτ) = (M_d(0) ± Re M_d(τ))/N²,
    and the coherent cross term ∫ω^d f_s f_lo sin ωτ is Im M_d(τ) of the
    product Gaussian (see :mod:`mmi.spectra`).  The
    moments of all these lines come from one pass, with one w(z) call.
    ``grid[0]`` must be τ = 0, which supplies M_d(0).
    """
    lines = [(f_s.mean_freq, f_s.width)]
    if f_lo is not None:
        lines.append((f_lo.mean_freq, f_lo.width))
    if cross:
        centre, width, detune = _product_gaussian(f_s.mean_freq, f_s.width, f_lo.mean_freq, f_lo.width)
        lines.append((centre, width))
    moments = _line_moments(lines, grid, d)
    m_s = moments[0].real / f_s.normalization**2
    intensity = m_s[0] + m_s
    if f_lo is not None:
        m_lo = moments[1].real / f_lo.normalization**2
        intensity += m_lo[0] - m_lo
        if cross:
            height = detune / (f_s.normalization * f_lo.normalization)
            intensity -= 2.0 * height * moments[2].imag
    return intensity


def _normalized(intensity):
    """Intensities at [0, τ…] over the first, and that τ = 0 intensity, refused where it vanished."""
    norm = float(intensity[0])
    if norm <= 0.0:
        raise ValueError("zero-delay intensity vanished; cannot normalize")
    return intensity[1:] / norm, norm


def _spectral_exact(f_s, f_lo, taus, d, cross: bool):
    """Exact ratios over a delay grid, and the τ = 0 intensity.

    :func:`_walk` shares its blocks out among the spectral lines (signal, LO,
    product Gaussian).  Each block is evaluated as [0, τ…] by
    :func:`_spectral_intensity` and divided by its own τ = 0 intensity, the
    same in every block.
    """
    norm = None

    def evaluate(block):
        nonlocal norm
        ratios, norm = _normalized(_spectral_intensity(f_s, f_lo, np.concatenate([[0.0], block]), d, cross))
        return ratios

    return _walk(taus, evaluate, 1 + (f_lo is not None) + cross), norm


def fock_intensity(f_s: SpectralDistribution, f_lo: SpectralDistribution, tau: float, d: int = 1) -> float:
    """Unnormalized detected intensity for one-photon states in both ports.

    ∫₀^∞ dω ω^d [f_s²(1 + cos ωτ) + f_lo²(1 - cos ωτ)], constant prefactors
    dropped.  At τ = 0 the dark-port term vanishes and the value is twice
    the mean frequency under f_s².
    """
    d, _ = _resolve("spectral", d, "quadrature")
    return _spectral_integral(f_s, f_lo, tau, d, cross=False).value


def coherent_intensity(f_s: SpectralDistribution, f_lo: SpectralDistribution, tau: float, d: int = 1) -> float:
    """Unnormalized intensity for coherent states in both ports.

    The one-photon integrand plus the cross term -2ω^d f_s f_lo sin ωτ,
    integrated in a single quadrature call (so the difference from
    :func:`fock_intensity` is a genuine dual-path check against
    :func:`mmi.spectra.weighted_overlap`, not an identity).
    """
    d, _ = _resolve("spectral", d, "quadrature")
    return _spectral_integral(f_s, f_lo, tau, d, cross=True).value


def _check_closed_form_regime(spec: SpectralDistribution, label: str):
    if spec.mean_freq < 2.0 * spec.width:
        raise ValueError(
            f"closed form requires mean frequency >= 2 widths for the {label} port "
            f"(got {spec.mean_freq} vs width {spec.width})"
        )
    if spec.mean_freq < 3.0 * spec.width:
        warnings.warn(
            f"closed form is a wide-pulse approximation; accuracy degrades for "
            f"{label} mean frequency below 3 widths",
            stacklevel=4,
        )


def _closed_pair_ratio(mean_s, width_s, mean_lo, width_lo, t, cross: bool, cos_lo):
    """The extended-range, ω -> ω̄ form on the delays ``t``, with the envelope e^{-(σ_s τ)²/4}
    and the cos ω̄_s τ it formed: ½(1 + fringe) against vacuum (``mean_lo`` None), else plus
    the LO term, ``cos_lo`` = cos ω̄_lo τ from the caller, less its product-Gaussian cross term
    when ``cross``.  Unguarded, so optimizers may roam."""
    env, cos_s = np.exp(-((width_s * t) ** 2) / 4.0), np.cos(t * mean_s)
    fringe = env * cos_s
    if mean_lo is None:
        return 0.5 * (1.0 + fringe), env, cos_s
    ratio = mean_lo / mean_s
    env_lo = env if width_lo == width_s else np.exp(-((width_lo * t) ** 2) / 4.0)  # the same bits
    out = 0.5 * (1.0 + ratio + fringe - ratio * env_lo * cos_lo)
    if cross:
        var_sum = width_s**2 + width_lo**2
        mu, _, detune = _product_gaussian(mean_s, width_s, mean_lo, width_lo)
        amp = math.sqrt(2.0 * width_s * width_lo / var_sum)
        env_mu = np.exp(-(width_s**2 * width_lo**2 / (2.0 * var_sum)) * t**2)
        out = out - (mu / mean_s) * amp * detune * env_mu * np.sin(mu * t)
    return out, env, cos_s


def _closed_pair(f_s: SpectralDistribution, f_lo: SpectralDistribution | None, tau, cross: bool):
    """The one guarded entry of every spectral closed form; ``f_lo`` None is a vacuum LO.

    Past σ|τ| = :data:`_ENVELOPE_REACH` (σ the narrower width) every envelope of the
    closed form is exactly 0 and the ratio its plateau, so the delays are clipped there:
    the squares and phases of larger delays would overflow.
    """
    _check_closed_form_regime(f_s, "signal")
    params, width = (f_s.mean_freq, f_s.width, None, None), f_s.width
    if f_lo is not None:
        _check_closed_form_regime(f_lo, "local oscillator")
        params, width = (*params[:2], f_lo.mean_freq, f_lo.width), min(width, f_lo.width)
    reach = _ENVELOPE_REACH / width

    def evaluate(t):
        t = np.clip(t, -reach, reach)
        return _closed_pair_ratio(*params, t, cross, None if f_lo is None else np.cos(t * f_lo.mean_freq))[0]

    out = _walk(_finite_delays(tau), evaluate)
    if np.any(out < 0.0):
        raise ClosedFormError(
            f"the spectral closed form, a wide-pulse approximation, gives a negative ratio "
            f"(minimum {float(np.min(out)):.3e}); method 'auto' (--method auto) evaluates the exact ratio"
        )
    return out if out.ndim else float(out)


def fock_intensity_closed(f_s: SpectralDistribution, f_lo: SpectralDistribution, tau) -> float:
    """Gaussian-envelope closed form of the two-photon ratio.

    ½[1 + ω̄_lo/ω̄_s + e^{-(στ)²/4}(cos τω̄_s - (ω̄_lo/ω̄_s) cos τω̄_lo)]
    for a common width σ (each cosine carries its own width's envelope in
    general); asymptotes to (1 + ω̄_lo/ω̄_s)/2.  It drops the term
    D(τ) = (σ²τ/4ω̄_s) e^{-(στ)²/4}(sin τω̄_lo - sin τω̄_s) of the exact
    ratio (see the module docstring), so its error is bounded by
    |ω̄_lo - ω̄_s|/(e ω̄_s) whatever ω̄/σ is, not made small by ω̄ ≫ σ.
    """
    return _closed_pair(f_s, f_lo, tau, cross=False)


def coherent_intensity_closed(f_s: SpectralDistribution, f_lo: SpectralDistribution, tau) -> float:
    """Closed-form coherent-pair ratio at the same approximation level.

    The two-photon closed form minus the cross term evaluated with the
    same ω -> ω̄ replacement and extended frequency range; for a common
    width σ the subtracted term is
    (ω̄₊/ω̄_s) e^{-(ω̄_s-ω̄_lo)²/4σ²} e^{-(στ)²/4} sin(ω̄₊τ),
    with ω̄₊ = (ω̄_s + ω̄_lo)/2.
    """
    return _closed_pair(f_s, f_lo, tau, cross=True)


def one_photon_vacuum_ratio(f_s: SpectralDistribution, tau) -> float:
    """½(1 + e^{-(στ)²/4} cos τω̄), for vacuum in the LO port.

    Under the pairs' regime rule; the fringe envelope is Gaussian in τ
    (quadratic log-envelope), not the exponential decay of a Lorentzian line.
    """
    return _closed_pair(f_s, None, tau, cross=False)


# ---------------------------------------------------------------------------
# thermal scenarios


def _counters(result: QuadratureResult, ratio_error) -> dict:
    """``metadata["quadrature"]``: panels and integrand evaluations summed over
    the calls, and the largest error estimate of a ratio."""
    return {
        "panels": result.panels,
        "evaluations": result.evaluations,
        "max_error": float(np.max(ratio_error, initial=0.0)),
    }


def _closed_fringe(a, d):
    """K_d at x = aπ by the closed form, forming aπ in place on the caller's
    a-grid; a temporary a-grid is freed as this returns."""
    a *= math.pi
    return fringe_deviation(a, d)


def _finish(k, k_lo, w):
    """½(1 + w + (K_s - w K_lo)) in place on ``k``, ``k_lo`` left as it is (None: a vacuum
    LO); grouping the kernel difference keeps the equal-temperature cancellation exact in
    floating point."""
    if k_lo is not None:
        k -= k_lo * w
    k += 1.0 + w
    k *= 0.5
    return k


def _closed_thermal(t, theta_s, theta_lo, w, d):
    """Closed-form ratios at the delays |τ| = ``t``, whose a_s-grid is formed in place on t."""
    # an a-grid, aπ or x^(d+1) that overflows to inf gives K_d its limit 0 at a = inf
    with np.errstate(over="ignore"):
        k_lo = None if theta_lo is None else _closed_fringe(t * theta_lo, d)
        t *= theta_s  # the last a-grid reuses |τ|
        k = _closed_fringe(t, d)
    return _finish(k, k_lo, w)


def _thermal(theta_s, theta_lo, tau, d, method):
    """Ratios ½[1 + w + K_d(a_s) - w K_d(a_lo)], a = |τ|θ, with the LO's weight
    w = (θ_lo/θ_s)^(d+1), and the quadrature counters (None for the closed form).

    ``theta_lo`` None is a vacuum LO: w = 0 and no second a-grid.  The closed
    form finishes each block of :func:`_walk` whole, |τ| and both a-grids
    included.  The quadrature path integrates every a-grid in one call, whose
    chunks run in one loop on the calling thread (:func:`~mmi.quadrature.integrate`).
    """
    tau = np.asarray(tau, dtype=float)
    vacuum = theta_lo is None
    w = 0.0 if vacuum else (theta_lo / theta_s) ** (d + 1)
    if method == "closed_form":
        return _walk(tau, lambda t: _closed_thermal(np.abs(t), theta_s, theta_lo, w, d)), None
    # every a-grid in one call; K = (1/J(d)) ∫₀^∞ x^d cos(ax)/(e^x - 1) dx
    j_const = bose_integral_constant(d)
    with np.errstate(over="ignore"):
        a = np.multiply.outer((theta_s,) if vacuum else (theta_s, theta_lo), np.abs(tau))
    if not np.isfinite(a).all():
        # as integrate refuses a phase ωτ it cannot represent, before any evaluation
        raise QuadratureError("oscillation phase beyond the floating-point range", math.inf, TOL * j_const)
    res = bose_weighted_integral(1.0, d, a, abs_tol=TOL * j_const)
    ks, errors = res.value / j_const, res.error / j_const
    k, k_lo = ks[0], None if vacuum else ks[1]
    return _finish(k, k_lo, w), _counters(res, 0.5 * (errors[0] if vacuum else errors[0] + w * errors[1]))


def _thermal_ratio(scenario, theta_s, theta_lo, tau, d, method):
    """:func:`_thermal` behind the checks of the public ratios; a float for a scalar delay."""
    d, method = _resolve(scenario, d, method)
    for theta in (theta_s,) if theta_lo is None else (theta_s, theta_lo):
        _check_temperature(theta)
    out = np.asarray(_thermal(theta_s, theta_lo, _finite_delays(tau), d, method)[0])
    return out if out.ndim else float(out)


def thermal_vacuum_ratio(theta: float, tau, d: int | None = None, method: str = "auto"):
    """Normalized intensity for thermal signal against vacuum; even in τ.

    ½[1 + K_d(a)], a = τθ, K_d(a) = (1/J(d)) ∫₀^∞ x^d cos(ax)/(e^x - 1) dx and
    J(d) = Γ(1+d)ζ(1+d).  The closed form (``auto``) is exact at d = 1 and 3,
    K_3 = 15((2 + cosh 2aπ)/sinh⁴(aπ) - 3/(aπ)⁴), K_1 = 3(1/(aπ)² - 1/sinh²(aπ));
    it agrees with quadrature to quadrature tolerance.  Decays to 1/2 like
    a^{-(d+1)}.  A missing d takes the default, 3, as :class:`IntensityRequest` does.
    It is :func:`thermal_thermal_ratio` with a zero-temperature reference.
    """
    return _thermal_ratio("thermal-vacuum", theta, None, tau, d, method)


def thermal_thermal_ratio(theta0: float, theta1: float, tau, method: str = "auto"):
    """Normalized intensity for thermal signal (θ₁) against thermal LO (θ₀).

    Exact closed form (three dimensions), through K = K_3 of :func:`thermal_vacuum_ratio`:

        ratio = ½[1 + r⁴ + K(a₁) - r⁴ K(a₀)],   r = θ₀/θ₁, a_i = τθ_i,

    in which the two power-law poles have cancelled algebraically, so equal
    temperatures give exactly 1 at every delay and the asymptote
    (1 + r⁴)/2 is approached exponentially fast, which is the interferometric
    thermometry signal.  The quadrature path integrates the two Bose
    fringe integrals directly.
    """
    return _thermal_ratio("thermal-thermal", theta1, theta0, tau, 3, method)


# ---------------------------------------------------------------------------
# request/interferogram surface


@dataclass(frozen=True)
class IntensityRequest:
    """A scenario to evaluate on a delay grid.

    ``method``: 'auto' picks the exact path for the scenario (the
    Gaussian-Fourier moments for spectral states, the hyperbolic closed
    form for thermal ones); 'closed_form' is available for the thermal
    scenarios at every dimension they admit and for the spectral
    approximations at d = 1.  ``dimension`` None takes the scenario's
    default: 3 for thermal signals, else 1.
    Delays must be finite; the request keeps a read-only copy of them.
    Quadrature runs at the fixed absolute and
    relative tolerance :data:`~mmi.quadrature.TOL` = 1e-12, which
    ``metadata["abs_tol"]`` and ``metadata["rel_tol"]`` record.
    """

    signal: PortState
    lo: PortState
    delays: Any
    dimension: int | None = None
    method: str = "auto"

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        delays = _finite_delays(np.array(self.delays, dtype=float, ndmin=1))  # a copy the caller cannot edit
        delays.flags.writeable = False
        object.__setattr__(self, "delays", delays)


@dataclass(frozen=True)
class Interferogram:
    """(τ, ⟨I⟩(τ)/⟨I⟩(0)) samples plus provenance metadata.

    The ratio is defined relative to the zero-delay intensity, so a τ = 0
    sample is identically 1.  ``normalization`` records the unnormalized
    ⟨I⟩(0) of the spectral exact and quadrature paths (module-internal
    scale, the same for both); closed-form paths are born normalized and
    record None, as every path does on an empty grid.  A quadrature run
    also records ``metadata["quadrature"] = {"panels", "evaluations",
    "max_error"}``: the panels and integrand nodes of every integration call
    summed, and the largest a-posteriori error estimate of a ratio.  The
    delays and ratios of a computed interferogram are read-only.
    """

    delays: np.ndarray
    ratios: np.ndarray
    normalization: float | None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.delays.shape != self.ratios.shape:
            raise ValueError("delay and ratio arrays differ in shape")
        if not np.isfinite(self.ratios).all():
            raise ValueError("interferogram contains non-finite ratios")
        if (self.ratios < 0.0).any():
            raise ValueError("interferogram contains negative ratios")
        at_zero = self.delays == 0.0
        if at_zero.any() and not (self.ratios[at_zero] == 1.0).all():
            raise ValueError("ratio at zero delay must be exactly 1")


def _describe_state(state: PortState) -> dict:
    if isinstance(state, Vacuum):
        return {"kind": "vacuum"}
    if isinstance(state, Thermal):
        return {"kind": "thermal", "theta": state.theta}
    kind = "one_photon" if isinstance(state, OnePhoton) else "coherent"
    return {"kind": kind, "mean_freq": state.spectrum.mean_freq, "width": state.spectrum.width}


def _scenario(sig: PortState, lo: PortState) -> str:
    if isinstance(sig, (OnePhoton, Coherent)) and (isinstance(lo, Vacuum) or type(lo) is type(sig)):
        return "spectral"
    if isinstance(sig, Thermal) and isinstance(lo, Vacuum):
        return "thermal-vacuum"
    if isinstance(sig, Thermal) and isinstance(lo, Thermal):
        return "thermal-thermal"
    raise ValueError(
        f"unsupported port combination: signal={type(sig).__name__}, lo={type(lo).__name__}"
    )


def compute_interferogram(request: IntensityRequest) -> Interferogram:
    """Evaluate a scenario over its delay grid.

    Supported port pairs: (one-photon, one-photon), (coherent, coherent),
    (one-photon | coherent, vacuum), (thermal, vacuum), (thermal, thermal).
    Vacuum is only admissible in the LO port: with an empty signal port
    the zero-delay intensity vanishes and no ratio exists.
    """
    sig, lo = request.signal, request.lo
    taus = request.delays
    scenario = _scenario(sig, lo)
    d, used = _resolve(scenario, request.dimension, request.method)

    norm = quad = None
    if scenario != "spectral":
        ratios, quad = _thermal(sig.theta, None if isinstance(lo, Vacuum) else lo.theta, taus, d, used)
    else:
        f_s = sig.spectrum
        f_lo = None if isinstance(lo, Vacuum) else lo.spectrum
        cross = isinstance(lo, Coherent)
        if used == "exact":
            ratios, norm = _spectral_exact(f_s, f_lo, taus, d, cross)
        elif used == "closed_form":
            ratios = _closed_pair(f_s, f_lo, taus, cross)
        elif not taus.size:  # no ratio reads a zero-delay integral, so none is integrated
            ratios, quad = np.empty(0), {"panels": 0, "evaluations": 0, "max_error": 0.0}
        else:
            # [0, τ…] in one grid: the zero-delay intensity normalizes the rest
            res = _spectral_integral(f_s, f_lo, np.concatenate([[0.0], taus.ravel()]), d, cross)
            ratios, norm = _normalized(res.value)
            quad = _counters(res, (res.error[1:] + np.abs(ratios) * res.error[0]) / norm)

    ratios = np.asarray(ratios, dtype=float).reshape(taus.shape)
    ratios[taus == 0.0] = 1.0
    ratios.flags.writeable = False
    meta = {
        "signal": _describe_state(sig),
        "lo": _describe_state(lo),
        "dimension": d,
        "method": used,
        "abs_tol": TOL,
        "rel_tol": TOL,
        "seed": None,
    }
    if quad is not None:
        meta["quadrature"] = quad
    return Interferogram(delays=taus, ratios=ratios, normalization=norm, metadata=meta)

