"""Input port states: vacuum, one-photon Fock, coherent, and thermal.

The interferometer accepts one state per port.  Spectral states carry a
Gaussian amplitude; thermal states are characterized entirely by a
dimensionless temperature θ (k_B T / ħ in the working frequency unit),
because the detected mean intensity depends on the state only through the
per-mode mean occupation n̄(ω, θ).

Thermal light is chaotic: its phase-space representation is a circularly
symmetric complex Gaussian per mode with E[|α_j|²] = n̄(ω_j, θ); the
mode-density factor ω^(d-1) δω of a d-dimensional field belongs to the
intensity sums, not to the amplitudes.  The same law has a polar form:
|α|² = n̄·E with E ~ Exp(1), and an independent phase uniform on [0, 2π).
(For α = √(n̄/2)(X + iY) with X, Y independent standard normals, X² + Y²
is χ² with two degrees of freedom, which is 2·Exp(1), and rotation
invariance makes the phase uniform and independent of the modulus.)  The
Monte-Carlo oracle draws that form, because the intensity needs only |α|²
and relative phases; see :func:`mmi.oracle.thermal_intensity_montecarlo`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .quadrature import TOL, QuadratureResult, integrate_half_line, tail_cutoff
from .spectra import SpectralDistribution
from .thermal_kernels import bose_integral_constant

__all__ = [
    "Coherent",
    "OnePhoton",
    "PortState",
    "Thermal",
    "Vacuum",
    "bose_weighted_integral",
    "mean_occupation",
]


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class OnePhoton:
    spectrum: SpectralDistribution


@dataclass(frozen=True)
class Coherent:
    spectrum: SpectralDistribution


def _check_temperature(theta) -> None:
    if not 0.0 < theta < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {theta}")


@dataclass(frozen=True)
class Thermal:
    theta: float  # dimensionless temperature, k_B T / hbar in frequency units

    def __post_init__(self):
        _check_temperature(self.theta)


PortState = Vacuum | OnePhoton | Coherent | Thermal


def mean_occupation(omega, theta: float):
    """Bose-Einstein mean photon number 1/(exp(ω/θ) - 1).

    Strictly decreasing in ω, diverging like θ/ω as ω -> 0+.  The pole is
    outside the domain: ω must be positive.
    """
    _check_temperature(theta)
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):  # NaN fails it too
        raise ValueError("mean occupation requires omega > 0")
    out = 1.0 / np.expm1(w / theta)
    return out if out.ndim else float(out)


def bose_weighted_integral(theta: float, d: int, tau=0.0, *, abs_tol: float | None = None) -> QuadratureResult:
    """∫₀^∞ ω^d n̄(ω, θ) cos(ωτ) dω, the blackbody fringe integral at a = τθ, by quadrature.

    At τ = 0 it is θ^(d+1) Γ(1+d) ζ(1+d).  d is any odd dimension
    :func:`~mmi.thermal_kernels.bose_integral_constant` accepts; which d a
    scenario admits is decided by the scenario table in :mod:`mmi.intensity`.
    ``tau`` may be an array: the Bose weight x^d/(eˣ - 1) is evaluated once
    per node for every delay, and each delay meets max(``abs_tol``,
    TOL·|value|), TOL = :data:`~mmi.quadrature.TOL`; ``abs_tol`` defaults
    to 1e-13 θ^(d+1) J(d).  The stated error adds the rounding floor of the
    phase and the envelope's tail past the Bose cutoff X, 1.582 θ^(d+1) Γ(d+1, X),
    and a delay with |τ|θ past 2²⁶ over the Bose cutoff raises
    :class:`~mmi.quadrature.QuadratureError` (see :mod:`mmi.quadrature`).  Returns
    the :class:`~mmi.quadrature.QuadratureResult` with value and error in
    the shape of ``tau`` (floats for a scalar).
    """
    _check_temperature(theta)
    j_const = bose_integral_constant(d)  # rejects a d it has no closed form for

    a = np.abs(np.asarray(tau, dtype=float)) * theta
    scale = theta ** (d + 1)
    if abs_tol is None:
        abs_tol = 1e-13 * scale * j_const
    tol = abs_tol / scale
    cutoff = _bose_cutoff(d, tol)

    result = integrate_half_line(
        # the Bose weight is the cos coefficient; every node is interior, so x > 0 and
        # the quotient is exact to rounding, with no 0/0 at the removable singularity
        lambda x: (None, x**d / np.expm1(x), None),
        envelope=_bose_envelope(d),
        abs_tol=tol,
        rel_tol=TOL,
        cutoff=cutoff,
        rates=a,
    )
    # the truncated tail: ∫_X^∞ of the envelope, 1.582 Γ(d+1, X) = 1.582 d! e^-X Σ_{k≤d} X^k/k!, bounds it
    tail = _BOSE_BOUND * math.factorial(d) * math.exp(-cutoff) * sum(cutoff**k / math.factorial(k) for k in range(d + 1))
    return replace(result, value=scale * result.value, error=scale * (result.error + tail))


# 1/(e^x - 1) <= e^-x / (1 - e^-1) <= 1.582 e^-x for x >= 1
_BOSE_BOUND = 1.582


def _bose_envelope(d):
    def envelope(x):
        # x^d e^-x peaks at x = d, so taking y = max(x, d) keeps the bound
        # non-increasing from 1, where tail_cutoff starts
        y = max(x, d)
        return y**d * math.exp(-y) * _BOSE_BOUND if x >= 1.0 else 2.0 * x ** (d - 1)

    return envelope


@functools.lru_cache(maxsize=64)
def _bose_cutoff(d, abs_tol: float) -> float:
    # the truncation point depends on d and the tolerance, not on τ, so a
    # delay grid searches for it once
    return tail_cutoff(_bose_envelope(d), abs_tol)
