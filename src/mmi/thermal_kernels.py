"""Numerically stable kernels for the thermal interference closed forms.

For odd d = 2k + 1, summing 1/(e^t - 1) = Σₙ e^{-nt} gives (Gradshteyn &
Ryzhik 3.911.2) ∫₀^∞ sin(at)/(e^t - 1) dt = S(a) = (π/2) coth πa - 1/(2a),
and d derivatives in a turn sin(at) into (-1)^k t^d cos(at).  So at x = πa,
with J(d) = Γ(1+d)ζ(1+d), the normalized fringe integral is

    K_d = (1/J(d)) ∫₀^∞ t^d cos(at)/(e^t - 1) dt
        = (-1)^k (π^(d+1)/J(d)) [coth^(d)(x)/2 + d!/(2x^(d+1))]:

15((2 + cosh 2x)/sinh⁴x - 3/x⁴) at d = 3, 3(1/x² - 1/sinh²x) at d = 1.
The pole cancels every digit near x = 0 and cosh overflows for large x, so
``fringe_deviation(x, d)`` takes, below x = 1, the even series with x^(2j)
coefficient (-1)^j C(d+2j, d) ζ(d+1+2j)/(π^(2j) ζ(d+1)), exact rationals
by ζ(2n)/π^(2n) = 2^(2n)|B_2n|/(2 (2n)!).  Above it, with q = e^(-2x),
coth x = 1 + 2 Σₙ qⁿ gives, for m ≥ 1, coth^(m) x = 2(-2)^m Σₙ n^m qⁿ =
2(-2)^m q A_m(q)/(1-q)^(m+1), whose integer numerator A_m holds the
Eulerian numbers (1 + 4q + q² at m = 3); it stays finite where cosh 2x
overflows.  K_d takes m = d.  Both branches are generated per odd d ≤ 7 and
agree to 1e-12 at the switch for d = 1 and 3 (2e-11 at d = 7).  The
Bernoulli table ends at B_54, which the 25-term series needs at d = 3; d = 5
and 7 take the 24 and 23 terms it holds.

The slope K_d'(x), which the thermal fit's Jacobian needs
(``_fringe_slope``), is the same form one order up,

    K_d' = (-1)^k (π^(d+1)/J(d)) [coth^(d+1)(x)/2 - (d+1)!/(2x^(d+2))],

so the same generator builds it at m = d + 1 (A_4 = 1 + 11q + 11q² + q³ at
d = 3), its series K_d's differentiated term by term and held as x·H(x²),
and the same two branches evaluate it.  It is within 1e-14 of the
derivative of the closed form at d = 1 and 3 on (0, 40]; at the switch,
where the exponential branch sums two terms of ≈ 180 at d = 3, the branches
meet within 2e-15.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "SERIES_SWITCH",
    "bose_integral_constant",
    "fringe_deviation",
    "zeta_even",
]

SERIES_SWITCH = 1.0
_SERIES_TERMS = 25


def _bernoulli(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max (exact rationals, B_1 = -1/2) from the integer tangent numbers T_k.

    T_1 .. T_m by Knuth & Buckholtz (1967), then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1));
    the odd B_n past B_1 vanish.
    """
    m = n_max // 2
    tangent = [0, 1] + [0] * (m - 1)  # tangent[k] = T_k
    for k in range(2, m + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    bern = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k in range(1, m + 1):
        bern[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4**k * (4**k - 1))
    return bern[:n_max + 1]


_BERNOULLI = _bernoulli(2 * _SERIES_TERMS + 4)


def _zeta_over_pi(two_m: int) -> Fraction:
    """ζ(2m)/π^(2m), an exact rational."""
    if two_m >= len(_BERNOULLI):
        raise ValueError(f"ζ({two_m}) needs B_{two_m}, beyond the Bernoulli table (B_0 .. B_{len(_BERNOULLI) - 1})")
    return Fraction(2**two_m) * abs(_BERNOULLI[two_m]) / (2 * math.factorial(two_m))


def zeta_even(two_m: int) -> float:
    """Riemann zeta at a positive even integer, from Bernoulli numbers."""
    if two_m <= 0 or two_m % 2:
        raise ValueError("argument must be a positive even integer")
    return float(_zeta_over_pi(two_m)) * math.pi**two_m


def _odd_dimension(d) -> int:
    if not (float(d).is_integer() and d > 0 and int(d) % 2 == 1):
        raise ValueError(f"dimension must be a positive odd integer, got {d}")
    return int(d)


@functools.lru_cache(maxsize=None)
def _kernel(d, slope=False):
    """(series from the top term down, slope, π^(d+1)/J(d), (-1)^k (-2)^m, A_m, pole, m + 1)
    of K_d at m = d, or of its slope K_d' at m = d + 1; see the module docstring.  Validates
    d once per value."""
    d = _odd_dimension(d)
    if d > 7:
        raise ValueError(f"the fringe kernel is built for odd d <= 7, got {d}")
    m = d + slope
    base = _zeta_over_pi(d + 1)  # J(d)/(d! π^(d+1))
    terms = min(_SERIES_TERMS, (len(_BERNOULLI) - 2 - d) // 2)
    series = [(-1) ** j * math.comb(d + 2 * j, d) * _zeta_over_pi(d + 1 + 2 * j) / base for j in range(terms + 1)]
    if slope:  # K_d' = x·H(x²), H's x^(2j-2) coefficient 2j times K_d's x^(2j) one
        series = [2 * j * c for j, c in enumerate(series)][1:]
    # the Eulerian numbers A(m, r) = Σᵢ (-1)^i C(m+1, i) (r+1-i)^m
    eulerian = [sum((-1) ** i * math.comb(m + 1, i) * (r + 1 - i) ** m for i in range(r + 1)) for r in range(m)]
    sign = (-1) ** (d // 2)
    pole = -(-1) ** m * sign * Fraction(math.factorial(m), 2 * math.factorial(d)) / base
    return (tuple(float(c) for c in reversed(series)), slope, float(1 / (math.factorial(d) * base)),
            float(sign * (-2) ** m), tuple(map(float, eulerian)), float(pole), m + 1)


def _series_branch(x: np.ndarray, kernel) -> np.ndarray:
    x2 = x * x
    acc = np.zeros_like(x2)
    for c in kernel[0]:
        acc = acc * x2 + c
    return acc * x if kernel[1] else acc


def _exponential_branch(x: np.ndarray, kernel) -> np.ndarray:
    _, _, scale, gain, eulerian, pole, power = kernel
    q = np.exp(-2.0 * x)
    return scale * (_eulerian_sum(q, eulerian) * (gain * q) / (1.0 - q) ** power) + pole / x**power


def _eulerian_sum(q: np.ndarray, coeffs: tuple) -> np.ndarray:
    """coeffs[0] + coeffs[1] q + ... + q^m upwards (Eulerian numbers end in 1): 1 + 4q + q·q
    at d = 3.  Called before the caller's other temporaries exist, it costs no extra array."""
    out, term = coeffs[0], q
    for c in coeffs[1:-1]:
        out = out + c * term
        term = term * q
    return out + term if len(coeffs) > 1 else out


def fringe_deviation(x, d: int = 3):
    """K_d(x), the normalized Bose fringe at x = πa, cancellation-free, for odd d ≤ 7.

    Tends to 1 as x -> 0+ (which pins the zero-delay normalization of the
    thermal interferograms) and to its pole term, -45/x⁴ at d = 3, as
    x -> inf.  Accepts scalars or arrays, x >= 0; its temporaries scale with x.
    """
    kernel = _kernel(d)
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails it too
        raise ValueError("kernel argument must be non-negative")
    out = _by_branch(arr, kernel)
    return out if out.ndim else float(out)


def _by_branch(arr: np.ndarray, kernel) -> np.ndarray:
    out = np.empty(arr.shape)
    small = arr < SERIES_SWITCH
    for mask, branch in ((small, _series_branch), (~small, _exponential_branch)):
        if mask.any():
            out[mask] = branch(arr[mask], kernel)
    return out


def _fringe_slope(x: np.ndarray, d: int = 3) -> np.ndarray:
    """K_d'(x), the slope of :func:`fringe_deviation`, on an array x >= 0 (see the module
    docstring); an x of inf gives 0."""
    return _by_branch(x, _kernel(d, True))


@functools.lru_cache(maxsize=64)
def bose_integral_constant(d) -> float:
    """The full Bose moment: integral over [0, inf) of x^d / (e^x - 1).

    Equals Gamma(1+d) zeta(1+d), exact (Bernoulli-rational) for odd d up to
    53, where the Bernoulli table ends.  Memoized: it runs Fraction arithmetic.
    """
    return math.factorial(_odd_dimension(d)) * zeta_even(int(d) + 1)
