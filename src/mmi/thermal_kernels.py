"""Numerically stable kernels for the thermal interference closed forms.

For odd d = 2k + 1, summing 1/(e^t - 1) = Σₙ e^{-nt} gives (Gradshteyn &
Ryzhik 3.911.2) ∫₀^∞ sin(at)/(e^t - 1) dt = S(a) = (π/2) coth πa - 1/(2a),
and d derivatives in a turn sin(at) into (-1)^k t^d cos(at).  So at x = πa,
with J(d) = Γ(1+d)ζ(1+d) and coth^(d) = P_d(coth) (a polynomial, as
coth' = 1 - coth²), the normalized fringe integral is

    K_d = (1/J(d)) ∫₀^∞ t^d cos(at)/(e^t - 1) dt
        = (-1)^k (π^(d+1)/J(d)) [P_d(coth x)/2 + d!/(2x^(d+1))]:

15((2 + cosh 2x)/sinh⁴x - 3/x⁴) at d = 3, 3(1/x² - 1/sinh²x) at d = 1.
The pole cancels every digit near x = 0 and cosh overflows for large x, so
``fringe_deviation(x, d)`` takes, below x = 1, the even series with x^(2j)
coefficient (-1)^j C(d+2j, d) ζ(d+1+2j)/(π^(2j) ζ(d+1)), exact rationals
by ζ(2m)/π^(2m) = 2^(2m)|B_2m|/(2 (2m)!).  Above it, with q = e^(-2x),
coth x = 1 + 2 Σₙ qⁿ gives P_d(coth x) = -2^(d+1) Σₙ n^d qⁿ =
-2^(d+1) q A_d(q)/(1-q)^(d+1), whose integer numerator A_d holds the
Eulerian numbers (1 + 4q + q² at d = 3); it stays finite where cosh 2x
overflows.  Both are generated per odd d ≤ 7 and agree to 1e-12 at the
switch for d = 1 and 3 (2e-11 at d = 7).  The Bernoulli table ends at B_54,
which the 25-term series needs at d = 3; d = 5 and 7 take the 24 and 23
terms it holds.
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
def _kernel(d):
    """(series from the top term down, π^(d+1)/J(d), -(-1)^k 2^d, A_d, pole, d + 1)
    of K_d; see the module docstring.  Validates d once per value."""
    d = _odd_dimension(d)
    if d > 7:
        raise ValueError(f"the fringe kernel is built for odd d <= 7, got {d}")
    base = _zeta_over_pi(d + 1)  # J(d)/(d! π^(d+1))
    terms = min(_SERIES_TERMS, (len(_BERNOULLI) - 2 - d) // 2)
    series = [(-1) ** j * math.comb(d + 2 * j, d) * _zeta_over_pi(d + 1 + 2 * j) / base for j in range(terms + 1)]
    # the Eulerian numbers A(d, m) = Σᵢ (-1)^i C(d+1, i) (m+1-i)^d
    eulerian = [sum((-1) ** i * math.comb(d + 1, i) * (m + 1 - i) ** d for i in range(m + 1)) for m in range(d)]
    sign = (-1) ** (d // 2)
    return (tuple(float(c) for c in reversed(series)), float(1 / (math.factorial(d) * base)), float(-sign * 2**d),
            tuple(map(float, eulerian)), float(sign / (2 * base)), d + 1)


def _series_branch(x: np.ndarray, kernel) -> np.ndarray:
    x2 = x * x
    acc = np.zeros_like(x2)
    for c in kernel[0]:
        acc = acc * x2 + c
    return acc


def _exponential_branch(x: np.ndarray, kernel) -> np.ndarray:
    _, scale, gain, eulerian, pole, power = kernel
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
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be non-negative")
    out = np.empty(arr.shape)
    small = arr < SERIES_SWITCH
    for mask, branch in ((small, _series_branch), (~small, _exponential_branch)):
        if mask.any():
            out[mask] = branch(arr[mask], kernel)
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def bose_integral_constant(d) -> float:
    """The full Bose moment: integral over [0, inf) of x^d / (e^x - 1).

    Equals Gamma(1+d) zeta(1+d), exact (Bernoulli-rational) for odd d up to
    53, where the Bernoulli table ends.  Memoized: it runs Fraction arithmetic.
    """
    return math.factorial(_odd_dimension(d)) * zeta_even(int(d) + 1)
