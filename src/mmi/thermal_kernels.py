"""Numerically stable kernels for the thermal interference closed forms.

The blackbody fringe formulas involve g(x) = (2 + cosh 2x)/sinh^4 x combined
with a subtracted 3/x^4 pole of identical strength.  Near x = 0 the naive
difference loses all significant digits (both operands scale like 3/x^4
while the difference tends to 1/15), and for large x naive cosh/sinh
overflow.  ``fringe_deviation(x)`` evaluates 15 (g(x) - 3/x^4), the
quantity that enters the normalized intensities, in a cancellation- and
overflow-free form: an even power series for x below the switch point, and
above it the direct difference with g rearranged as
8 e^(-2x) (1 + 4 e^(-2x) + e^(-4x)) / (1 - e^(-2x))^4, which stays finite
where cosh 2x overflows.

The series coefficients are exact rationals: the Taylor coefficients of the
deviation are 90 C(2j+3, 3) ζ(2j+4) / π^(2j+4) with alternating sign, and
ζ(2m)/π^(2m) = 2^(2m) |B_2m| / (2 (2m)!) in terms of Bernoulli numbers, so
everything is generated with Fraction arithmetic at import time.  The two
branches agree to better than 1e-12 in a neighbourhood of the switch point
x = 1 (pinned by a test).
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
    """B_0 .. B_n_max by the defining recurrence (exact rationals)."""
    bern = [Fraction(0)] * (n_max + 1)
    bern[0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * bern[k]
        bern[n] = -acc / (n + 1)
    return bern


_BERNOULLI = _bernoulli(2 * _SERIES_TERMS + 4)


def zeta_even(two_m: int) -> float:
    """Riemann zeta at a positive even integer, from Bernoulli numbers."""
    if two_m <= 0 or two_m % 2:
        raise ValueError("argument must be a positive even integer")
    q = Fraction(2**two_m) * abs(_BERNOULLI[two_m]) / (2 * math.factorial(two_m))
    return float(q) * math.pi**two_m


def _deviation_coefficients() -> np.ndarray:
    coeffs = []
    for j in range(_SERIES_TERMS + 1):
        m = j + 2
        q = Fraction(2 ** (2 * m)) * abs(_BERNOULLI[2 * m]) / (2 * math.factorial(2 * m))
        c = Fraction(90) * math.comb(2 * j + 3, 3) * q
        coeffs.append(float(c) * (-1) ** j)
    return np.array(coeffs)


_DEV_COEFFS = _deviation_coefficients()


def _deviation_series(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    acc = np.zeros_like(x2)
    for c in _DEV_COEFFS[::-1]:
        acc = acc * x2 + c
    return acc


def _kernel_exp(x: np.ndarray) -> np.ndarray:
    e2 = np.exp(-2.0 * x)
    return 8.0 * e2 * (1.0 + 4.0 * e2 + e2 * e2) / (1.0 - e2) ** 4


def fringe_deviation(x):
    """15 ((2 + cosh 2x) / sinh^4 x - 3/x^4), cancellation-free.

    Tends to 1 as x -> 0+ (which pins the zero-delay normalization of the
    thermal interferograms) and to -45/x^4 as x -> inf.  Accepts scalars or
    arrays; x must be >= 0.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be non-negative")
    out = np.empty_like(arr)
    small = arr < SERIES_SWITCH
    if small.any():
        out[small] = _deviation_series(arr[small])
    big = ~small
    if big.any():
        xb = arr[big]
        out[big] = 15.0 * _kernel_exp(xb) - 45.0 / xb**4
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def bose_integral_constant(d) -> float:
    """The full Bose moment: integral over [0, inf) of x^d / (e^x - 1).

    Equals Gamma(1+d) zeta(1+d), exact (Bernoulli-rational) for the odd
    positive integer dimensions the interferometer formulas use.  Memoized:
    it runs Fraction arithmetic.
    """
    if not (float(d).is_integer() and d > 0 and int(d) % 2 == 1):
        raise ValueError(f"dimension must be a positive odd integer, got {d}")
    return math.factorial(int(d)) * zeta_even(int(d) + 1)
