"""Independent high-precision oracles used by the tests.

Deliberately built from primitives the package does not use: Decimal
arithmetic for special functions and plain Riemann sums for integrals, so
agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 60


def decimal_erf(x: float) -> float:
    """erf via its Maclaurin series in 60-digit Decimal arithmetic."""
    if x < 0:
        return -decimal_erf(-x)
    xd = Decimal(repr(x))
    term = xd
    total = Decimal(0)
    n = 0
    while True:
        total += term / (2 * n + 1)
        n += 1
        term *= -xd * xd / n
        if abs(term) < Decimal("1e-55") and n > 4:
            break
    # Decimal(math.pi) is only double precision; build pi at full precision
    two_over_root_pi = Decimal(2) / _decimal_pi().sqrt()
    return float(two_over_root_pi * total)


def _decimal_pi() -> Decimal:
    """Machin's formula with Decimal arithmetic."""

    def arctan_inv(k: int) -> Decimal:
        term = Decimal(1) / k
        total = Decimal(0)
        sign = 1
        n = 0
        k2 = k * k
        while True:
            total += sign * term / (2 * n + 1)
            term /= k2
            sign = -sign
            n += 1
            if term < Decimal("1e-58"):
                break
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def decimal_fringe_deviation(x: float, d: int = 3) -> float:
    """The naive fringe kernel in 60-digit Decimal (exact at this scale).

    d = 3: 15((2 + cosh 2x)/sinh^4 x - 3/x^4); d = 1: 3(1/x^2 - 1/sinh^2 x).
    """
    xd = Decimal(repr(x))
    sinh_x = (xd.exp() - (-xd).exp()) / 2
    if d == 1:
        return float(3 * (1 / xd**2 - 1 / sinh_x**2))
    if d != 3:
        raise ValueError(d)
    cosh2x = ((2 * xd).exp() + (-2 * xd).exp()) / 2
    g = (2 + cosh2x) / sinh_x**4
    return float(15 * (g - 3 / xd**4))


def gaussian_amplitude(omega: np.ndarray, mean: float, width: float) -> np.ndarray:
    norm_sq = 0.5 * width * math.sqrt(math.pi) * (1.0 + math.erf(mean / width))
    return np.exp(-((omega - mean) ** 2) / (2.0 * width**2)) / math.sqrt(norm_sq)


def riemann_overlap(
    mean_f: float,
    width_f: float,
    mean_g: float,
    width_g: float,
    weight_power: int = 0,
    kernel: str = "one",
    tau: float = 0.0,
    step_fraction: float = 1e-4,
) -> float:
    """Midpoint Riemann sum of the spectral overlap at Δω = σ·step_fraction."""
    width_ref = min(width_f, width_g)
    hi = max(mean_f + 10.0 * width_f, mean_g + 10.0 * width_g)
    dw = width_ref * step_fraction
    centers = np.arange(dw / 2.0, hi, dw)
    y = gaussian_amplitude(centers, mean_f, width_f) * gaussian_amplitude(centers, mean_g, width_g)
    if weight_power:
        y = y * centers**weight_power
    if kernel == "cos":
        y = y * np.cos(centers * tau)
    elif kernel == "sin":
        y = y * np.sin(centers * tau)
    elif kernel != "one":
        raise ValueError(kernel)
    return float(np.sum(y) * dw)


def riemann_bose_cos(d: int, a: float, hi: float = 60.0, n: int = 2_000_000) -> float:
    """Midpoint Riemann sum of x^d cos(ax)/(e^x - 1)."""
    dx = hi / n
    x = np.arange(dx / 2.0, hi, dx)
    y = x**d * np.cos(a * x) / np.expm1(x)
    return float(np.sum(y) * dx)
