"""Exact references for the benchmark's correctness checks; nothing here imports mmi.

Three independent routes, none shared with the package:

* spectral states: the Gaussian-Fourier identity, with c = mu + i s^2 tau / 2,
      int_0^inf w exp(-(w-mu)^2/s^2) exp(i w tau) dw
          = exp(i mu tau - (s tau)^2/4) [(s^2/2) exp(-c^2/s^2) + c s (sqrt(pi)/2) erfc(-c/s)],
  evaluated with ``scipy.special.erfc`` on complex arguments;
* thermal states: the geometric (Mittag-Leffler) series
      int_0^inf x^d cos(a x)/(e^x - 1) dx = d! sum_{n>=1} Re (n - i a)^-(d+1),
  summed to N - 1 with an Euler-Maclaurin tail, vectorised in numpy;
* the documented closed forms (one-photon/vacuum, Fock and coherent pairs),
  written out from their formulas for the paths that promise exactly them.

``self_check`` triangulates the first two against mpmath at 30 digits, both
through the hyperbolic forms and through direct quadrature of the defining
integrals.  scipy and mpmath are imported lazily, so the worker process that
generates inputs never loads them.
"""

from __future__ import annotations

import math

import numpy as np

RATIO_TOL = 1e-9  # |ratio - reference|, the dual-path tolerance of `mmi verify`
PARAM_TOL = 1e-6  # relative parameter error of fits and of the coherence horizon
MC_SIGMAS = 5.0  # Monte-Carlo ratios must lie within this many standard errors

_TERMS = 48
J1 = math.pi**2 / 6.0  # 1! zeta(2)
J3 = math.pi**4 / 15.0  # 3! zeta(4)


# ---------------------------------------------------------------------------
# thermal: geometric series with an Euler-Maclaurin tail


def bose_fringe(a, d: int) -> np.ndarray:
    """int_0^inf x^d cos(a x)/(e^x - 1) dx for odd d, vectorised over a."""
    a = np.abs(np.asarray(a, dtype=float))
    p = d + 1
    inv = 1.0 / (np.arange(1, _TERMS)[None, :] - 1j * a.reshape(-1, 1))
    power = inv
    for _ in range(p - 1):
        power = power * inv
    head = power.real.sum(axis=1)
    zn = _TERMS - 1j * a.reshape(-1)
    tail = (
        zn ** (1 - p) / (p - 1)
        + 0.5 * zn**-p
        + p * zn ** (-p - 1) / 12.0
        - p * (p + 1) * (p + 2) * zn ** (-p - 3) / 720.0
        + p * (p + 1) * (p + 2) * (p + 3) * (p + 4) * zn ** (-p - 5) / 30240.0
    ).real
    return (math.factorial(d) * (head + tail)).reshape(a.shape)


def thermal_vacuum(a, d: int) -> np.ndarray:
    """Thermal signal against vacuum at a = tau * theta."""
    return 0.5 * (1.0 + bose_fringe(a, d) / (J1 if d == 1 else J3))


def thermal_thermal(a0, t1_over_t0: float) -> np.ndarray:
    """Thermal signal (theta1) against thermal LO (theta0) at a0 = tau * theta0, d = 3."""
    a0 = np.asarray(a0, dtype=float)
    q = t1_over_t0**-4
    return 0.5 * (1.0 + q) + (bose_fringe(t1_over_t0 * a0, 3) - q * bose_fringe(a0, 3)) / (2.0 * J3)


# ---------------------------------------------------------------------------
# spectral: Gaussian-Fourier identity


def gauss_fourier(mu: float, s: float, tau) -> np.ndarray:
    """int_0^inf w exp(-(w-mu)^2/s^2) exp(i w tau) dw (complex)."""
    from scipy.special import erfc

    t = np.asarray(tau, dtype=float)
    c = mu + 0.5j * s * s * t
    front = np.exp(1j * mu * t - 0.25 * (s * t) ** 2)
    return front * (0.5 * s * s * np.exp(-((c / s) ** 2)) + c * s * (0.5 * math.sqrt(math.pi)) * erfc(-c / s))


def _norm_sq(mean: float, width: float) -> float:
    # int_0^inf exp(-(w-mean)^2/width^2) dw
    return 0.5 * width * math.sqrt(math.pi) * (1.0 + math.erf(mean / width))


def spectral_ratio(kind: str, mean_s, width_s, mean_lo, width_lo, tau) -> np.ndarray:
    """Exact normalized intensity, d = 1, for 'fock', 'coherent' or 'one_photon_vacuum'."""
    t = np.asarray(tau, dtype=float)
    g_s = gauss_fourier(mean_s, width_s, t).real
    g_s0 = gauss_fourier(mean_s, width_s, 0.0).real
    a_s = 1.0 / _norm_sq(mean_s, width_s)
    if kind == "one_photon_vacuum":
        return 0.5 * (1.0 + g_s / g_s0)
    a_lo = 1.0 / _norm_sq(mean_lo, width_lo)
    g_lo = gauss_fourier(mean_lo, width_lo, t).real
    g_lo0 = gauss_fourier(mean_lo, width_lo, 0.0).real
    total = a_s * (g_s0 + g_s) + a_lo * (g_lo0 - g_lo)
    if kind == "coherent":
        # f_s f_lo is one Gaussian in w: centre m, width sx, height pre
        var = width_s**2 + width_lo**2
        m = (mean_s * width_lo**2 + mean_lo * width_s**2) / var
        sx = math.sqrt(2.0 * width_s**2 * width_lo**2 / var)
        pre = math.exp(-((mean_s - mean_lo) ** 2) / (2.0 * var)) * math.sqrt(a_s * a_lo)
        total = total - 2.0 * pre * gauss_fourier(m, sx, t).imag
    return total / (2.0 * a_s * g_s0)


# ---------------------------------------------------------------------------
# documented closed forms


def one_photon_vacuum_closed(mean, width, tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    return 0.5 * (1.0 + np.exp(-0.25 * (width * t) ** 2) * np.cos(mean * t))


def fock_closed(mean_s, mean_lo, width, tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    r = mean_lo / mean_s
    env = np.exp(-0.25 * (width * t) ** 2)
    return 0.5 * (1.0 + r + env * (np.cos(mean_s * t) - r * np.cos(mean_lo * t)))


def coherent_closed(mean_s, mean_lo, width, tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    mid = 0.5 * (mean_s + mean_lo)
    cross = (mid / mean_s) * math.exp(-((mean_s - mean_lo) ** 2) / (4.0 * width**2))
    return fock_closed(mean_s, mean_lo, width, t) - cross * np.exp(-0.25 * (width * t) ** 2) * np.sin(mid * t)


def fit_model(model: str, tau, params, fixed: dict) -> np.ndarray:
    """The forward models of the fits, from their documented formulas."""
    if model == "thermal_thermal":
        return thermal_thermal(np.asarray(tau) * fixed["theta0"], params[0])
    mean, width = params
    if model == "one_photon_vacuum":
        return one_photon_vacuum_closed(mean, width, tau)
    if model == "fock_fock":
        return fock_closed(mean, fixed["lo_mean_freq"], width, tau)
    return coherent_closed(mean, fixed["lo_mean_freq"], width, tau)


def gauss_newton_step(model: str, tau, data, sigma, params, fixed: dict) -> np.ndarray:
    """One Gauss-Newton step for sum(((model - data)/sigma)^2) from `params`.

    Next to the minimum of a low-noise problem the step is the distance to
    the minimum, to second order in that distance.
    """
    w = 1.0 / np.asarray(sigma, dtype=float)
    p = np.array(params, dtype=float)
    r = w * (fit_model(model, tau, p, fixed) - data)
    jac = np.empty((r.size, p.size))
    for i in range(p.size):
        h = 1e-6 * abs(p[i])
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = w * (fit_model(model, tau, up, fixed) - fit_model(model, tau, dn, fixed)) / (2.0 * h)
    return np.linalg.lstsq(jac, -r, rcond=None)[0]


# ---------------------------------------------------------------------------
# thermal coherence horizon


class CoherenceHorizon:
    """Last a where |thermal_vacuum(a, 3) - 1/2| >= epsilon, for many epsilons at once."""

    def __init__(self, a_max: float = 12.0, points: int = 24001):
        self.grid = np.linspace(1e-4, a_max, points)
        dev = np.abs(thermal_vacuum(self.grid, 3) - 0.5)
        # running maximum from the right: the deviation stays below M[i] beyond grid[i]
        self.tail_max = np.maximum.accumulate(dev[::-1])[::-1]

    def __call__(self, epsilon) -> np.ndarray:
        eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
        # last index whose tail maximum still reaches epsilon
        i = np.searchsorted(-self.tail_max, -eps, side="right") - 1
        lo, hi = self.grid[i].copy(), self.grid[i + 1].copy()
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = np.abs(thermal_vacuum(mid, 3) - 0.5) >= eps
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# self-check against mpmath


def self_check() -> float:
    """Worst relative disagreement of the float references with 30-digit mpmath."""
    import mpmath as mp

    mp.mp.dps = 30
    worst = 0.0

    def rel(x, ref):
        ref = float(ref)
        return abs(float(x) - ref) / max(abs(ref), 1e-300)

    # thermal series against the hyperbolic forms and against quadrature
    for a in (0.003, 0.37, 1.0, 2.9, 9.5):
        x = mp.pi * mp.mpf(a)
        d1 = 1 / (2 * mp.mpf(a) ** 2) - mp.pi**2 / (2 * mp.sinh(x) ** 2)
        d3 = mp.pi**4 * ((2 + mp.cosh(2 * x)) / mp.sinh(x) ** 4 - 3 / x**4)
        worst = max(worst, rel(bose_fringe(a, 1), d1), abs(float(bose_fringe(a, 3) - d3)) / J3)
    for a in (0.5, 2.0):
        quad = mp.quad(lambda x: x**3 * mp.cos(a * x) / mp.expm1(x), [0, 20, 60])
        worst = max(worst, abs(float(bose_fringe(a, 3) - quad)) / J3)

    # Gaussian-Fourier identity against 30-digit erfc and against quadrature
    for mu, s, tau in ((3.0, 1.0, 0.7), (30.0, 0.5, 5.0), (300.0, 2.0, 1.3), (3.0e4, 1.0, 2.0)):
        c = mp.mpf(mu) + 0.5j * mp.mpf(s) ** 2 * tau
        exact = mp.exp(1j * mu * tau - (s * tau) ** 2 / 4) * (
            s**2 / 2 * mp.exp(-(c**2) / s**2) + c * s * mp.sqrt(mp.pi) / 2 * mp.erfc(-c / s)
        )
        got = gauss_fourier(mu, s, tau)
        worst = max(worst, abs(complex(got) - complex(exact)) / abs(complex(exact)))
    for mu, s, tau in ((3.0, 1.0, 0.7), (12.0, 1.0, 2.5)):
        g = lambda w: w * mp.exp(-((w - mu) ** 2) / s**2)  # noqa: E731
        re = mp.quad(lambda w: g(w) * mp.cos(w * tau), [0, mu, mu + 12 * s])
        im = mp.quad(lambda w: g(w) * mp.sin(w * tau), [0, mu, mu + 12 * s])
        got = gauss_fourier(mu, s, tau)
        worst = max(worst, abs(complex(got) - complex(re, im)) / abs(complex(re, im)))
    return worst
