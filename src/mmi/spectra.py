"""Gaussian one-photon angular-frequency distributions.

The amplitude is f(ω) = exp(-(ω - ω̄)²/2σ²)/N on ω >= 0, with N fixed by
unit norm of f², which brings in an error function because the domain is
truncated at zero.  Everything downstream (interferograms, oracles, fits)
consumes these distributions, so the type is immutable and validated at
construction.

Units are the caller's business as long as they are consistent: internally
frequencies and delays only ever appear through products like ωτ, so the
natural choice is ω in units of σ and τ in units of 1/σ.

Every spectral interferogram is built from the Gaussian-Fourier moments
M_n(τ) = ∫₀^∞ ωⁿ e^{-(ω-μ)²/σ²} e^{iωτ} dω, exact through the Faddeeva
function w(z) = e^{-z²} erfc(-iz).  Completing the square with
c = μ + iσ²τ/2 gives

    M_0 = σ√π e^{iμτ-(στ)²/4} - (σ√π/2) e^{-(μ/σ)²} w(ic/σ),
    M_{k+1} = c M_k + (kσ²/2) M_{k-1} + δ_{k0} (σ²/2) e^{-(μ/σ)²},

the recurrence coming from integrating (ω - c) ωᵏ e^{…} by parts.  The
phase and τ-Gaussian of the erfc term cancel against the prefactor, and
Im(ic/σ) = μ/σ >= 0 keeps w in the upper half-plane.  From σ|τ| =
:data:`_FAR` on, the Gaussian term, below 1e-160 of M_n(0), is dropped and
each M_n is the erfc term alone, differentiated n times in τ
(:func:`_far_moment`): there the recurrence would multiply the rounding of
M_0 by |c| per step.  :func:`_line_moments` evaluates M_n on a delay grid,
and nothing overflows at any finite τ.  :func:`weighted_overlap` evaluates
the same family of integrals by quadrature, as the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .quadrature import TOL, QuadratureResult, integrate

__all__ = [
    "SpectralDistribution",
    "integrate_over_spectra",
    "normalization_constant",
    "weighted_overlap",
]

_SQRT_PI = math.sqrt(math.pi)
_KERNELS = ("one", "cos", "sin")
# Half-width, in widths, of the window around each spectral peak that
# quadrature integrates over; e^{-9²} = 6.6e-36 of the peak lies outside.
_WINDOW_WIDTHS = 9.0
# σ|τ| from which _line_moments drops the Gaussian term and sums
# 12 terms of the asymptotic series of w, whose coefficients are (2m-1)!!/2^m.
_FAR = 40.0
_W_SERIES = tuple(math.prod(j - 0.5 for j in range(1, m + 1)) for m in range(12))


def _weideman_coefficients(n: int):
    """Scale L and the coefficients, highest power first, of Weideman's w(z).

    Weideman, SIAM J. Numer. Anal. 31 (1994) 1497: w(z) is expanded in
    powers 1..n of Z = (L + iz)/(L - iz), the coefficients being the
    Fourier coefficients of the even function e^{-t²}(L² + t²) sampled at
    t = L tan(θ/2), θ = kπ/2n, |k| < 2n.
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(-m + 1, m)
    t = scale * np.tan(k * math.pi / (2 * m))
    f = np.exp(-t * t) * (scale * scale + t * t)
    powers = np.arange(n, 0, -1)
    return scale, np.cos(np.outer(powers, k) * (math.pi / m)) @ f / (2 * m)


_W_SCALE, _W_COEFFS = _weideman_coefficients(40)


def _faddeeva(z):
    """w(z) = e^{-z²} erfc(-iz) for Im z >= 0, to about 3e-14 relative."""
    den = _W_SCALE - 1j * z
    big_z = (_W_SCALE + 1j * z) / den
    p = np.zeros_like(big_z)
    for a in _W_COEFFS:  # Horner in place: no temporary per coefficient
        p *= big_z
        p += a
    return 2.0 * p / (den * den) + (1.0 / _SQRT_PI) / den


def normalization_constant(mean_freq: float, width: float) -> float:
    """Squared norm |N|² of the Gaussian amplitude: (σ√π/2)(1 + erf(ω̄/σ)).

    Its wide-pulse limit σ√π (sometimes misprinted as σπ) is the value the
    approximate closed-form interferograms implicitly use, with an error
    exponentially small in (ω̄/σ)².
    """
    if not 0.0 < width < math.inf:
        raise ValueError(f"spectral width must be positive and finite, got {width}")
    if not math.isfinite(mean_freq):
        raise ValueError(f"mean frequency must be finite, got {mean_freq}")
    return 0.5 * width * _SQRT_PI * (1.0 + math.erf(mean_freq / width))


@dataclass(frozen=True)
class SpectralDistribution:
    """Normalized real Gaussian amplitude with mean ω̄ >= 0 and width σ > 0."""

    mean_freq: float
    width: float
    normalization: float = field(init=False, repr=False)

    def __post_init__(self):
        norm_sq = normalization_constant(self.mean_freq, self.width)  # rejects a bad width, or a non-finite mean
        if not 0.0 <= self.mean_freq:
            raise ValueError(f"mean frequency must be non-negative, got {self.mean_freq}")
        object.__setattr__(self, "normalization", math.sqrt(norm_sq))

    def amplitude(self, omega):
        """f(ω) = exp(-(ω-ω̄)²/2σ²)/N; only defined for ω >= 0."""
        w = np.asarray(omega, dtype=float)
        if not np.all(w >= 0.0):  # NaN fails it too
            raise ValueError("angular frequency must be non-negative")
        u = (w - self.mean_freq) / self.width
        out = np.exp(-0.5 * u * u) / self.normalization
        return out if out.ndim else float(out)


def _line_moments(lines, tau, n: int) -> list:
    """M_n(τ) (see the module docstring) for each (μ, σ) of ``lines`` on one grid τ,
    as complex arrays shaped like τ.

    w is evaluated in one :func:`_faddeeva` call over the arguments of every
    line whose weight e^{-(μ/σ)²} is not 0; where it underflows to 0
    (μ/σ > 27.3) the term is exactly 0 and the line needs no w.  Each line
    is split into near and far delays only if the largest |τ| reaches its
    σ|τ| = :data:`_FAR`.  Elementwise the arithmetic is the same for every
    line however many are gathered, so the bits are too.
    """
    t = np.asarray(tau, dtype=float)
    mag = np.abs(t)
    reach = mag.max(initial=0.0)
    splits, args = [], []
    for mean, width in lines:
        edge = math.exp(-(mean / width) * (mean / width))
        far = None if reach < _FAR / width else mag >= _FAR / width  # a NaN reach splits too
        near_t = t if far is None else t[~far]
        c = mean + 0.5j * width * width * near_t
        if edge != 0.0:
            args.append(1j * c / width)
        splits.append((edge, far, near_t, c))
    if args:
        w = _faddeeva(np.concatenate([z.ravel() for z in args]))
        bounds = list(accumulate((z.size for z in args), initial=0))
        args = [w[lo:hi].reshape(z.shape) for lo, hi, z in zip(bounds, bounds[1:], args)]
    live = iter(args)
    result = []
    for (mean, width), (edge, far, near_t, c) in zip(lines, splits):
        moment = _near_moment(mean, width, near_t, c, n, edge, next(live) if edge != 0.0 else None)
        if far is not None:
            near, moment = moment, np.empty(t.shape, complex)
            moment[~far] = near
            moment[far] = _far_moment(mean, width, t[far], n, edge)
        result.append(moment)
    return result


def _near_moment(mean, width, t, c, n, edge, w):
    """M_n by M_0 and the recurrence of the module docstring, with w = w(ic/σ),
    or None where the weight e^{-(μ/σ)²} of the w term is 0."""
    moment = width * _SQRT_PI * np.exp(1j * mean * t - 0.25 * (width * t) ** 2)
    if w is not None:
        moment -= 0.5 * width * _SQRT_PI * edge * w
    previous = None
    for k in range(n):
        step = 0.5 * k * width * width * previous if k else 0.5 * width * width * edge
        previous, moment = moment, c * moment + step
    return moment


def _far_moment(mean, width, t, n, edge):
    """M_n (see the module docstring) at σ|τ| >= :data:`_FAR`.

    With z = ic/σ = iμ/σ - στ/2, u = 1/z and dz/dτ = -σ/2, the erfc term
    differentiated n times is M_n = -(σ√π/2) e^{-(μ/σ)²} (iσ/2)ⁿ w⁽ⁿ⁾(z).
    w⁽ⁿ⁾ comes from the asymptotic series (Abramowitz & Stegun 7.1.23)
    w(z) ~ (i/√π) Σₘ (2m-1)!!/2ᵐ u^(2m+1), differentiated term by term;
    at |z| >= 20 its first omitted term is below 1e-18 of the sum for n <= 3.
    u is formed without z, so that no |τ| up to the float maximum overflows.
    """
    u = (-2.0 / width) / (t - 2j * mean / (width * width))
    factor = (-0.5j * width * edge) * u  # -(σ/2) e^{-(μ/σ)²} i (-iσ/2)ᵏ u^(k+1) at k = 0
    for _ in range(n):
        factor = factor * (-0.5j * width) * u
    u2 = u * u
    acc = 0.0
    for m in reversed(range(len(_W_SERIES))):
        acc = acc * u2 + _W_SERIES[m] * math.perm(2 * m + n, n)
    return factor * acc


def integrate_over_spectra(integrand, spectra, delays) -> QuadratureResult:
    """∫₀^∞ [a₀(ω) + a_c(ω) cos ωτ_k + a_s(ω) sin ωτ_k] dω at each delay, for
    coefficients negligible outside every spectrum's peak.

    ``integrand(w)`` returns the coefficients (a₀, a_c, a_s) at the nodes
    ``w``, each None where the term is absent; the delays reach
    :func:`mmi.quadrature.integrate` as its ``rates``, one call per window.  The domain
    is the union of the windows [ω̄ ± 9σ] of ``spectra``, clipped at 0 and
    merged where they overlap; each window gets its own adaptive quadrature
    and an equal share of the absolute tolerance
    :data:`~mmi.quadrature.TOL`.  Starting from the peaks, not from
    [0, ∞), keeps a narrow line at large ω̄/σ from slipping between the
    first panels' nodes.  Returns the value and error in the shape of
    ``delays``, summed over the windows.
    """
    spans = sorted(
        (max(0.0, s.mean_freq - _WINDOW_WIDTHS * s.width), s.mean_freq + _WINDOW_WIDTHS * s.width)
        for s in spectra
    )
    windows = [list(spans[0])]
    for lo, hi in spans[1:]:
        if lo <= windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    share = TOL / len(windows)
    parts = [integrate(integrand, lo, hi, abs_tol=share, rel_tol=TOL, rates=delays) for lo, hi in windows]
    return QuadratureResult(
        sum(p.value for p in parts),
        sum(p.error for p in parts),
        sum(p.panels for p in parts),
        sum(p.evaluations for p in parts),
    )


def weighted_overlap(f: SpectralDistribution, g: SpectralDistribution, weight_power: int = 0, kernel: str = "one", tau=0.0):
    """∫₀^∞ ω^p f(ω) g(ω) kernel(ωτ) dω for kernel in {one, cos, sin}.

    This is the shared integral behind every spectral-state interferogram:
    p = 1, kernel = cos gives the fringe terms, kernel = sin the coherent
    cross term, and (f, f, 0, one) recovers the unit norm.  Symmetric in
    (f, g) bit-for-bit, because the integrand is built from the commutative
    product of the two amplitudes.  τ may be a scalar (a float comes back)
    or an array of delays, integrated in one grid call (an array of its
    shape comes back); the kernel ``one`` ignores τ and returns a float.
    """
    if weight_power not in (0, 1, 2, 3):
        raise ValueError(f"unsupported weight power {weight_power}")
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
    term = _KERNELS.index(kernel)

    def integrand(w):
        y = f.amplitude(w) * g.amplitude(w)
        if weight_power:
            y = y * w**weight_power
        return tuple(y if k == term else None for k in range(3))  # the kernel's coefficient

    delay = tau if term else 0.0
    return integrate_over_spectra(integrand, (f, g), delay).value
