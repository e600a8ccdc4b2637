"""Adaptive Gauss-Kronrod quadrature for the detection-intensity integrals.

A single engine serves every integral in the package: Gaussian-weighted
spectral overlaps (smooth, compactly concentrated), Bose-weighted thermal
integrals (integrable x^(d-1) behaviour at 0, exponential tail), and the
oscillatory cos/sin variants of both.  Panels are 15-point Kronrod rules
with the embedded 7-point Gauss rule as error estimator; in the oscillatory
regime the initial panel width is capped at a quarter period so the local
polynomial degree stays far above the phase variation per panel.

Nodes and weights were generated from the exact Stieltjes-polynomial
construction in rational arithmetic and verified to integrate monomials
exactly through degree 22 (degree 13 for the embedded Gauss rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate",
    "integrate_half_line",
    "tail_cutoff",
]

# Positive half of the 15-point Kronrod rule on [-1, 1], ascending.
_POS_NODES = np.array(
    [
        0.0,
        0.207784955007898468,
        0.405845151377397167,
        0.586087235467691130,
        0.741531185599394440,
        0.864864423359769073,
        0.949107912342758525,
        0.991455371120812639,
    ]
)
_POS_WEIGHTS = np.array(
    [
        0.209482141084727828,
        0.204432940075298892,
        0.190350578064785410,
        0.169004726639267903,
        0.140653259715525919,
        0.104790010322250184,
        0.063092092629978553,
        0.022935322010529225,
    ]
)
# Gauss-7 weights for the embedded rule; its nodes are the even-index
# entries of _POS_NODES (0, 2, 4, 6).
_POS_GAUSS = np.array(
    [
        0.417959183673469388,
        0.381830050505118945,
        0.279705391489276668,
        0.129484966168869693,
    ]
)

NODES = np.concatenate([-_POS_NODES[:0:-1], _POS_NODES])
KRONROD_WEIGHTS = np.concatenate([_POS_WEIGHTS[:0:-1], _POS_WEIGHTS])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[7] = _POS_GAUSS[0]
GAUSS_WEIGHTS[[5, 9]] = _POS_GAUSS[1]
GAUSS_WEIGHTS[[3, 11]] = _POS_GAUSS[2]
GAUSS_WEIGHTS[[1, 13]] = _POS_GAUSS[3]


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted above tolerance.

    Carries the achieved and requested error estimates so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.achieved = achieved
        self.requested = requested


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float  # a-posteriori estimate: sum over panels of |K15 - G7|
    panels: int


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and |K15-G7| error for a batch of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * NODES[None, :]
    y = np.asarray(f(x.reshape(-1)), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned a non-finite value")
    kron = (y * KRONROD_WEIGHTS).sum(axis=1) * half
    gauss = (y * GAUSS_WEIGHTS).sum(axis=1) * half
    return kron, np.abs(kron - gauss)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
    osc_scale: float = 0.0,
    max_panels: int = 8192,
) -> QuadratureResult:
    """Adaptively integrate a vectorized integrand over [lo, hi].

    Parameters
    ----------
    f:
        Vectorized callable, ``f(x: ndarray) -> ndarray``.  Must be finite
        on the open interval; panel nodes never touch the endpoints, so
        removable endpoint singularities (e.g. x^d/(e^x - 1) at 0) are fine.
    abs_tol, rel_tol:
        Convergence requires the summed panel error estimate to fall below
        ``max(abs_tol, rel_tol * |integral|)``.
    osc_scale:
        Effective angular rate of the fastest oscillation of the integrand
        (ωτ kernels: the delay τ).  Initial panel widths are capped at
        ``pi / (2 * osc_scale)``, a quarter period.
    max_panels:
        Panel budget; exceeding it raises :class:`QuadratureError` carrying
        the achieved estimate.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(osc_scale)):
        raise ValueError(f"non-finite interval [{lo}, {hi}] or oscillation rate {osc_scale}")
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    width = hi - lo
    base = width / 8.0
    if osc_scale > 0.0:
        base = min(base, math.pi / (2.0 * osc_scale))
    n0 = min(max(8, int(math.ceil(width / base))), max_panels)
    edges = np.linspace(lo, hi, n0 + 1)
    p_lo, p_hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, p_lo, p_hi)

    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            return QuadratureResult(total, err, len(vals))
        if len(vals) >= max_panels:
            raise QuadratureError("quadrature panel budget exhausted", err, tol)
        # Bisect every panel carrying more than its share of the budget.
        split = errs > tol / (2.0 * len(vals))
        if not split.any():
            split[np.argmax(errs)] = True
        s_lo, s_hi = p_lo[split], p_hi[split]
        mid = 0.5 * (s_lo + s_hi)
        n_lo = np.concatenate([s_lo, mid])
        n_hi = np.concatenate([mid, s_hi])
        n_vals, n_errs = _eval_panels(f, n_lo, n_hi)
        keep = ~split
        p_lo = np.concatenate([p_lo[keep], n_lo])
        p_hi = np.concatenate([p_hi[keep], n_hi])
        vals = np.concatenate([vals[keep], n_vals])
        errs = np.concatenate([errs[keep], n_errs])


def tail_cutoff(envelope: Callable[[float], float], abs_tol: float, start: float = 1.0) -> float:
    """Where :func:`integrate_half_line` truncates [0, inf) for this envelope.

    The smallest x (within 25 %) beyond which the envelope stays below a
    tenth of ``abs_tol``, searched by doubling from ``start`` and bisecting.
    """
    threshold = abs_tol / 10.0
    x = max(start, 1e-12)
    for _ in range(80):
        if envelope(x) < threshold:
            break
        x *= 2.0
    else:
        raise ValueError("tail envelope never drops below the requested tolerance")
    lo_x = x / 2.0
    for _ in range(12):
        mid = 0.5 * (lo_x + x)
        if envelope(mid) < threshold:
            x = mid
        else:
            lo_x = mid
    return x


def integrate_half_line(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    envelope: Callable[[float], float],
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
    osc_scale: float = 0.0,
    cutoff: float | None = None,
) -> QuadratureResult:
    """Integrate over [0, inf) by truncating where the envelope is negligible.

    ``envelope(x)`` must bound |f| and be eventually decreasing; the domain
    is truncated where it drops below a tenth of the absolute tolerance
    (:func:`tail_cutoff`), then handed to :func:`integrate`.  Callers that
    integrate many functions under one envelope and tolerance may pass that
    truncation point as ``cutoff``, which skips the search.
    """
    if cutoff is None:
        cutoff = tail_cutoff(envelope, abs_tol)
    return integrate(f, 0.0, cutoff, abs_tol=abs_tol, rel_tol=rel_tol, osc_scale=osc_scale)
