"""Adaptive Gauss-Kronrod quadrature for the detection-intensity integrals.

A single engine serves every integral in the package: Gaussian-weighted
spectral overlaps (smooth, compactly concentrated), Bose-weighted thermal
integrals (integrable x^(d-1) behaviour at 0, exponential tail), and the
oscillatory cos/sin variants of both.  Panels are 15-point Kronrod rules
with the embedded 7-point Gauss rule as error estimator; in the oscillatory
regime the initial panel width is capped at a quarter period so the local
polynomial degree stays far above the phase variation per panel.

Integrands may be vector-valued: ``f(x)`` of shape ``(nodes,)`` or
``(nodes, K)``, one column per member of a family.  Both rules then act on
every panel as one (2 × 15) matrix product, and refinement is global, as in
the vector-valued QUADPACK qag scheme (Piessens et al. 1983): every panel
that carries more than its share of the tolerance of any unconverged member
is bisected, and the call returns only once each member k meets
``max(abs_tol, rel_tol·|I_k|)``.

The fringe integrals of a delay grid, a₀(x) + a_c(x) cos xτ_k + a_s(x) sin xτ_k,
reach the engine factored: the integrand returns the coefficients a₀, a_c,
a_s per node and the rates τ_k (a :class:`_Fringes`), not the node × delay
values.  A panel is stored as its midpoint m and half-width h, so a
bisection halves a width exactly and a pass holds only a few widths.  With
cos (m + hξ_j)τ = cos mτ cos hξ_jτ - sin mτ sin hξ_jτ (and sin likewise) a
panel needs two trigonometric values per delay instead of fifteen, plus one
table of cos and sin hξ_jτ per width, and the node sums of both rules
become one product of the panels' weighted coefficients with that table.
A plain ``f`` is the a₀ term alone, through the same refinement loop.

:func:`integrate_grid` splits a delay grid into chunks of ascending |τ|,
each with its own oscillation rate, so that the first pass of a chunk
evaluates at most ``CHUNK_ELEMENTS`` node × delay values; the budget bounds
the memory of one call, it is not a tuning knob.  The chunks run one after
another in one loop on the calling thread: with the factored kernel a chunk
is a few dozen small numpy calls, and on two threads they lost more to the
interpreter lock than they gained (on 2 vCPUs, Bose grids of 200-6000
delays ran at most 2 % faster in wall time, and took 35-50 % more CPU time).

Nodes and weights were generated from the exact Stieltjes-polynomial
construction in rational arithmetic and verified to integrate monomials
exactly through degree 22 (degree 13 for the embedded Gauss rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "integrate",
    "integrate_grid",
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
_RULES = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS])

# Panel budget of one integration.
MAX_PANELS = 8192
# Absolute and relative tolerance of every scenario integral (the spectral
# ones, the thermal fringes in units of J(d), and their metadata).
TOL = 1e-12
# Most node × delay values the first pass of one chunk of integrate_grid
# evaluates: 512 KiB per float64 array, so memory stays flat on any grid.
CHUNK_ELEMENTS = 65536


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted above tolerance.

    Carries the achieved and requested error estimates (of the worst member,
    for a vector integrand) so callers can decide whether the partial result
    is usable.
    """

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.achieved = achieved
        self.requested = requested


@dataclass(frozen=True)
class QuadratureResult:
    value: float | np.ndarray
    error: float | np.ndarray  # a-posteriori estimate per member: sum over panels of |K15 - G7|
    panels: int
    evaluations: int  # integrand nodes, each counted once whatever the number of members


class _Fringes(NamedTuple):
    """An integrand a₀(x) + a_c(x) cos xτ_k + a_s(x) sin xτ_k, one member per rate τ_k.

    Returned by an integrand in place of its values: each coefficient is
    None (absent) or one value per node, shared by every member.  Without a
    cos or sin term the family has one member.
    """

    rates: np.ndarray
    const: np.ndarray | None
    cos: np.ndarray | None
    sin: np.ndarray | None


def _fringe_table(half: float, rates: np.ndarray, has_cos: bool, has_sin: bool) -> np.ndarray:
    """The rows [C, -S] (a cos term) and [S, C] (a sin term), C and S being
    cos and sin hξ_jτ_k at the panel half-width h: (15 per term) × 2K."""
    phase = np.multiply.outer(half * _POS_NODES[1:], rates)  # the nodes are symmetric about 0
    c, s = np.cos(phase), np.sin(phase)
    one = np.ones((1, rates.size))
    cos = np.concatenate([c[::-1], one, c])
    sin = np.concatenate([-s[::-1], 0.0 * one, s])
    rows = []
    if has_cos:
        rows.append(np.concatenate([cos, -sin], axis=1))
    if has_sin:
        rows.append(np.concatenate([sin, cos], axis=1))
    return np.concatenate(rows)


def _fringe_sums(mid, half, rates, cos, sin, tables: dict) -> np.ndarray:
    """Both rules' node sums of a_c cos xτ_k + a_s sin xτ_k, (panels, 2, K).

    At the nodes x = m + hξ_j of a panel the sum is cos mτ·P + sin mτ·Q, with
    P = Σ_j w_j (a_c C_j + a_s S_j) and Q = Σ_j w_j (a_s C_j - a_c S_j): two
    trigonometric values per panel and member, and for the panels of each
    half-width one product of their weighted coefficients with its table
    (:func:`_fringe_table`, kept in ``tables`` for later passes).
    """
    n = mid.size
    coef = np.concatenate(
        [_RULES * a.reshape(n, 1, NODES.size) for a in (cos, sin) if a is not None], axis=2
    ).reshape(2 * n, -1)
    uniform = (half == half[0]).all()  # a first pass, and most bisection passes
    pq = np.empty((2 * n, 2 * rates.size))
    for h in (half[0],) if uniform else np.unique(half):
        table = tables.get(h)
        if table is None:
            table = tables[h] = _fringe_table(h, rates, cos is not None, sin is not None)
        rows = slice(None) if uniform else np.repeat(half == h, 2)
        pq[rows] = coef[rows] @ table
    pq = pq.reshape(n, 2, 2, rates.size)
    phase = np.multiply.outer(mid, rates)[:, None]
    return np.cos(phase) * pq[:, :, 0] + np.sin(phase) * pq[:, :, 1]


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], mid: np.ndarray, half: np.ndarray, tables: dict):
    """Kronrod values and |K15-G7| errors, (panels, members), for the panels
    [mid - half, mid + half], and the shape of one member set of the integrand.

    A plain ``f`` returns its values, the a₀ term alone of a :class:`_Fringes`."""
    x = mid[:, None] + half[:, None] * NODES[None, :]
    y = f(x.reshape(-1))
    if not isinstance(y, _Fringes):
        y = _Fringes(None, y, None, None)
    const, cos, sin = (None if a is None else np.asarray(a, dtype=float) for a in y[1:])
    if not all(np.all(np.isfinite(a)) for a in (const, cos, sin) if a is not None):
        raise ValueError("integrand returned a non-finite value")
    sums = 0.0
    if const is not None:
        sums = _RULES @ const.reshape(mid.size, NODES.size, -1)
    if cos is not None or sin is not None:
        sums = sums + _fringe_sums(mid, half, y.rates, cos, sin, tables)
    sums = sums * half[:, None, None]
    shape = const.shape[1:] if y.rates is None else y.rates.shape
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1]), shape


def _initial_panels(width: float, osc_scale):
    """First-pass panel count: eighths of the interval, each at most a quarter period, and at
    most :data:`MAX_PANELS`.  A rate is capped where its count reaches the budget, so that
    neither the count nor the product forming it overflows."""
    rate = np.minimum(osc_scale, MAX_PANELS * math.pi / (2.0 * width))
    return np.minimum(np.maximum(8, np.ceil(2.0 * width * rate / math.pi)), MAX_PANELS).astype(int)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    abs_tol: float = TOL,
    rel_tol: float = TOL,
    osc_scale: float = 0.0,
) -> QuadratureResult:
    """Adaptively integrate a vectorized, possibly vector-valued integrand over [lo, hi].

    Parameters
    ----------
    f:
        Vectorized callable, ``f(x: ndarray) -> ndarray`` of shape
        ``(x.size,)`` or ``(x.size, K)``; a fringe integrand returns its
        coefficients instead, as a :class:`_Fringes`.  Must be finite on the
        open interval; panel nodes never touch the endpoints, so removable
        endpoint singularities (e.g. x^d/(e^x - 1) at 0) are fine.
    abs_tol, rel_tol:
        Convergence requires each member's summed panel error estimate to
        fall below ``max(abs_tol, rel_tol * |integral|)``.
    osc_scale:
        Effective angular rate of the fastest oscillation of the integrand
        (ωτ kernels: the largest delay τ).  Initial panel widths are capped
        at ``pi / (2 * osc_scale)``, a quarter period.

    The value and error are floats for a scalar integrand and arrays of
    shape ``(K,)`` for a vector-valued one.  Exhausting the budget of
    :data:`MAX_PANELS` panels raises :class:`QuadratureError` carrying the
    achieved estimate of the worst member.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(osc_scale)):
        raise ValueError(f"non-finite interval [{lo}, {hi}] or oscillation rate {osc_scale}")
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    if not math.isfinite(max(-lo, hi) * osc_scale):
        # no phase ωτ of the integrand is representable, let alone resolvable
        raise QuadratureError("oscillation phase beyond the floating-point range", math.inf, abs_tol)
    # panels are (midpoint, half-width): a bisection halves a width exactly,
    # so a pass holds few widths, each with one table of node phases
    count = int(_initial_panels(hi - lo, osc_scale))
    h = 0.5 * (hi - lo) / count
    mid = lo + h * np.arange(1.0, 2.0 * count, 2.0)
    half = np.full(count, h)
    tables: dict = {}
    vals, errs, shape = _eval_panels(f, mid, half, tables)
    evaluations = vals.shape[0] * NODES.size

    while True:
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        unmet = err > tol
        if not unmet.any():
            value, error = total.reshape(shape), err.reshape(shape)
            if not shape:
                value, error = float(value), float(error)
            return QuadratureResult(value, error, len(vals), evaluations)
        floor = np.maximum(tol, np.finfo(float).tiny)  # abs_tol = 0 may leave tol = 0
        if len(vals) >= MAX_PANELS:
            worst = int(np.argmax(np.where(unmet, err / floor, 0.0)))
            raise QuadratureError("quadrature panel budget exhausted", float(err[worst]), float(tol[worst]))
        # Bisect every panel carrying more than its share of the budget of
        # some unconverged member.
        share = errs[:, unmet] * (2.0 * len(vals)) / floor[unmet]
        split = (share > 1.0).any(axis=1)
        if not split.any():
            split[np.argmax(share.max(axis=1))] = True
        s_half = 0.5 * half[split]
        n_mid = np.concatenate([mid[split] - s_half, mid[split] + s_half])
        n_half = np.concatenate([s_half, s_half])
        n_vals, n_errs, _ = _eval_panels(f, n_mid, n_half, tables)
        evaluations += n_vals.shape[0] * NODES.size
        keep = ~split
        mid = np.concatenate([mid[keep], n_mid])
        half = np.concatenate([half[keep], n_half])
        vals = np.concatenate([vals[keep], n_vals])
        errs = np.concatenate([errs[keep], n_errs])


def _chunk_ends(rates: np.ndarray, width: float) -> list[int]:
    """End indices of the chunks of ascending ``rates`` whose first pass over
    [0, width] stays within ``CHUNK_ELEMENTS`` node × delay values (at least
    one delay each)."""
    nodes = NODES.size * _initial_panels(width, rates)
    most = max(1, CHUNK_ELEMENTS // (NODES.size * 8))  # no chunk holds more delays
    ends = [0]
    while ends[-1] < rates.size:
        start = ends[-1]
        block = np.arange(1, most + 1)[: rates.size - start] * nodes[start : start + most]
        ends.append(start + max(1, int(np.searchsorted(block, CHUNK_ELEMENTS, side="right"))))
    return ends[1:]


def integrate_grid(
    delays, width: float, integrate_chunk: Callable[[np.ndarray, float], QuadratureResult]
) -> QuadratureResult:
    """Integrate a family of integrands, one per delay τ_k, chunk by chunk.

    The delays are sorted by |τ| and split into chunks whose first pass over
    an interval of length ``width`` holds at most ``CHUNK_ELEMENTS`` node ×
    delay values.  ``integrate_chunk(chunk_delays, osc_scale)`` integrates one
    chunk as a vector-valued integrand, ``osc_scale`` being its largest |τ|,
    and returns its :class:`QuadratureResult`.  The value and error come
    back in the shape of ``delays`` (floats for a scalar); panels and
    evaluations are summed over the chunks.

    The chunks run in ascending order in one loop on the calling thread,
    each writing its own delays of the output, and the first chunk to fail
    raises its error.  ``CHUNK_ELEMENTS`` bounds the first pass of each
    call of ``integrate_chunk``; the chunk boundaries, and so each chunk's
    ``osc_scale``, depend on the delays and ``width`` alone.
    """
    t = np.asarray(delays, dtype=float)
    flat = t.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("delays must be finite")
    order = np.argsort(np.abs(flat), kind="stable")
    value = np.empty(flat.size)
    error = np.empty(flat.size)
    ends = _chunk_ends(np.abs(flat[order]), width)
    starts = [0, *ends[:-1]]
    panels = evaluations = 0
    for start, end in zip(starts, ends):
        idx = order[start:end]
        res = integrate_chunk(flat[idx], float(abs(flat[idx[-1]])))
        value[idx] = res.value
        error[idx] = res.error
        panels += res.panels
        evaluations += res.evaluations
    if not t.ndim:
        return QuadratureResult(float(value[0]), float(error[0]), panels, evaluations)
    return QuadratureResult(value.reshape(t.shape), error.reshape(t.shape), panels, evaluations)


def tail_cutoff(envelope: Callable[[float], float], abs_tol: float) -> float:
    """Where :func:`integrate_half_line` truncates [0, inf) for this envelope.

    The smallest x (within 25 %) beyond which the envelope stays below a
    tenth of ``abs_tol``, searched by doubling from 1 and bisecting; the
    envelope must not increase on [1, inf), or the search can stop short.
    """
    threshold = abs_tol / 10.0
    x = 1.0
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
    abs_tol: float = TOL,
    rel_tol: float = TOL,
    osc_scale: float = 0.0,
    cutoff: float | None = None,
) -> QuadratureResult:
    """Integrate over [0, inf) by truncating where the envelope is negligible.

    ``envelope(x)`` must bound |f| (every member of a vector-valued f) and not
    increase on [1, inf), where the search starts; the domain
    is truncated where it drops below a tenth of the absolute tolerance
    (:func:`tail_cutoff`), then handed to :func:`integrate`.  Callers that
    integrate many functions under one envelope and tolerance may pass that
    truncation point as ``cutoff``, which skips the search.
    """
    if cutoff is None:
        cutoff = tail_cutoff(envelope, abs_tol)
    return integrate(f, 0.0, cutoff, abs_tol=abs_tol, rel_tol=rel_tol, osc_scale=osc_scale)
