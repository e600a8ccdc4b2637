"""Adaptive Gauss-Kronrod quadrature for the detection-intensity integrals.

A single engine serves every integral in the package: Gaussian-weighted
spectral overlaps (smooth, compactly concentrated), Bose-weighted thermal
integrals (integrable x^(d-1) behaviour at 0, exponential tail), and the
oscillatory cos/sin variants of both.  Panels are 15-point Kronrod rules
with the embedded 7-point Gauss rule as error estimator.

Integrands may be vector-valued: ``f(x)`` of shape ``(nodes,)`` or
``(nodes, K)``, one column per member of a family.  Both rules then act on
every panel as one matrix product, and refinement is global, as in the
vector-valued QUADPACK qag scheme (Piessens et al. 1983): every panel
that carries more than its share of the tolerance of any unconverged member
is bisected, and the call returns only once each member k meets
``max(abs_tol, rel_tol·|I_k|)`` (a fringe member: or its rounding floor,
below).  Every first pass is eighths of the interval.

The fringe integrals of a delay grid, a₀(x) + a_c(x) cos xτ_k + a_s(x) sin xτ_k,
reach the engine factored: the call passes the rates τ_k as ``rates``, the
integrand returns the coefficients a₀, a_c, a_s per node, not the node ×
delay values, and the engine integrates the cos and sin exactly.  This is
Filon's product rule (Proc. R. Soc. Edinburgh 49, 1928) in the
Gauss-Kronrod form of QUADPACK's QAWO (Piessens & Branders, J. Comput.
Appl. Math. 1, 1975): on a panel of midpoint m and half-width h, with
x = m + hξ, cos xτ = cos mτ cos hτξ - sin mτ sin hτξ (and sin likewise),
and each rule replaces a_c and a_s by their interpolants on its own nodes
(15 Kronrod, 7 Gauss), whose products with cos hτξ and sin hτξ it
integrates exactly.  The node weights become the product weights
Wc_j(hτ) = ∫₋₁¹ ℓ_j(ξ) cos(hτξ) dξ and Ws_j(hτ) = ∫₋₁¹ ℓ_j(ξ) sin(hτξ) dξ
(ℓ_j the rule's Lagrange basis), which at hτ = 0 are the rules' own
weights; |K15 - G7| then measures how well the coefficients are
interpolated, whatever the rate, so the panel count follows the smooth
coefficient and not the oscillation.  A first-pass panel needs cos mτ and
sin mτ per delay (a bisected one turns its parent's by hτ, four products),
plus, per half-width, one table of product weights; the nodes are
symmetric, so the node sums of both rules are two products of the even and
odd parts of the panels' coefficients with that table
(:mod:`mmi._product_weights`).
A plain ``f`` is the a₀ term alone, through the same refinement loop.

Rounding and reach.  The phase xτ of a fringe member carries a rounding
of about ε·|xτ| (ε = 2⁻⁵²: the node, the product and the cosine each round
once), which no rule removes and |K15 - G7| cannot see.  Each member's
stated error therefore adds the floor ε·(1 + 2L + X·|τ_k|)·Σ_panels h Σ_j
w_j (|a₀| + |a_c| + |a_s|)(x_j), summed over the first pass, X = max(|lo|,
|hi|), w_j the Kronrod weights: the rounding of the terms summed, of the
turns cos mτ and sin mτ carried through L bisections (each a rotation,
which adds about 2ε), and of the phase.  Refinement does not chase it: a
member whose error sum is below ε·(1 + X·|τ_k|)·Σ…, the part of its floor
known after the first pass, stops there, as QUADPACK's QAG stops at roundoff
(ier = 2).  The rounding of the coefficients keeps |K15 - G7| from falling
much below ε·Σ…, and refining under the phase's rounding would not lower the
stated error.  Where that part exceeds ``max(abs_tol, rel_tol·|I_k|)``, the
member meets its floor, not the tolerance (:data:`TOL` for a scenario).  A family whose largest phase
X·|τ_k| exceeds :data:`PHASE_REACH` = 2²⁶, where that rounding would take
half of the digits, is refused with :class:`QuadratureError` when
:func:`integrate` is called, before any evaluation.  The rule reads the
interval and the rates, not the integrand, so it holds for an a₀-only family too.

:func:`integrate` cuts the rates of a fringe family into equal chunks of
ascending |τ| whose first pass evaluates at most ``CHUNK_ELEMENTS`` node ×
rate values, their boundaries set by the number of rates alone; the budget
bounds the memory of one call, it is not a tuning knob.  The chunks run one
after another on the calling thread: with the factored kernel a chunk is a
few dozen small numpy calls, and on two threads they lost more to the
interpreter lock than they gained (on 2 vCPUs, Bose grids of 200-6000
delays ran at most 2 % faster in wall time, and took 35-50 % more CPU time).

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
_RULES = np.stack([KRONROD_WEIGHTS, GAUSS_WEIGHTS])

# Panel budget of one integration.
MAX_PANELS = 8192
# Absolute and relative tolerance of every scenario integral (the spectral
# ones, the thermal fringes in units of J(d), and their metadata).
TOL = 1e-12
# Most node × rate values the first pass of one chunk of a fringe family
# evaluates: 512 KiB per float64 array, so memory stays flat on any grid.
CHUNK_ELEMENTS = 65536
# Panels of a first pass: eighths of the interval.
_FIRST_PANELS = 8
# Largest phase x·τ of a fringe member, in radians: there its rounding ε·2²⁶ is 2⁻²⁶,
# half of the digits.
PHASE_REACH = 2.0**26
_EPS = float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted above tolerance, or a fringe
    member lies past :data:`PHASE_REACH`.

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
    """The value and error per member, floats or read-only arrays."""

    value: float | np.ndarray
    error: float | np.ndarray  # per member: sum over panels of |K15 - G7|, plus a fringe's rounding floor
    panels: int
    evaluations: int  # integrand nodes, each counted once whatever the number of members

    def __post_init__(self):
        for array in (self.value, self.error):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


def _fold(a: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """A coefficient's sums a(ξ_j) + a(-ξ_j) at the nodes ξ_j ≥ 0 (a(0) alone at 0), (panels, 8),
    and its differences a(ξ_j) - a(-ξ_j) at ξ_j > 0, (panels, 7)."""
    a = a.reshape(panels, NODES.size)
    middle = NODES.size // 2
    even = a[:, middle:] + a[:, middle::-1]
    even[:, 0] *= 0.5
    return even, a[:, middle + 1 :] - a[:, middle - 1 :: -1]


def _halve_turns(cos_m: np.ndarray, sin_m: np.ndarray, half: np.ndarray, rates: np.ndarray):
    """cos and sin of (m ∓ h)τ_k, the midpoints of the halves of panels of midpoint m,
    the left halves then the right, from cos mτ and sin mτ (``half`` the halves'
    half-width h): four products per value in place of a cosine or a sine."""
    widths = sorted(set(half.tolist()))  # np.unique would import numpy.ma
    angle = np.multiply.outer(widths, rates)
    c, s = np.cos(angle), np.sin(angle)
    if len(widths) > 1:
        index = np.searchsorted(widths, half)
        c, s = c[index], s[index]
    n = half.size
    cos_h, sin_h = np.empty((2 * n, rates.size)), np.empty((2 * n, rates.size))
    cc, ss = cos_m * c, sin_m * s
    np.add(cc, ss, out=cos_h[:n])
    np.subtract(cc, ss, out=cos_h[n:])
    sc, cs = sin_m * c, cos_m * s
    np.subtract(sc, cs, out=sin_h[:n])
    np.add(sc, cs, out=sin_h[n:])
    return cos_h, sin_h


def _fringe_sums(mid, half, rates, cos, sin, tables: dict, turns):
    """Both rules' panel integrals of a_c cos xτ_k + a_s sin xτ_k over ξ ∈ [-1, 1], (panels, 2, K),
    and the turns (cos mτ_k, sin mτ_k) of the panels, each (panels, K).

    On a panel they are cos mτ·P + sin mτ·Q, with P = Σ_j (a_c Wc_j + a_s Ws_j)
    and Q = Σ_j (a_s Wc_j - a_c Ws_j): two trigonometric values per panel and
    member, evaluated here on a first pass and carried from the parent panel
    on a bisection (``turns``, :func:`_halve_turns`).  The nodes are
    symmetric, so each sum runs over the even and odd parts of a coefficient
    (:func:`_fold`) against half of the weights, and for the panels of each
    half-width it is one product of those parts with its table
    (:func:`~mmi._product_weights.product_weights`, kept in ``tables`` for later passes).
    """
    n = mid.size
    parts = [_fold(a, n) for a in (cos, sin) if a is not None]
    even = np.concatenate([e for e, _ in parts]) if len(parts) > 1 else parts[0][0]  # the cos term's rows first
    odd = np.concatenate([o for _, o in parts]) if len(parts) > 1 else parts[0][1]
    uniform = (half == half[0]).all()  # a first pass, and most bisection passes
    widths = (half[0],) if uniform else set(half.tolist())  # np.unique would import numpy.ma
    for h in widths:
        if h not in tables:
            # imported on first use: only quadrature needs it, and its LAPACK call costs memory
            from ._product_weights import product_weights

            # this width and the next three a bisection makes, in one evaluation
            halves = h * 0.5 ** np.arange(4)
            tables.update(zip(halves.tolist(), product_weights(halves, rates)))
    if uniform:
        wc, ws = tables[half[0]]
        by_cos, by_sin = even @ wc, odd @ ws
    else:
        by_cos, by_sin = np.empty((even.shape[0], 2 * rates.size)), np.empty((odd.shape[0], 2 * rates.size))
        for h in widths:
            rows = np.tile(half == h, len(parts))
            by_cos[rows] = even[rows] @ tables[h][0]
            by_sin[rows] = odd[rows] @ tables[h][1]
    if len(parts) == 2:
        p = by_cos[:n] + by_sin[n:]
        q = by_cos[n:] - by_sin[:n]
    elif cos is not None:
        p, q = by_cos, np.negative(by_sin, out=by_sin)
    else:
        p, q = by_sin, by_cos
    if turns is None:
        phase = np.multiply.outer(mid, rates)
        turns = np.cos(phase), np.sin(phase, out=phase)
    # in place: a fresh large temporary can cost more in page faults than its arithmetic
    p, q = p.reshape(n, 2, rates.size), q.reshape(n, 2, rates.size)
    p *= turns[0][:, None]
    q *= turns[1][:, None]
    p += q
    return p, turns


def _eval_panels(f: Callable[[np.ndarray], np.ndarray], mid: np.ndarray, half: np.ndarray, tables: dict, rates=None, turns=None):
    """Kronrod values and |K15-G7| errors, (panels, members), for the panels
    [mid - half, mid + half], the shape of one member set of the integrand,
    and for a fringe integrand (``rates`` handed in) the panels' turns of
    :func:`_fringe_sums` and, on a first pass (no ``turns`` handed in), the
    Kronrod sum Σ_panels h Σ_j w_j (|a₀| + |a_c| + |a_s|) that the rounding
    floor scales with (None where they do not apply).

    With ``rates``, ``f`` returns (a₀, a_c, a_s); without, its values, the a₀ term alone."""
    x = mid[:, None] + half[:, None] * NODES[None, :]
    y = f(x.reshape(-1))
    if rates is None:
        y = (y, None, None)
    const, cos, sin = (None if a is None else np.asarray(a, dtype=float) for a in y)
    if not all(np.all(np.isfinite(a)) for a in (const, cos, sin) if a is not None):
        raise ValueError("integrand returned a non-finite value")
    size = None
    if rates is not None and turns is None:
        size = sum(np.abs(a) for a in (const, cos, sin) if a is not None).reshape(mid.size, NODES.size)
        size = float(half @ (size @ KRONROD_WEIGHTS))
    if cos is None and sin is None:
        sums = _RULES @ const.reshape(mid.size, NODES.size, -1)
    else:
        sums, turns = _fringe_sums(mid, half, rates, cos, sin, tables, turns)
        if const is not None:
            sums += _RULES @ const.reshape(mid.size, NODES.size, 1)
    sums *= half[:, None, None]
    errs = sums[:, 0] - sums[:, 1]
    shape = const.shape[1:] if rates is None else rates.shape
    return sums[:, 0], np.abs(errs, out=errs), shape, turns, size


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    abs_tol: float = TOL,
    rel_tol: float = TOL,
    rates=None,
) -> QuadratureResult:
    """Adaptively integrate a vectorized, possibly vector-valued integrand over [lo, hi].

    Parameters
    ----------
    f:
        Vectorized callable, ``f(x: ndarray) -> ndarray`` of shape
        ``(x.size,)`` or ``(x.size, K)``; with ``rates``, the coefficients
        ``(a₀, a_c, a_s)`` instead, each None or one value per node.  Must be
        finite on the open interval; panel nodes never touch the endpoints, so
        removable endpoint singularities (e.g. x^d/(e^x - 1) at 0) are fine.
    abs_tol, rel_tol:
        Convergence requires each member's summed panel error estimate to
        fall below ``max(abs_tol, rel_tol * |integral|)``, or, for a fringe
        member, below its rounding floor where that is larger (see the module
        docstring): such a member meets its floor, not the tolerance.
    rates:
        The finite rates τ_k of a fringe integrand a₀ + a_c cos xτ_k + a_s sin xτ_k:
        one member per rate, in the shape of ``rates`` (empty too), with or without
        a_c and a_s, integrated chunk by chunk (see the module docstring).

    The value and error are floats for a scalar integrand or a 0-d ``rates``,
    else read-only arrays of shape ``(K,)`` or of ``rates``; a fringe member's
    error includes its phase-rounding floor.  Panels and evaluations are
    summed over the chunks.  A rate past :data:`PHASE_REACH` raises
    :class:`QuadratureError` before any chunk runs (see the module docstring).
    Exhausting the budget of :data:`MAX_PANELS` panels raises it too, carrying
    the achieved estimate of the worst member; the first chunk to exhaust it raises.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"non-finite interval [{lo}, {hi}]")
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    if rates is None:
        value, error, shape, panels, evaluations = _refine(f, lo, hi, abs_tol, rel_tol)
    else:
        rates = np.asarray(rates, dtype=float)
        shape, flat = rates.shape, rates.ravel()
        if not np.isfinite(flat).all():
            raise ValueError("delays must be finite")
        reach = max(-lo, hi) * float(np.max(np.abs(flat), initial=0.0))
        if not reach <= PHASE_REACH:
            raise QuadratureError(
                f"delay beyond the quadrature's reach: phase x·τ up to {reach:.3e}, past 2^26 = {PHASE_REACH:.3e}",
                _EPS * reach,
                _EPS * PHASE_REACH,
            )
        value, error = np.empty(flat.size), np.empty(flat.size)
        panels = evaluations = 0
        order = np.argsort(np.abs(flat), kind="stable")
        chunks = -(-flat.size // (CHUNK_ELEMENTS // (_FIRST_PANELS * NODES.size)))
        for idx in np.array_split(order, chunks) if chunks else ():  # no rates, nothing to integrate
            # an a₀-only family's one column fills every member of its chunk
            value[idx], error[idx], _, chunk_panels, chunk_evaluations = _refine(f, lo, hi, abs_tol, rel_tol, flat[idx])
            panels += chunk_panels
            evaluations += chunk_evaluations
    value, error = value.reshape(shape), error.reshape(shape)
    if not shape:
        value, error = float(value), float(error)
    return QuadratureResult(value, error, panels, evaluations)


def _refine(f, lo: float, hi: float, abs_tol: float, rel_tol: float, rates=None):
    """One adaptive integration over [lo, hi], of the members of ``f`` or, with
    ``rates`` (1-D), of one chunk of a fringe family: the value and error sums
    per member (one column for an a₀-only family), the shape of one member
    set, the panels and the evaluations."""
    # panels are (midpoint, half-width): a bisection halves a width exactly,
    # so a pass holds few widths, each with one table of product weights
    h = 0.5 * (hi - lo) / _FIRST_PANELS
    mid = lo + h * np.arange(1.0, 2.0 * _FIRST_PANELS, 2.0)
    half = np.full(_FIRST_PANELS, h)
    tables: dict = {}
    vals, errs, shape, turns, size = _eval_panels(f, mid, half, tables, rates)
    evaluations = vals.shape[0] * NODES.size
    # QUADPACK's roundoff stop: no fringe member refines below ε(1 + X|τ_k|)·S, the part of
    # its stated rounding floor known after the first pass (an a₀-only family, without turns, has no phase)
    stop = phase = 0.0
    if rates is not None:
        phase = max(-lo, hi) * np.abs(rates) if turns is not None else 0.0
        stop = _EPS * (1.0 + phase) * size

    while True:
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        tol = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(total)), stop)
        unmet = err > tol
        if not unmet.any():
            if rates is not None:
                depth = math.log2(h / half.min())  # bisections the turns of the finest panel went through
                err = err + _EPS * (1.0 + 2.0 * depth + phase) * size
            return total, err, shape, len(vals), evaluations
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
        n_turns = None if turns is None else _halve_turns(*(t[split] for t in turns), s_half, rates)
        n_vals, n_errs, _, n_turns, _ = _eval_panels(f, n_mid, n_half, tables, rates, n_turns)
        evaluations += n_vals.shape[0] * NODES.size
        keep = ~split
        mid = np.concatenate([mid[keep], n_mid])
        half = np.concatenate([half[keep], n_half])
        vals = np.concatenate([vals[keep], n_vals])
        errs = np.concatenate([errs[keep], n_errs])
        if turns is not None:
            turns = tuple(np.concatenate([t[keep], n]) for t, n in zip(turns, n_turns))


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
    cutoff: float | None = None,
    rates=None,
) -> QuadratureResult:
    """Integrate over [0, inf) by truncating where the envelope is negligible.

    ``envelope(x)`` must bound |f| (every member of a vector-valued f, every
    coefficient of a fringe integrand at ``rates``) and not increase on [1, inf), where the search starts; the domain
    is truncated where it drops below a tenth of the absolute tolerance
    (:func:`tail_cutoff`), then handed to :func:`integrate`.  Callers that
    integrate many functions under one envelope and tolerance may pass that
    truncation point as ``cutoff``, which skips the search.
    """
    if cutoff is None:
        cutoff = tail_cutoff(envelope, abs_tol)
    return integrate(f, 0.0, cutoff, abs_tol=abs_tol, rel_tol=rel_tol, rates=rates)
