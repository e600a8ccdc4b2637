"""Product weights of the 15-point Gauss-Kronrod rule of :mod:`mmi.quadrature`.

The product weights of a rule at a rate ω are Wc_j(ω) = ∫₋₁¹ ℓ_j(ξ)
cos(ωξ) dξ and Ws_j(ω) = ∫₋₁¹ ℓ_j(ξ) sin(ωξ) dξ, ℓ_j its Lagrange basis:
summed against the values of a coefficient at the nodes, they integrate
its interpolant against cos ωξ and sin ωξ exactly (Filon, Proc. R. Soc.
Edinburgh 49, 1928; Piessens & Branders, J. Comput. Appl. Math. 1, 1975).
At ω = 0 they are the rule's own weights.  They come from the Legendre
expansion of ℓ_j and ∫₋₁¹ P_n(ξ) e^{iωξ} dξ = 2iⁿ j_n(ω), j_n the
spherical Bessel functions, so a table of them costs j_0 … j_14 per rate
and two small matrix products.  The quadrature imports this module when it
first builds a table.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES


def _legendre(x: np.ndarray, count: int) -> np.ndarray:
    """P_0 … P_{count-1} at the points x, one column per degree (Bonnet's recurrence)."""
    p = np.ones((x.size, count))
    p[:, 1] = x
    for n in range(1, count - 1):
        p[:, n + 1] = ((2 * n + 1) * x * p[:, n] - n * p[:, n - 1]) / (n + 1)
    return p


def _bessel_maps() -> tuple[np.ndarray, np.ndarray]:
    """The product weights at the nodes ξ_j ≥ 0 per unit of each j_n: Wc of the even
    orders, (node × rule, 8), and Ws of the odd orders, at ξ_j > 0, (node × rule, 7).

    A rule's Lagrange basis is ℓ_j = Σ_n A[n, j] P_n, A the inverse of
    [P_n(ξ_j)], so Wc_j + i Ws_j = Σ_n 2iⁿ A[n, j] j_n(ω).  The n = 0 entry is
    ∫ℓ_j, the rule's own weight, which is used exactly.  The nodes are
    symmetric, so Wc_j is even in ξ_j and Ws_j odd; the rows run over the
    nodes, Kronrod then Gauss for each (0 where a node is not Gauss's).
    """
    wc = np.zeros((NODES.size, 2, NODES.size))  # node, rule, n
    ws = np.zeros((NODES.size, 2, NODES.size))
    for rule, (nodes, weights) in enumerate(((slice(None), KRONROD_WEIGHTS), (slice(1, None, 2), GAUSS_WEIGHTS))):
        a = 2.0 * np.linalg.inv(_legendre(NODES[nodes], NODES[nodes].size)).T  # node, n
        n = np.arange(a.shape[1])
        sign = (-1.0) ** (n // 2)  # iⁿ = sign for even n, i·sign for odd n
        wc[nodes, rule, : n.size] = a * np.where(n % 2, 0.0, sign)
        ws[nodes, rule, : n.size] = a * np.where(n % 2, sign, 0.0)
        wc[:, rule, 0] = weights
    middle = NODES.size // 2  # ξ = 0
    return wc[middle:, :, 0::2].reshape(-1, middle + 1), ws[middle + 1 :, :, 1::2].reshape(-1, middle)


_COS_MAP, _SIN_MAP = _bessel_maps()
# (2n + 1)!! for the orders of j_n
_DOUBLE_FACTORIAL = np.cumprod(np.arange(1.0, 2.0 * NODES.size, 2.0))


def _miller_start(x_max: float) -> int:
    """The order where Miller's recurrence starts for arguments up to ``x_max``:
    past the 15 needed, where x^n/(2n + 1)!!, about j_n, is below 1e-15."""
    n, log_size = 0, 0.0
    while n < NODES.size or log_size > -35.0:
        n += 1
        log_size += math.log(x_max / (2 * n + 1))
    return n


def _bessel_upward(x: np.ndarray) -> np.ndarray:
    """j_0 … j_14 at x ≥ 12, (15, x.size), by the recurrence upward from j_0 and j_1,
    which is stable where every order is below the argument."""
    rows = np.empty((NODES.size, x.size))
    inv = 1.0 / x
    rows[0] = np.sin(x) * inv
    rows[1] = (rows[0] - np.cos(x)) * inv
    for n in range(1, NODES.size - 1):
        np.multiply(rows[n], inv, out=rows[n + 1])
        rows[n + 1] *= 2 * n + 1
        rows[n + 1] -= rows[n - 1]
    return rows


def _bessel_miller(x: np.ndarray) -> np.ndarray:
    """j_0 … j_14 at 0 ≤ x < 12, (15, x.size), by Miller's backward recurrence scaled to
    j_0 and j_1; it starts from 1e-200, so that no argument down to 1e-8 overflows it,
    and below 1e-8 the leading term x^n/(2n + 1)!! stands, off by less than x²/6."""
    rows = np.empty((NODES.size, x.size))
    near = np.maximum(x, 1e-8)
    inv = 1.0 / near
    j0 = np.sin(near) * inv
    j1 = (j0 - np.cos(near)) * inv
    # f_{n+1}, f_n of an unscaled solution from n = start down, and a spare buffer
    above, here, spare = np.zeros(x.size), np.full(x.size, 1e-200), np.empty(x.size)
    for n in range(_miller_start(float(near.max())), 0, -1):
        below = rows[n - 1] if n <= NODES.size else spare
        np.multiply(here, inv, out=below)
        below *= 2 * n + 1
        below -= above
        above, here, spare = here, below, above
    rows /= (rows[0] * j0 + rows[1] * j1) / (j0 * j0 + j1 * j1)
    tiny = x < 1e-8
    if tiny.any():
        rows[:, tiny] = x[tiny] ** np.arange(NODES.size)[:, None] / _DOUBLE_FACTORIAL[:, None]
    return rows


def _spherical_bessel(omega: np.ndarray) -> np.ndarray:
    """j_0 … j_14 at the arguments ω ≥ 0, (15, ω.size): Miller's recurrence below 12, the
    upward one from 12 on."""
    out = np.empty((NODES.size, omega.size))
    far = omega >= 12.0
    for mask, branch in ((far, _bessel_upward), (~far, _bessel_miller)):
        if mask.any():
            out[:, mask] = branch(omega[mask])
    return out


def product_weights(halves: np.ndarray, rates: np.ndarray) -> list:
    """The product weights of both rules at each panel half-width h of ``halves``: per width
    Wc_j(hτ_k) at the nodes ξ_j ≥ 0, (8, 2K), and Ws_j(hτ_k) at ξ_j > 0, (7, 2K), Kronrod's
    K columns then Gauss's (:func:`_bessel_maps`)."""
    omega = np.multiply.outer(halves, rates).ravel()
    j = _spherical_bessel(np.abs(omega))
    j[1::2] *= np.sign(omega)  # j_n(-ω) = (-1)ⁿ j_n(ω)
    k = rates.size
    tables = []
    for i in range(halves.size):
        block = j[:, i * k : (i + 1) * k]
        tables.append(((_COS_MAP @ block[0::2]).reshape(-1, 2 * k), (_SIN_MAP @ block[1::2]).reshape(-1, 2 * k)))
    return tables
