"""The factored oscillatory kernel of the quadrature engine against the
integrand it stands for, formed elementwise.

An integrand that returns :class:`mmi.quadrature._Fringes` hands the engine
the coefficients of 1, cos xτ and sin xτ; the engine sums cos mτ and sin mτ
per panel midpoint m against one table of cos and sin hξτ per half-width h.
The reference is the same engine on the plain integrand
a₀ + a_c cos(xτ) + a_s sin(xτ), evaluated node by node.
"""

import numpy as np
import pytest

from mmi import spectra, states
from mmi.intensity import _spectral_integral
from mmi.quadrature import NODES, _eval_panels
from mmi.spectra import SpectralDistribution
from mmi.states import bose_weighted_integral
from mmi.thermal_kernels import bose_integral_constant

F_S = SpectralDistribution(3.0, 1.0)
F_LO = SpectralDistribution(3.15, 1.1)

# unsorted and signed, over several chunks
WIDE = np.random.default_rng(23).uniform(-6.0, 6.0, 300)
# unsorted and signed, all in one chunk of eight first panels that must be bisected
NEAR = np.array([0.02, -0.1, 0.0, 0.05, -0.004, 0.1])


def _spectral(f_lo, cross, d):
    return lambda tau: _spectral_integral(F_S, f_lo, tau, d, cross)


CASES = {
    "bose-1": lambda tau: bose_weighted_integral(1.0, 1, "cos", tau),
    "bose-3": lambda tau: bose_weighted_integral(1.0, 3, "cos", tau),
    **{f"fock-{d}": _spectral(F_LO, False, d) for d in (1, 3)},
    **{f"coherent-{d}": _spectral(F_LO, True, d) for d in (1, 3)},
    **{f"vacuum-{d}": _spectral(None, False, d) for d in (1, 3)},
}


def _norm(case):
    """J(d) for the Bose integral at θ = 1, the τ = 0 intensity for a spectral one."""
    if case.startswith("bose"):
        return bose_integral_constant(int(case[-1]))
    return CASES[case](0.0).value


def _elementwise(f):
    """The plain integrand of ``f``'s fringes, node × delay."""

    def plain(x):
        y = f(x)
        phase = np.multiply.outer(x, y.rates)
        out = np.zeros(phase.shape)
        for coef, kernel in ((y.const, np.ones_like), (y.cos, np.cos), (y.sin, np.sin)):
            if coef is not None:
                out += coef[:, None] * kernel(phase)
        return out

    return plain


def _swap_integrand(monkeypatch, swap):
    """Hand every integration of the scenario integrals ``swap(f)`` in place of f."""
    for module, name in ((states, "integrate_half_line"), (spectra, "integrate")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda f, *a, _original=original, **k: _original(swap(f), *a, **k))


@pytest.mark.parametrize("grid", ["wide", "near"])
@pytest.mark.parametrize("case", CASES)
def test_factored_kernel_matches_elementwise_integrand(monkeypatch, case, grid):
    tau = WIDE if grid == "wide" else NEAR
    got = CASES[case](tau)
    _swap_integrand(monkeypatch, _elementwise)
    ref = CASES[case](tau)
    assert np.max(np.abs(got.value - ref.value)) <= 1e-14 * _norm(case)
    assert (got.panels, got.evaluations) == (ref.panels, ref.evaluations)
    if grid == "near":  # a bisection pass evaluated panels of a second width
        assert got.evaluations > NODES.size * got.panels


@pytest.mark.parametrize("case", CASES)
def test_factored_kernel_matches_elementwise_integrand_on_mixed_widths(monkeypatch, case):
    # the scenario's own integrand, on panels of three widths in one pass, after a
    # pass of one width has filled the table cache
    integrands = []
    _swap_integrand(monkeypatch, lambda f: integrands.append(f) or f)
    CASES[case](WIDE[:5])
    f = integrands[0]
    h = 0.4
    half = h * np.array([1.0, 0.5, 0.25, 1.0, 0.25, 0.5, 1.0, 0.5])  # exact halvings
    mid = np.cumsum(2.0 * half) - half
    assert np.unique(half).size == 3
    tables = {}
    _eval_panels(f, np.array([h, 3.0 * h]), np.array([h, h]), tables)
    got = _eval_panels(f, mid, half, tables)
    ref = _eval_panels(_elementwise(f), mid, half, {})
    assert got[2] == ref[2] == (5,)
    for g, r in zip(got[:2], ref[:2]):
        assert g.shape == r.shape == (mid.size, 5)
        assert np.max(np.abs(g - r)) <= 1e-14 * _norm(case)
