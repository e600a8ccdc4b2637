"""The product-rule fringe kernel of the quadrature engine against the
integrand it stands for, formed elementwise.

A fringe integrand hands the engine the coefficients of 1, cos xτ and
sin xτ, the call its rates τ as ``rates``; the engine sums cos mτ and sin mτ
per panel midpoint m against one table of product weights per half-width h.
The reference is the same engine on the plain integrand
a₀ + a_c cos(xτ) + a_s sin(xτ), evaluated node by node with its first panels
capped at a quarter period of the largest rate.
"""

import numpy as np
import pytest

from mmi import spectra, states
from mmi.intensity import _spectral_integral
from mmi.quadrature import NODES, TOL, _eval_panels
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
    "bose-1": lambda tau: bose_weighted_integral(1.0, 1, tau),
    "bose-3": lambda tau: bose_weighted_integral(1.0, 3, tau),
    **{f"fock-{d}": _spectral(F_LO, False, d) for d in (1, 3)},
    **{f"coherent-{d}": _spectral(F_LO, True, d) for d in (1, 3)},
    **{f"vacuum-{d}": _spectral(None, False, d) for d in (1, 3)},
}


def _norm(case):
    """J(d) for the Bose integral at θ = 1, the τ = 0 intensity for a spectral one."""
    if case.startswith("bose"):
        return bose_integral_constant(int(case[-1]))
    return CASES[case](0.0).value


def _elementwise(f, rates):
    """The plain integrand of ``f``'s fringes at ``rates``, node × delay."""

    def plain(x):
        phase = np.multiply.outer(x, rates)
        out = np.zeros(phase.shape)
        for coef, kernel in zip(f(x), (np.ones_like, np.cos, np.sin)):
            if coef is not None:
                out += coef[:, None] * kernel(phase)
        return out

    return plain


def _swap_integrand(monkeypatch, swap, keywords=lambda rates: {"rates": rates}):
    """Hand every integration of the scenario integrals ``swap(f, rates)`` in place of f,
    and the keywords ``keywords(rates)`` in place of the call's ``rates``."""
    for module, name in ((states, "integrate_half_line"), (spectra, "integrate")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda f, *a, rates, _original=original, **k: _original(swap(f, rates), *a, **k, **keywords(rates)),
        )


def _quarter_period(rates):
    """The plain integrand's oscillation rate: the largest of the fringes' rates."""
    return {"osc_scale": float(np.abs(rates).max())}


@pytest.mark.parametrize("grid", ["wide", "near"])
@pytest.mark.parametrize("case", CASES)
def test_factored_kernel_matches_elementwise_integrand(monkeypatch, case, grid):
    tau = WIDE if grid == "wide" else NEAR
    got = CASES[case](tau)
    _swap_integrand(monkeypatch, _elementwise, keywords=_quarter_period)
    ref = CASES[case](tau)
    # both meet the tolerance; the product rule needs no more panels
    assert np.max(np.abs(got.value - ref.value)) <= TOL * _norm(case)
    assert got.panels <= ref.panels
    if grid == "near":  # a bisection pass evaluated panels of a second width
        assert got.evaluations > NODES.size * got.panels


@pytest.mark.parametrize("case", CASES)
def test_factored_kernel_matches_elementwise_integrand_on_mixed_widths(monkeypatch, case):
    # the scenario's own integrand, on panels of three widths in one pass, after a
    # pass of one width has filled the table cache
    integrands = []
    _swap_integrand(monkeypatch, lambda f, rates: integrands.append((f, rates)) or f)
    CASES[case](WIDE[:5])
    f, rates = integrands[0]
    h = 0.4
    half = h * np.array([1.0, 0.5, 0.25, 1.0, 0.25, 0.5, 1.0, 0.5])  # exact halvings
    mid = np.cumsum(2.0 * half) - half
    assert np.unique(half).size == 3
    tables = {}
    _eval_panels(f, np.array([h, 3.0 * h]), np.array([h, h]), tables, rates)
    got = _eval_panels(f, mid, half, tables, rates)
    ref = _eval_panels(_elementwise(f, rates), mid, half, {})
    assert got[2] == ref[2] == (5,)
    for g, r in zip(got[:2], ref[:2]):
        assert g.shape == r.shape == (mid.size, 5)
    # each width's panels as they come out of a pass of that width alone, with fresh tables
    for width in np.unique(half):
        alone = _eval_panels(f, mid[half == width], half[half == width], {}, rates)
        for g, a in zip(got[:2], alone[:2]):
            assert np.max(np.abs(g[half == width] - a)) <= 1e-15 * _norm(case)
    # the Kronrod panel values against the elementwise integrand, to the tolerance
    assert np.max(np.abs(got[0] - ref[0])) <= TOL * _norm(case)
