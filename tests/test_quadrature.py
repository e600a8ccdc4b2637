import math

import numpy as np
import pytest

from mmi.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    QuadratureError,
    integrate,
    integrate_half_line,
)


def test_rule_weights_sum_to_interval_length():
    assert abs(KRONROD_WEIGHTS.sum() - 2.0) < 1e-15
    assert abs(GAUSS_WEIGHTS.sum() - 2.0) < 1e-15


@pytest.mark.parametrize("degree", range(0, 23))
def test_kronrod_rule_exact_for_polynomials(degree):
    # single panel on [-1, 1]: the 15-point rule must integrate monomials
    # exactly through degree 22
    quad = float(np.sum(KRONROD_WEIGHTS * NODES**degree))
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert abs(quad - exact) < 5e-15


@pytest.mark.parametrize("degree", range(0, 14))
def test_embedded_gauss_rule_exact_for_polynomials(degree):
    quad = float(np.sum(GAUSS_WEIGHTS * NODES**degree))
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    assert abs(quad - exact) < 5e-15


def test_gaussian_integral():
    res = integrate(lambda x: np.exp(-x * x), 0.0, 9.0, abs_tol=1e-14, rel_tol=1e-14)
    assert abs(res.value - math.sqrt(math.pi) / 2.0) < 1e-12
    assert res.error <= 1e-13


def test_bose_moment_d3():
    def f(x):
        out = np.empty_like(x)
        tiny = x < 1e-8
        out[~tiny] = x[~tiny] ** 3 / np.expm1(x[~tiny])
        out[tiny] = x[tiny] ** 2
        return out

    res = integrate(f, 0.0, 45.0, abs_tol=1e-13, rel_tol=1e-13)
    assert abs(res.value - math.pi**4 / 15.0) / (math.pi**4 / 15.0) < 1e-12


def test_oscillatory_integrand_converges():
    # int_0^inf e^-x cos(ax) dx = 1/(1+a^2)
    a = 25.0
    res = integrate_half_line(
        lambda x: np.exp(-x) * np.cos(a * x),
        envelope=lambda x: math.exp(-x),
        abs_tol=1e-13,
        rel_tol=1e-13,
        osc_scale=a,
    )
    assert abs(res.value - 1.0 / (1.0 + a * a)) < 1e-12


def test_error_estimate_bounds_true_error():
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, 10.0, abs_tol=1e-10, rel_tol=1e-10)
    exact = 5.0 - math.sin(20.0) / 4.0
    assert abs(res.value - exact) <= max(res.error, 1e-13)


def test_panel_budget_exhaustion_reports_achieved_tolerance():
    # |x|^0.1 has a derivative singularity; a 4-panel budget cannot resolve it
    with pytest.raises(QuadratureError) as err:
        integrate(
            lambda x: np.abs(x - 0.5) ** 0.1,
            0.0,
            1.0,
            abs_tol=1e-15,
            rel_tol=1e-15,
            max_panels=4,
        )
    assert err.value.achieved > err.value.requested
    assert err.value.requested > 0.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 1.0)


def test_oscillation_cap_limits_initial_panel_width():
    # with osc_scale the first pass must already resolve the fringe count:
    # integral of cos(50 x) over [0, pi] is ~0, catastrophically wrong if
    # sampled with 8 panels
    res = integrate(lambda x: np.cos(50.0 * x), 0.0, math.pi, abs_tol=1e-12, rel_tol=1e-12, osc_scale=50.0)
    assert abs(res.value - math.sin(50.0 * math.pi) / 50.0) < 1e-12


def test_half_line_envelope_never_decaying_rejected():
    with pytest.raises(ValueError):
        integrate_half_line(lambda x: np.ones_like(x), envelope=lambda x: 1.0, abs_tol=1e-10)


def test_non_finite_interval_or_oscillation_rate_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: np.cos(x), 0.0, 1.0, osc_scale=math.inf)
    with pytest.raises(ValueError):
        integrate(lambda x: np.ones_like(x), 0.0, math.inf)
