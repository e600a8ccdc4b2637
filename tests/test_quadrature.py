import math

import numpy as np
import pytest

from mmi.quadrature import (
    CHUNK_ELEMENTS,
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    QuadratureError,
    integrate,
    integrate_grid,
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


# ---------------------------------------------------------------------------
# vector-valued integrands and delay grids

RATES = np.array([0.0, 0.3, 2.0, 7.5, 25.0])


def _damped_cosines(rates):
    # member k: e^-x cos(r_k x), whose integral over [0, inf) is 1/(1 + r_k²)
    return lambda x: np.exp(-x)[:, None] * np.cos(np.multiply.outer(x, rates))


def test_vector_integrand_matches_members_one_at_a_time():
    tol = 1e-13
    vec = integrate(_damped_cosines(RATES), 0.0, 40.0, abs_tol=tol, rel_tol=tol, osc_scale=RATES.max())
    assert vec.value.shape == vec.error.shape == RATES.shape
    for k, rate in enumerate(RATES):
        one = integrate(lambda x: np.exp(-x) * np.cos(rate * x), 0.0, 40.0, abs_tol=tol, rel_tol=tol, osc_scale=rate)
        assert isinstance(one.value, float) and isinstance(one.error, float)
        assert abs(vec.value[k] - one.value) <= 1e-13
        assert abs(vec.value[k] - 1.0 / (1.0 + rate * rate)) <= 1e-13
        # every member meets its own tolerance
        assert vec.error[k] <= max(tol, tol * abs(vec.value[k]))


def test_evaluations_count_nodes_once_per_pass():
    res = integrate(_damped_cosines(RATES), 0.0, 40.0, osc_scale=RATES.max())
    assert res.evaluations >= NODES.size * res.panels
    assert res.evaluations % NODES.size == 0
    single = integrate(lambda x: x * x, 0.0, 1.0)  # exact on the first pass
    assert (single.panels, single.evaluations) == (8, 8 * NODES.size)
    refined = integrate(lambda x: np.exp(-x * x), 0.0, 9.0)  # 8 panels, then two bisections
    assert (refined.panels, refined.evaluations) == (10, 12 * NODES.size)


def test_vector_budget_exhaustion_reports_worst_member():
    # two rough members and a smooth one; the budget is the first pass
    def rough(x):
        return np.stack([np.exp(-x), np.abs(x - 0.5) ** 0.1, 3.0 * np.abs(x - 0.31) ** 0.3], axis=1)

    kw = {"abs_tol": 1e-15, "rel_tol": 1e-15, "max_panels": 4}
    with pytest.raises(QuadratureError) as err:
        integrate(rough, 0.0, 1.0, **kw)
    assert integrate(lambda x: np.exp(-x), 0.0, 1.0, **kw).error <= 1e-15
    alone = []
    for k in (1, 2):
        with pytest.raises(QuadratureError) as one:
            integrate(lambda x: rough(x)[:, k], 0.0, 1.0, **kw)
        alone.append(one.value)
    worst = max(alone, key=lambda e: e.achieved / e.requested)
    assert err.value.achieved == pytest.approx(worst.achieved, rel=1e-12)
    assert err.value.requested == pytest.approx(worst.requested, rel=1e-12)
    assert err.value.achieved > err.value.requested


def test_vector_integrand_non_finite_member_rejected():
    def f(x):
        out = np.stack([np.exp(-x), np.exp(-x)], axis=1)
        out[0, 1] = np.nan
        return out

    with pytest.raises(ValueError, match="non-finite"):
        integrate(f, 0.0, 1.0)


def _grid_result(delays, tol=1e-13):
    # ∫₀^40 e^-x cos(τx) dx for every delay, chunk by chunk
    calls = []

    def integrate_chunk(t, osc_scale):
        calls.append((t.copy(), osc_scale))
        return integrate(_damped_cosines(t), 0.0, 40.0, abs_tol=tol, rel_tol=tol, osc_scale=osc_scale)

    return integrate_grid(delays, 40.0, integrate_chunk), calls


def test_grid_matches_delays_one_at_a_time():
    # unsorted, repeated, zero and negative delays
    delays = np.array([3.0, -3.0, 0.0, 12.5, 3.0, 0.2, -0.0, 7.0, 0.2])
    res, calls = _grid_result(delays)
    assert res.value.shape == res.error.shape == delays.shape
    for k, tau in enumerate(delays):
        one, _ = _grid_result(tau)
        assert isinstance(one.value, float)
        assert abs(res.value[k] - one.value) <= 1e-13
        assert abs(res.value[k] - 1.0 / (1.0 + tau * tau)) <= 1e-13
        assert res.error[k] <= 1e-13
    # each chunk integrates at its own largest |τ|
    for t, osc_scale in calls:
        assert osc_scale == np.abs(t).max()


def test_grid_larger_than_one_chunk_stays_within_the_chunk_budget():
    delays = np.random.default_rng(7).uniform(-30.0, 30.0, 400).reshape(20, 20)
    res, calls = _grid_result(delays)
    assert len(calls) > 1
    assert sorted(np.abs(np.concatenate([t for t, _ in calls]))) == sorted(np.abs(delays.ravel()))
    scales = [osc_scale for _, osc_scale in calls]
    assert scales == sorted(scales)  # chunks of ascending |τ|
    for t, osc_scale in calls:
        first_pass = NODES.size * max(8, math.ceil(2.0 * 40.0 * osc_scale / math.pi))
        assert t.size == 1 or t.size * first_pass <= CHUNK_ELEMENTS
    assert res.value.shape == delays.shape
    assert np.max(np.abs(res.value - 1.0 / (1.0 + delays**2))) <= 1e-13
    assert res.panels == sum(
        integrate(_damped_cosines(t), 0.0, 40.0, abs_tol=1e-13, rel_tol=1e-13, osc_scale=s).panels
        for t, s in calls
    )


def test_grid_rejects_non_finite_delays():
    with pytest.raises(ValueError, match="finite"):
        _grid_result(np.array([0.0, math.nan]))
