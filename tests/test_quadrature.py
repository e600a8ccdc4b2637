import math

import numpy as np
import pytest

from mmi import quadrature
from mmi._product_weights import product_weights
from mmi.quadrature import (
    CHUNK_ELEMENTS,
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    TOL,
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
    )
    assert abs(res.value - 1.0 / (1.0 + a * a)) < 1e-12


def test_error_estimate_bounds_true_error():
    res = integrate(lambda x: np.sin(x) ** 2, 0.0, 10.0, abs_tol=1e-10, rel_tol=1e-10)
    exact = 5.0 - math.sin(20.0) / 4.0
    assert abs(res.value - exact) <= max(res.error, 1e-13)


def test_panel_budget_exhaustion_reports_achieved_tolerance(monkeypatch):
    # |x|^0.1 has a derivative singularity; a 4-panel budget cannot resolve it
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: np.abs(x - 0.5) ** 0.1, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15)
    assert err.value.achieved > err.value.requested
    assert err.value.requested > 0.0


def test_tolerance_below_the_smallest_normal_float_forces_a_split():
    # with abs_tol = 0 a subnormal integrand's tolerance rel_tol·|I| ≈ 5e-322 is below the
    # smallest normal float, the floor of every panel's share, so no panel exceeds its share
    # and each pass bisects the panel of the largest share
    res = integrate(lambda x: 1e-309 * np.sqrt(np.abs(x - 0.3)), 0.0, 1.0, abs_tol=0.0)
    exact = 1e-309 * (2.0 / 3.0) * (0.3**1.5 + 0.7**1.5)
    assert TOL * exact < np.finfo(float).tiny
    assert abs(res.value - exact) <= res.error
    assert res.panels == 37


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 1.0)


def test_fast_oscillation_resolved_from_eight_first_panels():
    # integral of cos(50 x) over [0, pi] is ~0: each of the eight first panels
    # spans three periods, where K15 and G7 disagree, so refinement resolves them
    res = integrate(lambda x: np.cos(50.0 * x), 0.0, math.pi, abs_tol=1e-12, rel_tol=1e-12)
    assert abs(res.value - math.sin(50.0 * math.pi) / 50.0) < 1e-12


def test_half_line_envelope_never_decaying_rejected():
    with pytest.raises(ValueError):
        integrate_half_line(lambda x: np.ones_like(x), envelope=lambda x: 1.0, abs_tol=1e-10)


def test_non_finite_interval_rejected():
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
    vec = integrate(_damped_cosines(RATES), 0.0, 40.0, abs_tol=tol, rel_tol=tol)
    assert vec.value.shape == vec.error.shape == RATES.shape
    for k, rate in enumerate(RATES):
        one = integrate(lambda x: np.exp(-x) * np.cos(rate * x), 0.0, 40.0, abs_tol=tol, rel_tol=tol)
        assert isinstance(one.value, float) and isinstance(one.error, float)
        assert abs(vec.value[k] - one.value) <= 1e-13
        assert abs(vec.value[k] - 1.0 / (1.0 + rate * rate)) <= 1e-13
        # every member meets its own tolerance
        assert vec.error[k] <= max(tol, tol * abs(vec.value[k]))


def test_evaluations_count_nodes_once_per_pass():
    res = integrate(_damped_cosines(RATES), 0.0, 40.0)
    assert res.evaluations >= NODES.size * res.panels
    assert res.evaluations % NODES.size == 0
    single = integrate(lambda x: x * x, 0.0, 1.0)  # exact on the first pass
    assert (single.panels, single.evaluations) == (8, 8 * NODES.size)
    refined = integrate(lambda x: np.exp(-x * x), 0.0, 9.0)  # 8 panels, then two bisections
    assert (refined.panels, refined.evaluations) == (10, 12 * NODES.size)


def test_vector_budget_exhaustion_reports_worst_member(monkeypatch):
    # two rough members and a smooth one; the budget is the first pass
    def rough(x):
        return np.stack([np.exp(-x), np.abs(x - 0.5) ** 0.1, 3.0 * np.abs(x - 0.31) ** 0.3], axis=1)

    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    kw = {"abs_tol": 1e-15, "rel_tol": 1e-15}
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
    # ∫₀^40 e^-x cos(τx) dx for every delay, as fringe integrands, and the rates of each chunk
    calls = []
    refine = quadrature._refine

    def refine_chunk(f, lo, hi, abs_tol, rel_tol, rates):
        calls.append(rates.copy())
        return refine(f, lo, hi, abs_tol, rel_tol, rates)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "_refine", refine_chunk)
        return integrate(lambda x: (None, np.exp(-x), None), 0.0, 40.0, abs_tol=tol, rel_tol=tol, rates=delays), calls


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
        # the tolerance, plus the phase-rounding floor ε·40·|τ|·∫e^-x
        assert res.error[k] <= 1e-13 + 1.001 * np.finfo(float).eps * 40.0 * abs(tau)
    # one chunk holds every delay
    assert len(calls) == 1 and sorted(np.abs(calls[0])) == sorted(np.abs(delays))


def test_grid_larger_than_one_chunk_stays_within_the_chunk_budget():
    # the first pass of a fringe integrand is eight panels whatever the rate,
    # so a chunk holds CHUNK_ELEMENTS // (8 × 15) delays
    delays = np.random.default_rng(7).uniform(-30.0, 30.0, 2000).reshape(40, 50)
    res, calls = _grid_result(delays)
    assert len(calls) > 1
    assert sorted(np.abs(np.concatenate(calls))) == sorted(np.abs(delays.ravel()))
    largest = [np.abs(t).max() for t in calls]
    assert largest == sorted(largest)  # chunks of ascending |τ|
    for t in calls:
        assert t.size * NODES.size * 8 <= CHUNK_ELEMENTS
    first = []
    integrate(lambda x: first.append(x.size) or (None, np.exp(-x), None), 0.0, 40.0, rates=calls[-1])
    assert first[0] == NODES.size * 8
    assert res.value.shape == delays.shape
    assert np.max(np.abs(res.value - 1.0 / (1.0 + delays**2))) <= 1e-13
    assert res.panels == sum(
        integrate(lambda x: (None, np.exp(-x), None), 0.0, 40.0, abs_tol=1e-13, rel_tol=1e-13, rates=t).panels
        for t in calls
    )


def test_vector_results_are_read_only():
    vec = integrate(_damped_cosines(RATES), 0.0, 40.0)
    grid, _ = _grid_result(RATES)
    for res in (vec, grid):
        for array in (res.value, res.error):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -1.0


def test_grid_rejects_non_finite_delays():
    with pytest.raises(ValueError, match="finite"):
        _grid_result(np.array([0.0, math.nan]))


@pytest.mark.parametrize("shape", [(2, 3), (0,), (0, 3)])
def test_fringe_rates_of_any_shape_come_back_in_their_shape(shape):
    # ∫₀^10 e^-x cos x dx at every member; an empty family integrates nothing
    res = integrate(lambda x: (None, np.exp(-x), None), 0.0, 10.0, rates=np.ones(shape))
    assert res.value.shape == res.error.shape == shape
    exact = 0.5 * (1.0 + math.exp(-10.0) * (math.sin(10.0) - math.cos(10.0)))
    assert np.all(np.abs(res.value - exact) <= TOL)
    if not res.value.size:
        assert res.panels == res.evaluations == 0


def test_fringe_family_of_only_a_constant_term_has_one_member_per_rate():
    res = integrate(lambda x: (np.exp(-x), None, None), 0.0, 10.0, rates=[1.0, 2.0])
    assert res.value.shape == res.error.shape == (2,)
    assert np.all(np.abs(res.value - (1.0 - math.exp(-10.0))) <= TOL)


def test_fringe_family_of_only_a_constant_term_states_no_phase_floor():
    # no cos or sin term, so no phase x·τ rounds, however large the rate
    res = integrate(lambda x: (np.exp(-x), None, None), 0.0, 10.0, rates=[1.0, 1e6])
    observed = np.abs(res.value - (1.0 - math.exp(-10.0)))
    assert np.all(res.error <= 1e-15)
    assert np.all(res.error >= observed)


def test_fringe_grid_memory_stays_flat():
    # 20 000 rates are 37 chunks of at most CHUNK_ELEMENTS node × rate values in a
    # first pass; the whole family in one pass took the peak to 105.9 MiB
    import tracemalloc

    rates = np.random.default_rng(5).uniform(-30.0, 30.0, 20000)
    integrate(lambda x: (None, np.exp(-x), None), 0.0, 40.0, rates=rates[:3])  # the product-weight import
    tracemalloc.start()
    try:
        res = integrate(lambda x: (None, np.exp(-x), None), 0.0, 40.0, rates=rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(res.value - 1.0 / (1.0 + rates**2))) <= 1e-12
    assert peak < 8 * 2**20


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_fringe_rates_must_be_finite(rate):
    with pytest.raises(ValueError, match="delays must be finite"):
        integrate(lambda x: (None, np.exp(-x), None), 0.0, 10.0, rates=[1.0, rate])


@pytest.mark.parametrize("terms", ["a0", "cos"])
def test_every_rate_past_the_reach_is_refused_before_any_evaluation(terms):
    # X·|τ| = 10 · 1e7 > 2^26: the rule holds for every family, an a₀-only one too,
    # though no phase of it rounds
    calls = []

    def f(x):
        calls.append(x.size)
        return (np.exp(-x), None, None) if terms == "a0" else (None, np.exp(-x), None)

    with pytest.raises(QuadratureError, match="reach"):
        integrate(f, 0.0, 10.0, rates=[1.0, 1e7])
    assert calls == []


# ---------------------------------------------------------------------------
# product weights of the fringe kernel

OMEGAS = np.array([0.0, 1e-9, 0.005, 0.7, 4.49, 11.99, 12.0, 30.0, 1e3, 1e5])


def _lagrange(nodes, j):
    others = np.delete(nodes, j)
    return lambda x: float(np.prod((x - others) / (nodes[j] - others)))


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")  # QAWO at its tolerance floor
def test_product_weights_match_oscillatory_quadrature_of_the_lagrange_basis():
    # Wc_j(ω) = ∫₋₁¹ ℓ_j(ξ) cos(ωξ) dξ and Ws_j likewise, ℓ_j the Lagrange basis of the
    # 15 Kronrod or the 7 Gauss nodes, against QUADPACK's QAWO on each basis polynomial
    integrate_weighted = pytest.importorskip("scipy.integrate").quad
    wc, ws = product_weights(np.array([1.0]), OMEGAS)[0]
    k = OMEGAS.size
    for rule, nodes in enumerate((NODES, NODES[1::2])):
        middle = nodes.size // 2
        for row, j in enumerate(range(middle, nodes.size)):  # the nodes ξ_j ≥ 0
            ell = _lagrange(nodes, j)
            full = 2 * row if rule else row  # a Gauss node's row among the Kronrod nodes
            for i, omega in enumerate(OMEGAS):
                kw = {"epsabs": 1e-15, "epsrel": 1e-14, "limit": 200}
                if omega:
                    cos = integrate_weighted(ell, -1.0, 1.0, weight="cos", wvar=omega, **kw)[0]
                    sin = integrate_weighted(ell, -1.0, 1.0, weight="sin", wvar=omega, **kw)[0]
                else:
                    cos, sin = integrate_weighted(ell, -1.0, 1.0, **kw)[0], 0.0
                assert abs(wc[full, rule * k + i] - cos) <= 1e-15, (rule, j, omega)
                if full:
                    assert abs(ws[full - 1, rule * k + i] - sin) <= 1e-15, (rule, j, omega)
    # at hτ = 0 they are the rules' own weights, and for hτ < 0 the sine weights change sign
    assert np.array_equal(wc[:, [0, k]], np.stack([KRONROD_WEIGHTS[7:], GAUSS_WEIGHTS[7:]], axis=1))
    assert not ws[:, [0, k]].any()
    flipped = product_weights(np.array([1.0]), -OMEGAS)[0]
    assert np.array_equal(flipped[0], wc) and np.array_equal(flipped[1], -ws)
