import math

import numpy as np
import pytest

import mmi.inference
from mmi.inference import (
    DEFAULT_COHERENCE_EPSILON,
    FitProblem,
    IdentifiabilityError,
    NonConvergenceError,
    discriminate_state_class,
    estimate_coherence_time,
    fit,
    model_prediction,
)
from mmi.intensity import (
    coherent_intensity, fock_intensity, fock_intensity_closed, thermal_thermal_ratio, thermal_vacuum_ratio,
)
from mmi.spectra import SpectralDistribution

F_S = SpectralDistribution(3.0, 1.0)
F_LO = SpectralDistribution(3.15, 1.0)


def _thermal_problem(ratio_true=1.01, n=200, noise=None, seed=None, theta0=1.0):
    taus = np.linspace(0.0, 3.0, n) / (ratio_true * theta0)  # a1 spans [0, 3]
    data = np.asarray(thermal_thermal_ratio(theta0, ratio_true * theta0, taus))
    if noise is not None:
        rng = np.random.default_rng(seed)
        data = data + rng.normal(0.0, noise, size=data.shape)
    return FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": theta0})


def test_thermal_roundtrip_noise_free():
    result = fit(_thermal_problem())
    assert abs(result.estimates["theta_ratio"] - 1.01) < 1e-6
    assert result.converged
    assert result.residual_norm <= result.initial_residual_norm
    assert all(u > 0.0 for u in result.uncertainties.values())


def test_thermal_roundtrip_is_deterministic():
    a = fit(_thermal_problem())
    b = fit(_thermal_problem())
    assert a.estimates == b.estimates
    assert a.iterations == b.iterations


def test_thermal_roundtrip_with_noise():
    hits = 0
    for seed in range(20):
        result = fit(_thermal_problem(noise=1e-4, seed=seed))
        if abs(result.estimates["theta_ratio"] - 1.01) < 1e-3:
            hits += 1
    assert hits >= 19


def test_no_better_minimum_at_truth():
    problem = _thermal_problem(noise=1e-4, seed=1)
    result = fit(problem)
    est = result.estimates["theta_ratio"]
    resid_est = np.linalg.norm(model_prediction("thermal_thermal", problem.tau, (est,), problem.fixed) - problem.ratios)
    resid_true = np.linalg.norm(model_prediction("thermal_thermal", problem.tau, (1.01,), problem.fixed) - problem.ratios)
    assert resid_est <= resid_true + 1e-12


def test_iteration_cap_raises_non_convergence_with_the_last_iterate(monkeypatch, tmp_path, capsys):
    from mmi import cli

    monkeypatch.setattr(mmi.inference, "_MAX_ITER", 2)  # the fit needs 6
    with pytest.raises(NonConvergenceError) as caught:
        fit(_thermal_problem())
    assert caught.value.result.iterations == 2
    assert caught.value.result.converged is False
    data = tmp_path / "tt.csv"
    assert cli.main(["simulate", "thermal-thermal", "--t1/t0", "1.01", "--grid", "0:3:200", "-o", str(data)]) == 0
    assert cli.main(["fit", str(data), "--model", "thermal-thermal", "--theta0", "1.0"]) == 3
    assert "no convergence within 2 iterations" in capsys.readouterr().err


def test_flat_data_raises_identifiability():
    taus = np.linspace(0.0, 3.0, 50)
    with pytest.raises(IdentifiabilityError):
        fit(FitProblem(tau=taus, ratios=np.ones_like(taus), model="thermal_thermal", fixed={"theta0": 1.0}))


def test_too_few_samples_rejected():
    with pytest.raises(IdentifiabilityError):
        FitProblem(tau=[0.0], ratios=[1.0], model="thermal_thermal", fixed={"theta0": 1.0})


def test_initial_guess_must_respect_bounds(monkeypatch):
    taus = np.linspace(0.0, 3.0, 50)
    data = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    monkeypatch.setattr(mmi.inference, "_BOUNDS", (0.5, 1.5))
    with pytest.raises(ValueError):
        FitProblem(
            tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0},
            initial=(2.0,),
        )


def test_one_photon_vacuum_roundtrip():
    taus = np.linspace(0.0, 6.0, 120)
    truth = (3.2, 0.9)
    data = model_prediction("one_photon_vacuum", taus, truth, {})
    result = fit(FitProblem(tau=taus, ratios=data, model="one_photon_vacuum", initial=(3.0, 1.0)))
    assert abs(result.estimates["mean_freq"] - truth[0]) < 1e-6
    assert abs(result.estimates["width"] - truth[1]) < 1e-6


def test_fock_roundtrip_with_default_initialization():
    taus = np.linspace(0.0, 6.0, 150)
    data = model_prediction("fock_fock", taus, (3.0, 1.0), {"lo_mean_freq": 3.15})
    problem = FitProblem(
        tau=taus, ratios=data, model="fock_fock",
        fixed={"lo_mean_freq": 3.15, "width_guess": 1.0},
    )
    result = fit(problem)
    assert abs(result.estimates["mean_freq"] - 3.0) < 1e-6
    assert abs(result.estimates["width"] - 1.0) < 1e-6


def test_coherent_model_roundtrip():
    taus = np.linspace(0.0, 6.0, 150)
    data = model_prediction("coherent_coherent", taus, (3.0, 1.0), {"lo_mean_freq": 3.15})
    problem = FitProblem(
        tau=taus, ratios=data, model="coherent_coherent",
        fixed={"lo_mean_freq": 3.15, "width_guess": 1.0},
    )
    result = fit(problem)
    assert abs(result.estimates["mean_freq"] - 3.0) < 1e-6
    assert abs(result.estimates["width"] - 1.0) < 1e-6


def test_model_jacobians_match_central_differences():
    cases = [
        ("thermal_thermal", (1.02,), {"theta0": 1.0}, np.linspace(0.0, 2.5, 80)),
        ("one_photon_vacuum", (3.1, 0.95), {}, np.linspace(0.0, 5.0, 80)),
        ("fock_fock", (3.05, 1.02), {"lo_mean_freq": 3.15}, np.linspace(0.0, 5.0, 80)),
        ("coherent_coherent", (3.05, 1.02), {"lo_mean_freq": 3.15}, np.linspace(0.0, 5.0, 80)),
    ]
    for model, params, fixed, taus in cases:
        base = model_prediction(model, taus, params, fixed)
        for i, p in enumerate(params):
            h = 1e-6 * max(abs(p), 1.0)
            up = list(params)
            dn = list(params)
            up[i] = p + h
            dn[i] = p - h
            central = (model_prediction(model, taus, up, fixed) - model_prediction(model, taus, dn, fixed)) / (2 * h)
            forward = (model_prediction(model, taus, up, fixed) - base) / h
            scale = float(np.max(np.abs(central))) or 1.0
            assert float(np.max(np.abs(forward - central))) / scale < 1e-5, (model, i)


def test_fit_problem_names_missing_fixed_quantities():
    taus = np.linspace(0.0, 6.0, 150)
    data = model_prediction("fock_fock", taus, (3.0, 1.0), {"lo_mean_freq": 3.15})
    for model in ("fock_fock", "coherent_coherent"):
        with pytest.raises(ValueError, match="lo_mean_freq"):
            FitProblem(tau=taus, ratios=data, model=model, initial=(3.0, 1.0))
    with pytest.raises(ValueError, match="theta0"):
        FitProblem(tau=taus, ratios=np.asarray(thermal_thermal_ratio(1.0, 1.01, taus)), model="thermal_thermal")


def test_model_prediction_rejects_a_wrong_parameter_count():
    with pytest.raises(ValueError, match="theta_ratio"):
        model_prediction("thermal_thermal", [0.0, 1.0], (1.01, 2.0), {"theta0": 1.0})
    with pytest.raises(ValueError, match="width"):
        model_prediction("fock_fock", [0.0, 1.0], (3.0,), {"lo_mean_freq": 3.15})


def test_unknown_models_and_mismatched_inputs_are_rejected():
    taus = np.linspace(0.0, 3.0, 20)
    data = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    with pytest.raises(ValueError, match="unknown model 'thermal_vacuum'"):
        model_prediction("thermal_vacuum", taus, (1.0,), {})
    with pytest.raises(ValueError, match="unknown model 'thermal_vacuum'"):
        FitProblem(tau=taus, ratios=data, model="thermal_vacuum")
    thermal = {"model": "thermal_thermal", "fixed": {"theta0": 1.0}}
    with pytest.raises(ValueError, match="takes parameters"):
        FitProblem(tau=taus, ratios=data, initial=(1.01, 1.0), **thermal)
    with pytest.raises(ValueError, match="differ in length"):
        FitProblem(tau=taus, ratios=data[:-1], **thermal)


def test_weighting_changes_heteroscedastic_fit():
    rng = np.random.default_rng(3)
    taus = np.linspace(0.0, 3.0, 200) / 1.01
    clean = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    sigma = np.where(taus < np.median(taus), 1e-5, 5e-3)
    data = clean + rng.normal(0.0, sigma)
    unweighted = fit(FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0}))
    weighted = fit(
        FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0}, noise=sigma)
    )
    est_u = unweighted.estimates["theta_ratio"]
    est_w = weighted.estimates["theta_ratio"]
    assert est_u != est_w
    assert abs(est_w - 1.01) < abs(est_u - 1.01) + 5e-4


# ---------------------------------------------------------------------------
# coherence time


def test_default_threshold_calibrated_to_three_halves():
    report = estimate_coherence_time()
    assert 1.4 <= report.a_c <= 1.6
    assert abs(report.a_c - 1.5) < 1e-3
    assert report.epsilon == DEFAULT_COHERENCE_EPSILON


def test_loose_threshold_gives_tiny_coherence_time():
    report = estimate_coherence_time(epsilon=0.49)
    assert report.a_c < 0.1


def test_threshold_monotonicity():
    eps_grid = [0.02, 0.05, 0.09, 0.15, 0.3]
    acs = [estimate_coherence_time(epsilon=e).a_c for e in eps_grid]
    assert all(b < a for a, b in zip(acs, acs[1:]))


def test_dimensionless_collapse_under_temperature_rescaling():
    hot = estimate_coherence_time(theta=7.3)
    cold = estimate_coherence_time(theta=0.2)
    assert hot.a_c == pytest.approx(cold.a_c, abs=1e-12)
    assert hot.tau_c == pytest.approx(hot.a_c / 7.3)
    assert cold.tau_c == pytest.approx(cold.a_c / 0.2)
    assert hot.coherence_length == hot.tau_c  # c = 1 by default


def test_coherence_rejects_non_finite_temperature():
    for theta in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="temperature"):
            estimate_coherence_time(theta)


def test_fit_problem_rejects_non_finite_data():
    taus = np.linspace(0.0, 3.0, 20)
    data = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    for bad in (float("nan"), float("inf")):
        spoiled = data.copy()
        spoiled[5] = bad
        with pytest.raises(ValueError, match="finite"):
            FitProblem(tau=taus, ratios=spoiled, model="thermal_thermal", fixed={"theta0": 1.0})
        with pytest.raises(ValueError, match="finite"):
            FitProblem(tau=np.where(taus == taus[5], bad, taus), ratios=data, model="thermal_thermal",
                       fixed={"theta0": 1.0})
        with pytest.raises(ValueError, match="finite"):
            FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0},
                       noise=np.where(taus == taus[5], bad, 1e-3))


def test_fit_problem_keeps_read_only_copies():
    taus = np.linspace(0.0, 3.0, 20)
    data = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    noise = np.full(20, 1e-3)
    problem = FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0}, noise=noise)
    taus[5] = data[5] = noise[5] = math.nan  # edits after validation do not reach the problem
    assert np.isfinite(problem.tau).all() and np.isfinite(problem.ratios).all() and np.isfinite(problem.noise).all()
    for array in (problem.tau, problem.ratios, problem.noise):
        with pytest.raises(ValueError, match="read-only"):
            array[5] = math.nan


def test_fit_problem_keeps_its_own_fixed_quantities():
    taus = np.linspace(0.0, 3.0, 20)
    fixed = {"theta0": 1.0}
    problem = FitProblem(tau=taus, ratios=thermal_thermal_ratio(1.0, 1.01, taus), model="thermal_thermal", fixed=fixed)
    before = fit(problem)
    del fixed["theta0"]  # a later edit of the caller's dict does not reach the problem
    after = fit(problem)
    assert after.estimates == before.estimates and after.uncertainties == before.uncertainties
    with pytest.raises(TypeError):
        problem.fixed["theta0"] = 2.0


def test_fit_problem_rejects_non_positive_noise_when_built():
    taus = np.linspace(0.0, 3.0, 20)
    data = np.asarray(thermal_thermal_ratio(1.0, 1.01, taus))
    for noise in (0.0, -1e-3, np.where(taus < 1.0, 1e-3, 0.0)):
        with pytest.raises(ValueError, match="noise levels must be positive"):
            FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0}, noise=noise)


def test_coherence_horizon_near_one_half():
    # the deviation falls from exactly 1/2 at a = 0; at ε = 0.49999999 it crosses near a = 4.61e-5
    epsilon = 0.49999999
    a_c = estimate_coherence_time(1.0, epsilon).a_c
    assert 4.6e-5 < a_c < 4.62e-5

    def deviation(a):
        return abs(float(thermal_vacuum_ratio(1.0, a, 3, "closed_form")) - 0.5)

    assert deviation(0.999 * a_c) >= epsilon > deviation(1.001 * a_c)


def test_coherence_bisection_stops_when_the_bracket_cannot_shrink(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return thermal_vacuum_ratio(*args)

    def deviation(a):
        return np.abs(np.asarray(thermal_vacuum_ratio(1.0, a, 3, "closed_form")) - 0.5)

    monkeypatch.setattr(mmi.inference, "thermal_vacuum_ratio", counted)
    for epsilon in (DEFAULT_COHERENCE_EPSILON, 1e-3, 0.01, 0.2, 0.49):
        calls.clear()
        a_c = estimate_coherence_time(epsilon=epsilon).a_c
        assert len(calls) <= 60, epsilon
        # the same bracket, bisected for a fixed 80 rounds
        a_max = max((45.0 / (2.0 * epsilon)) ** 0.25 / math.pi * 1.5, 2.0)
        grid = np.linspace(0.0, a_max, 4096)
        i = np.nonzero(deviation(grid) >= epsilon)[0][-1]
        lo, hi = grid[i], grid[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if deviation(mid) >= epsilon:
                lo = mid
            else:
                hi = mid
        assert a_c == 0.5 * (lo + hi), epsilon


def _halving_loop(epsilon):
    """The coherence horizon by one halving per closed-form call: the reference for the tree walk."""

    def deviation(a):
        return np.abs(np.asarray(thermal_vacuum_ratio(1.0, a, 3, "closed_form")) - 0.5)

    a_max = max((45.0 / (2.0 * epsilon)) ** 0.25 / math.pi * 1.5, 2.0)
    grid = np.linspace(0.0, a_max, 4096)
    i = np.nonzero(deviation(grid) >= epsilon)[0][-1]
    lo, hi = grid[i], grid[i + 1]
    a_c = 0.5 * (lo + hi)
    while lo < a_c < hi:
        if deviation(a_c) >= epsilon:
            lo = a_c
        else:
            hi = a_c
        a_c = 0.5 * (lo + hi)
    return a_c


def test_speculative_bisection_equals_the_halving_loop(monkeypatch):
    rng = np.random.default_rng(2024)
    epsilons = [DEFAULT_COHERENCE_EPSILON, *np.exp(rng.uniform(math.log(1e-6), math.log(0.49), 500))]
    expected = [_halving_loop(epsilon) for epsilon in epsilons]
    calls = []

    def counted(*args):
        calls.append(args)
        if len(calls) > 10:  # a walk that never stops fails here instead of hanging
            raise AssertionError("more than 10 closed-form calls for one estimate")
        return thermal_vacuum_ratio(*args)

    monkeypatch.setattr(mmi.inference, "thermal_vacuum_ratio", counted)
    for theta in (1.0, 7.3):
        for epsilon, a_c in zip(epsilons, expected):
            calls.clear()
            assert estimate_coherence_time(theta, epsilon).a_c == a_c, (theta, epsilon)


def test_coherence_report_holds_python_floats():
    for theta, epsilon in ((1.0, DEFAULT_COHERENCE_EPSILON), (np.float64(7.3), np.float64(0.01))):
        report = estimate_coherence_time(theta, epsilon, speed_of_light=np.float64(3.0))
        for value in (report.a_c, report.tau_c, report.coherence_length, report.epsilon):
            assert type(value) is float
    assert repr(estimate_coherence_time().a_c) == "1.4999999992873692"


def test_threshold_domain():
    with pytest.raises(ValueError):
        estimate_coherence_time(epsilon=0.0)
    with pytest.raises(ValueError):
        estimate_coherence_time(epsilon=0.5)


# ---------------------------------------------------------------------------
# discrimination


def _ratio_curve(kind, taus):
    make = fock_intensity if kind == "fock" else coherent_intensity
    norm = make(F_S, F_LO, 0.0)
    return np.array([1.0 if t == 0.0 else make(F_S, F_LO, t) / norm for t in taus])


def test_discriminates_coherent_data():
    taus = np.linspace(0.0, 6.0, 121)
    result = discriminate_state_class(taus, _ratio_curve("coherent", taus), F_LO)
    assert result.label == "coherent-like"
    assert result.score < 1.0


@pytest.mark.parametrize("signal_mean", [3.15, 3.3, 3.45])
def test_a_failing_competitor_drops_out(signal_mean):
    # the coherent model drifts flat on this Fock data and its fit raises; the Fock fit decides
    taus = np.linspace(0.0, 6.0, 121)
    f_lo = SpectralDistribution(3.0, 1.0)
    data = fock_intensity_closed(SpectralDistribution(signal_mean, 1.0), f_lo, taus)
    result = discriminate_state_class(taus, data, f_lo)
    assert result.label == "fock-like" and result.score == 0.0
    assert result.coherent_fit is None
    assert abs(result.fock_fit.estimates["mean_freq"] / signal_mean - 1.0) < 1e-9


def test_singular_normal_equations_raise_identifiability():
    taus = np.linspace(0.0, 6.0, 121)
    data = fock_intensity_closed(SpectralDistribution(3.3, 1.0), SpectralDistribution(3.0, 1.0), taus)
    problem = FitProblem(tau=taus, ratios=data, model="coherent_coherent",
                         fixed={"lo_mean_freq": 3.0, "width_guess": 1.0})
    with pytest.raises(IdentifiabilityError, match="singular"):
        fit(problem)


def test_residual_norms_within_one_percent_are_indistinguishable():
    # equal means: the Fock curve is flat, so both models fit the noise about equally
    taus = np.linspace(0.0, 6.0, 121)
    f = SpectralDistribution(3.0, 1.0)
    data = fock_intensity_closed(f, f, taus) + np.random.default_rng(0).normal(0.0, 1e-3, taus.size)
    result = discriminate_state_class(taus, data, f)
    assert result.label == "indistinguishable"
    assert round(result.score, 3) == 0.996


def test_fit_started_on_an_upper_bound_steps_backward(monkeypatch):
    # the forward Jacobian step is clipped to zero at the bound, so the fit differences backward
    a = np.linspace(0.0, 3.0, 200)
    monkeypatch.setattr(mmi.inference, "_BOUNDS", (0.5, 1.1))
    problem = FitProblem(tau=a, ratios=thermal_thermal_ratio(1.0, 1.05, a), model="thermal_thermal",
                         fixed={"theta0": 1.0}, initial=(1.1,))
    assert abs(fit(problem).estimates["theta_ratio"] / 1.05 - 1.0) < 1e-9


def test_discriminates_fock_data():
    taus = np.linspace(0.0, 6.0, 121)
    result = discriminate_state_class(taus, _ratio_curve("fock", taus), F_LO)
    assert result.label == "fock-like"


def test_symmetrized_data_indistinguishable():
    taus = np.linspace(-6.0, 6.0, 241)
    curve = _ratio_curve("coherent", taus)
    symmetrized = 0.5 * (curve + curve[::-1])  # grid is symmetric about 0
    result = discriminate_state_class(taus, symmetrized, F_LO)
    assert result.label == "indistinguishable"


def test_symmetrized_grid_thresholds_hold_from_both_sides():
    from mmi.inference import _is_tau_symmetrized

    half = np.linspace(1.0, 5.0, 40)  # |τ| ≥ 1: the pairing tolerance is 1e-9 relative
    even = np.cos(half)

    def symmetric(mirror, extras=0, odd=0.0):
        tau = np.concatenate([half, -mirror, 7.0 + np.arange(extras)])
        ratios = np.concatenate([even + odd, even - odd, np.zeros(extras)])
        return bool(_is_tau_symmetrized(tau, ratios))

    assert symmetric(half)
    # a mirror within 1e-9·|τ| pairs, one beyond it does not
    assert symmetric(half * (1.0 + 5e-10))
    assert not symmetric(half * (1.0 + 2e-9))
    # 80 of 100 nonzero delays paired is enough, 80 of 101 is not
    assert symmetric(half, extras=20)
    assert not symmetric(half, extras=21)
    # each delay pairs with the first of its mirror's sorted neighbours that
    # lies within tolerance: here -1 with 1 - 5e-10, not with 1
    tau = np.array([1.0, -1.0, 1.0 - 5e-10, -1.0 - 5e-10])
    assert _is_tau_symmetrized(tau, np.array([1.0, 0.0, 0.0, 1.0]))
    # the odd part may reach 1e-6 of the data's range, not beyond
    span = float(np.ptp(even))
    assert symmetric(half, odd=0.99e-6 * span)
    assert not symmetric(half, odd=1.01e-6 * span)


def _loop_is_tau_symmetrized(tau, ratios):
    """Reference: one delay at a time, its mirror's sorted neighbours j - 1, j, j + 1 in turn."""
    order = np.argsort(tau)
    t, r = tau[order], ratios[order]
    nonzero = np.abs(t) > 1e-15
    if not nonzero.any():
        return False
    paired, odd_max = 0, 0.0
    for i in np.nonzero(nonzero)[0]:
        j = np.searchsorted(t, -t[i])
        for k in (j - 1, j, j + 1):
            if 0 <= k < t.size and abs(t[k] + t[i]) <= 1e-9 * max(abs(t[i]), 1.0):
                paired += 1
                odd_max = max(odd_max, 0.5 * abs(r[i] - r[k]))
                break
    if paired < 0.8 * int(nonzero.sum()):
        return False
    return odd_max <= 1e-6 * max(float(np.ptp(r)), 1e-12)


def test_symmetrized_check_matches_the_per_delay_loop():
    from mmi.inference import _is_tau_symmetrized

    rng = np.random.default_rng(11)
    decisions = set()
    for trial in range(600):
        half = rng.uniform(0.0, 5.0, int(rng.integers(1, 30))) * rng.choice([1e-10, 1.0, 1e3])
        shift = rng.choice([0.0, 5e-10, 1.2e-9, 2e-9]) * np.maximum(half, 1.0)  # exact and near pairs
        extras = rng.choice(np.arange(-4, 5) * 0.5, int(rng.integers(0, 8)))  # repeats, zeros, strays
        tau = np.concatenate([half, -(half + shift)[: int(rng.integers(0, half.size + 1))], extras])
        ratios = np.cos(tau) + rng.choice([0.0, 1e-9, 1e-3]) * np.sin(tau)
        want = bool(_loop_is_tau_symmetrized(tau, ratios))
        assert bool(_is_tau_symmetrized(tau, ratios)) == want, trial
        decisions.add(want)
    assert decisions == {True, False}


def test_single_point_data_rejected():
    with pytest.raises(IdentifiabilityError):
        discriminate_state_class(np.array([0.0]), np.array([1.0]), F_LO)


def test_zero_frequency_lo_is_not_identifiable():
    # an LO at ω̄ = 0 has no fringe period: the span test must not divide by ω̄
    taus = np.linspace(0.0, 6.0, 121)
    with pytest.raises(IdentifiabilityError, match="fringe period"):
        discriminate_state_class(taus, _ratio_curve("fock", taus), SpectralDistribution(0.0, 1.0))


def test_short_span_rejected():
    taus = np.linspace(0.0, 0.5, 40)  # less than one fringe period (2 pi / 3.15)
    with pytest.raises(IdentifiabilityError):
        discriminate_state_class(taus, np.ones(40), F_LO)


def test_thermal_fit_uncertainties_cover_the_truth():
    # z = (estimate - truth)/uncertainty over 400 noisy fits at fixed seeds: |z| < 1
    # should hold in 0.683 of them, within ± 4 binomial sigmas (0.0233 at n = 400);
    # half the fits pass the noise level, which fit rescales by s² = cost/dof anyway
    truth, n = 1.05, 400
    a = np.linspace(0.05, 3.0, 120)
    taus = a / truth  # θ₀ = 1, so a₁ = τθ₁ spans [0.05, 3]
    clean = np.asarray(thermal_thermal_ratio(1.0, truth, taus))
    rng = np.random.default_rng(20261019)
    z = np.empty(n)
    for i in range(n):
        sigma = (1e-2, 3e-2)[i % 2]
        data = clean + rng.normal(0.0, sigma, size=taus.size)
        noise = sigma if i % 4 < 2 else None
        result = fit(FitProblem(tau=taus, ratios=data, model="thermal_thermal", fixed={"theta0": 1.0}, noise=noise))
        z[i] = (result.estimates["theta_ratio"] - truth) / result.uncertainties["theta_ratio"]
    band = 4.0 * math.sqrt(0.683 * 0.317 / n)
    assert abs(np.mean(np.abs(z) < 1.0) - 0.683) <= band


@pytest.mark.parametrize("model, truth, fixed", [
    ("one_photon_vacuum", (3.2, 0.9), {}),
    ("fock_fock", (3.0, 1.0), {"lo_mean_freq": 3.15}),
    ("coherent_coherent", (3.0, 1.0), {"lo_mean_freq": 3.15}),
])
def test_spectral_fit_uncertainties_cover_the_truth(model, truth, fixed):
    # as for the thermal model: |z| < 1 in 0.683 of 300 noisy fits, within ± 4 binomial
    # sigmas (0.107 at n = 300), for each parameter; half the fits pass the noise level
    n = 300
    taus = np.linspace(0.0, 6.0, 121)
    clean = model_prediction(model, taus, truth, fixed)
    rng = np.random.default_rng(20261019)
    z = np.empty((n, 2))
    for i in range(n):
        data = clean + rng.normal(0.0, 1e-2, size=taus.size)
        result = fit(FitProblem(tau=taus, ratios=data, model=model, fixed=fixed, noise=1e-2 if i % 2 else None))
        z[i] = [(result.estimates[name] - t) / result.uncertainties[name] for name, t in zip(result.estimates, truth)]
    band = 4.0 * math.sqrt(0.683 * 0.317 / n)
    assert np.all(np.abs(np.mean(np.abs(z) < 1.0, axis=0) - 0.683) <= band)
