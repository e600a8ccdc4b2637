import os
import threading

import numpy as np
import pytest

from mmi import oracle
from mmi.intensity import (
    IntensityRequest, coherent_intensity, compute_interferogram, fock_intensity, thermal_thermal_ratio,
    thermal_vacuum_ratio,
)
from mmi.oracle import (
    CoherentField,
    ModeGrid,
    ResourceLimitError,
    build_coherent,
    build_one_photon,
    detect_intensity_bruteforce,
    spectral_mode_grid,
    thermal_intensity_montecarlo,
    thermal_mode_grid,
)
from mmi.spectra import SpectralDistribution
from mmi.states import OnePhoton, Thermal, Vacuum

F_S = SpectralDistribution(3.0, 1.0)
F_LO = SpectralDistribution(3.15, 1.0)


def test_mode_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid(frequencies=np.array([1.0, 0.5]), weights=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        ModeGrid(frequencies=np.array([-1.0, 0.5]), weights=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        ModeGrid(frequencies=np.array([0.5, 1.0]), weights=np.array([0.1, -0.1]))


def test_spectral_grid_defaults():
    grid = spectral_mode_grid(F_S, F_LO)
    assert grid.size == 101
    assert grid.frequencies[0] > 0.0
    assert grid.frequencies[-1] == pytest.approx(9.15)


def test_build_one_photon_normalization_and_deficit():
    grid = spectral_mode_grid(F_S)
    state = build_one_photon(F_S, grid)
    assert abs(np.sum(state.amplitudes**2) - 1.0) < 1e-12
    assert abs(state.norm_deficit) < 1e-3
    # photon number is conserved until detection: one photon per port never
    # needs more than a single quantum per mode, so the state stores exactly
    # the single-photon sector, one amplitude per mode
    assert state.amplitudes.shape == (grid.size,)


def test_build_one_photon_single_mode_grid():
    # degenerate monochromatic case: the full photon lands on the one mode
    grid = ModeGrid(frequencies=np.array([3.0]), weights=np.array([1.0]))
    state = build_one_photon(SpectralDistribution(3.0, 0.5), grid)
    assert state.amplitudes[0] == pytest.approx(1.0)


def test_build_one_photon_mean_frequency():
    grid = spectral_mode_grid(F_S)
    state = build_one_photon(F_S, grid)
    assert abs(state.mean_frequency() - 3.0) < 0.01


def test_build_one_photon_rejects_insufficient_coverage():
    grid = ModeGrid.uniform(1.0, 5.0, 64)
    with pytest.raises(ValueError):
        build_one_photon(F_S, grid)


def test_single_mode_fringe_pattern():
    # one photon in the signal, vacuum LO, a single mode at w0: the
    # intensity must follow w0 (1 + cos w0 tau)/2 up to a constant
    grid = ModeGrid(frequencies=np.array([2.0]), weights=np.array([1.0]))
    state = build_one_photon(SpectralDistribution(2.0, 0.5), grid)
    taus = np.linspace(0.0, 5.0, 40)
    vals = np.array([detect_intensity_bruteforce(state, None, t) for t in taus])
    expected = (1.0 + np.cos(2.0 * taus)) / 2.0
    scale = vals[0] / expected[0]
    assert np.allclose(vals, scale * expected, atol=1e-12)


def test_vacuum_both_ports_detects_nothing():
    assert detect_intensity_bruteforce(None, None, 1.0) == 0.0


def test_vacuum_signal_port_rejected_for_fock():
    grid = spectral_mode_grid(F_S)
    state = build_one_photon(F_S, grid)
    with pytest.raises(ValueError):
        detect_intensity_bruteforce(None, state, 1.0)


def test_amplitude_cap_enforced(monkeypatch):
    grid = spectral_mode_grid(F_S, F_LO)
    sig = build_one_photon(F_S, grid)
    lo = build_one_photon(F_LO, grid)
    monkeypatch.setattr(oracle, "_AMPLITUDE_CAP", 100)
    with pytest.raises(ResourceLimitError):
        detect_intensity_bruteforce(sig, lo, 0.5)


def test_two_photon_bruteforce_matches_quadrature():
    grid = spectral_mode_grid(F_S, F_LO)
    sig = build_one_photon(F_S, grid)
    lo = build_one_photon(F_LO, grid)
    norm_b = detect_intensity_bruteforce(sig, lo, 0.0)
    norm_q = fock_intensity(F_S, F_LO, 0.0)
    worst = 0.0
    for tau in np.linspace(0.0, 6.0, 25):
        b = detect_intensity_bruteforce(sig, lo, tau) / norm_b
        q = fock_intensity(F_S, F_LO, tau) / norm_q
        worst = max(worst, abs(b - q))
    assert worst < 1e-3


def test_bruteforce_refinement_convergence():
    # error against the continuum result must decrease monotonically with
    # mode count on this scenario
    norm_q = fock_intensity(F_S, F_LO, 0.0)
    taus = np.linspace(0.0, 6.0, 13)
    quad = np.array([fock_intensity(F_S, F_LO, t) / norm_q for t in taus])
    errors = []
    for m in (26, 51, 101, 201):
        grid = spectral_mode_grid(F_S, F_LO, m=m)
        sig = build_one_photon(F_S, grid)
        lo = build_one_photon(F_LO, grid)
        norm_b = detect_intensity_bruteforce(sig, lo, 0.0)
        brute = np.array([detect_intensity_bruteforce(sig, lo, t) / norm_b for t in taus])
        errors.append(float(np.max(np.abs(brute - quad))))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-6


@pytest.mark.parametrize("d", [1, 3])
def test_two_photon_bruteforce_matches_the_exact_path_in_each_dimension(d):
    # the exact path is the only other route at d = 3 that does not share the quadrature integrand
    grid = spectral_mode_grid(F_S, F_LO)
    sig = build_one_photon(F_S, grid)
    lo = build_one_photon(F_LO, grid)
    taus = np.linspace(0.0, 6.0, 25)
    exact = compute_interferogram(IntensityRequest(OnePhoton(F_S), OnePhoton(F_LO), taus, d)).ratios
    norm_b = detect_intensity_bruteforce(sig, lo, 0.0, d=d)
    brute = np.array([detect_intensity_bruteforce(sig, lo, t, d=d) / norm_b for t in taus])
    assert float(np.max(np.abs(brute - exact))) < 1e-6


def test_coherent_bruteforce_matches_quadrature():
    grid = spectral_mode_grid(F_S, F_LO)
    sig = build_coherent(F_S, grid)
    lo = build_coherent(F_LO, grid)
    norm_b = detect_intensity_bruteforce(sig, lo, 0.0)
    norm_q = coherent_intensity(F_S, F_LO, 0.0)
    for tau in (0.4, 1.3, 2.9):
        b = detect_intensity_bruteforce(sig, lo, tau) / norm_b
        q = coherent_intensity(F_S, F_LO, tau) / norm_q
        assert abs(b - q) < 1e-3


def test_mixed_ports_rejected():
    grid = spectral_mode_grid(F_S, F_LO)
    sig = build_one_photon(F_S, grid)
    lo = build_coherent(F_LO, grid)
    with pytest.raises(ValueError):
        detect_intensity_bruteforce(sig, lo, 1.0)


def test_montecarlo_matches_closed_form_thermal_vacuum():
    mc = thermal_intensity_montecarlo(1.0, None, [0.5, 1.0, 2.0], samples=20000, seed=11)
    truth = np.asarray(thermal_vacuum_ratio(1.0, mc.delays, 3, "closed_form"))
    assert np.all(np.abs(mc.ratios - truth) < 3.0 * mc.stderrs)
    assert np.all(mc.stderrs < 5e-3)


def test_montecarlo_equal_temperatures_flat():
    mc = thermal_intensity_montecarlo(1.0, 1.0, [0.3, 0.9, 1.8, 3.5], samples=20000, seed=5)
    assert np.all(np.abs(mc.ratios - 1.0) < 3.0 * mc.stderrs)


def test_montecarlo_matches_closed_form_unequal_temperatures():
    # the thermometry case: the cross term and both occupations matter
    mc = thermal_intensity_montecarlo(1.1, 1.0, [0.5, 1.0, 2.0], samples=20000, seed=0)
    truth = np.asarray(thermal_thermal_ratio(1.0, 1.1, mc.delays, "closed_form"))
    assert np.all(np.abs(mc.ratios - truth) < 3.0 * mc.stderrs)
    # and the test can tell the pair from equal temperatures
    assert np.all(np.abs(truth - 1.0) > 10.0 * mc.stderrs)


@pytest.mark.parametrize("theta_lo", [None, 1.0], ids=["vacuum", "thermal"])
def test_montecarlo_matches_the_closed_forms_at_d1(theta_lo):
    # the one check of the d = 1 thermal closed forms that shares nothing with their quadrature
    taus = np.array([0.3, 0.7, 1.5, 3.0])
    theta_s = 1.0 if theta_lo is None else 1.1
    mc = thermal_intensity_montecarlo(theta_s, theta_lo, taus, d=1, samples=20000, seed=7)
    lo = Vacuum() if theta_lo is None else Thermal(theta_lo)
    truth = compute_interferogram(IntensityRequest(Thermal(theta_s), lo, taus, 1)).ratios
    assert np.all(np.abs(mc.ratios - truth) < 3.0 * mc.stderrs)


@pytest.mark.parametrize("theta_lo", [None, 1.0], ids=["vacuum", "thermal"])
def test_montecarlo_standard_errors_are_calibrated(theta_lo):
    # over many seeds, (estimate - truth)/stderr must look like a unit normal
    taus = np.array([0.5, 1.0, 2.0])
    if theta_lo is None:
        theta_s = 1.0
        truth = np.asarray(thermal_vacuum_ratio(1.0, taus, 3, "closed_form"))
    else:
        theta_s = 1.1
        truth = np.asarray(thermal_thermal_ratio(theta_lo, theta_s, taus, "closed_form"))
    runs = [thermal_intensity_montecarlo(theta_s, theta_lo, taus, samples=2000, seed=s) for s in range(100)]
    z = np.array([(mc.ratios - truth) / mc.stderrs for mc in runs])
    # the mean of 100 unit normals has standard deviation 0.1
    assert np.all(np.abs(z.mean(axis=0)) < 0.4)
    std = z.std(axis=0, ddof=1)
    assert np.all((0.8 < std) & (std < 1.25))


@pytest.mark.parametrize("theta_lo", [None, 1.0], ids=["vacuum", "thermal"])
def test_montecarlo_standard_errors_match_gaussian_moments(theta_lo):
    # Each mode of a realization adds m_j |β_s s_j + β_l l_j|², the squared
    # modulus of a circular Gaussian: exponential with mean μ_j, variance μ_j².
    # So the delta-method standard error is known exactly; a wrong law for
    # the moduli or the relative phase changes it while the means stay right.
    theta_s = 1.0 if theta_lo is None else 1.1
    taus = np.array([0.5, 1.0, 2.0])
    samples = 20000
    grid = thermal_mode_grid(max(theta_s, theta_lo or 0.0))
    w = grid.frequencies
    m = grid.weights * w**3
    c = np.cos(np.outer(w, taus))
    sig = (m / np.expm1(w / theta_s))[:, None] * (1.0 + c)
    mu = sig if theta_lo is None else sig + (m / np.expm1(w / theta_lo))[:, None] * (1.0 - c)
    nu = 2.0 * m / np.expm1(w / theta_s)  # zero delay
    r = mu.sum(axis=0) / nu.sum()
    var = (mu**2).sum(axis=0) - 2.0 * r * (sig * nu[:, None]).sum(axis=0) + r**2 * (nu**2).sum()
    exact = np.sqrt(var / samples) / nu.sum()
    mc = thermal_intensity_montecarlo(theta_s, theta_lo, taus, samples=samples, seed=0)
    assert np.all(np.abs(mc.stderrs / exact - 1.0) < 0.05)
    assert np.all(np.abs(mc.ratios - r) < 3.0 * exact)


def test_montecarlo_cross_term_vanishes():
    mc = thermal_intensity_montecarlo(1.0, 1.0, [0.7], samples=20000, seed=3)
    assert abs(mc.cross_mean) < 3.0 * mc.cross_stderr
    assert mc.cross_stderr > 0.0


def test_montecarlo_deterministic_per_seed():
    for theta_lo in (None, 1.0):
        a = thermal_intensity_montecarlo(1.1, theta_lo, [1.0], samples=2000, seed=42)
        b = thermal_intensity_montecarlo(1.1, theta_lo, [1.0], samples=2000, seed=42)
        assert np.array_equal(a.ratios, b.ratios)
        assert np.array_equal(a.stderrs, b.stderrs)
        assert a.cross_mean == b.cross_mean


@pytest.mark.parametrize("cpus", [1, 5])
@pytest.mark.parametrize("theta_lo", [None, 1.0], ids=["vacuum", "thermal"])
def test_montecarlo_bitwise_independent_of_cpu_count(monkeypatch, theta_lo, cpus):
    # each chunk owns its stream and the partial sums are added in chunk order,
    # so one worker and more workers than cores reproduce the default run exactly
    taus = [0.5, 1.0, 2.0]
    ref = thermal_intensity_montecarlo(1.1, theta_lo, taus, samples=5000, seed=9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    got = thermal_intensity_montecarlo(1.1, theta_lo, taus, samples=5000, seed=9)
    assert np.array_equal(got.ratios, ref.ratios)
    assert np.array_equal(got.stderrs, ref.stderrs)
    assert got.cross_mean == ref.cross_mean


def test_montecarlo_counts_the_last_partial_chunk():
    # 2000 = 3 × 512 + 464; the first three chunks are those of a 1536-sample run
    mc = thermal_intensity_montecarlo(1.0, 1.0, [1.0], samples=2000, seed=1)
    assert (mc.samples, mc.seed, mc.batch) == (2000, 1, 512)
    whole_chunks = thermal_intensity_montecarlo(1.0, 1.0, [1.0], samples=1536, seed=1)
    # the 464 extra draws move the estimate by far more than rounding
    assert np.all(np.abs(mc.ratios - whole_chunks.ratios) > 1e-9)


def test_montecarlo_on_one_cpu_starts_no_thread(monkeypatch):
    # one worker runs its jobs on the calling thread
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    mc = thermal_intensity_montecarlo(1.1, 1.0, [0.5, 1.0], samples=2000, seed=3)
    assert mc.samples == 2000


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_montecarlo_pair_memory_is_bounded_per_worker(monkeypatch, cpus):
    # per worker, two float64 exponential buffers and one float32 phase buffer
    # (2.5 MiB) plus a chunk's products: 2.58-2.65 MiB; a float64 phase took 3.05-3.13
    import tracemalloc

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    taus = [0.5, 1.0, 2.0]
    thermal_intensity_montecarlo(1.1, 1.0, taus, samples=2000, seed=0)  # starts the workers
    tracemalloc.start()
    try:
        thermal_intensity_montecarlo(1.1, 1.0, taus, samples=20000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 2**20 * cpus


@pytest.mark.parametrize("theta_lo", [None, 1.0], ids=["vacuum", "thermal"])
def test_montecarlo_many_delays_match_per_delay_runs(theta_lo):
    # 12 delays split each chunk's products into row blocks; every delay's
    # ratio must still be the one a run at that delay alone gives
    taus = np.linspace(0.2, 3.0, 12)
    many = thermal_intensity_montecarlo(1.1, theta_lo, taus, samples=2000, seed=5)
    for i in (0, 5, 11):
        alone = thermal_intensity_montecarlo(1.1, theta_lo, [taus[i]], samples=2000, seed=5)
        assert many.ratios[i] == pytest.approx(alone.ratios[0], rel=1e-12)
        assert many.stderrs[i] == pytest.approx(alone.stderrs[0], rel=1e-9)


def test_montecarlo_pooling_two_seeds_halves_variance(monkeypatch):
    # unbiasedness: variance of the mean of two independent estimates is
    # half the single-estimate variance (checked across many repetitions)
    taus = [1.0]
    monkeypatch.setattr(oracle, "_BATCH", 1000)
    singles = np.array(
        [thermal_intensity_montecarlo(1.0, None, taus, samples=1000, seed=s).ratios[0] for s in range(120)]
    )
    pooled = 0.5 * (singles[0::2] + singles[1::2])
    var_single = singles.var(ddof=1)
    var_pooled = pooled.var(ddof=1)
    # chi^2 spread with ~60 samples is wide; accept a generous band around 1/2
    assert 0.3 < var_pooled / var_single < 0.8


def test_montecarlo_requires_sample_budget():
    with pytest.raises(ValueError):
        thermal_intensity_montecarlo(1.0, None, [1.0], samples=10, seed=0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_montecarlo_rejects_non_finite_delays(bad):
    with pytest.raises(ValueError, match="delays must be finite"):
        thermal_intensity_montecarlo(1.0, 1.0, [0.5, bad], samples=2000)


def test_thermal_grid_spans_pole_and_tail():
    grid = thermal_mode_grid(2.0)
    assert grid.frequencies[0] == pytest.approx(2e-3)
    assert grid.frequencies[-1] == pytest.approx(60.0)
    assert grid.size == 256


def test_coherent_field_shape_checked():
    grid = spectral_mode_grid(F_S)
    with pytest.raises(ValueError):
        CoherentField(grid=grid, values=np.zeros(3, complex))
