import math

import numpy as np
import pytest

from mmi.spectra import (
    SpectralDistribution,
    _faddeeva,
    _line_moments,
    normalization_constant,
    weighted_overlap,
)
from conftest import integrate_by_quarter_periods
from oracles import decimal_erf, riemann_overlap

SQRT_PI = math.sqrt(math.pi)


def test_stdlib_erf_matches_series_oracle():
    # the normalization leans on math.erf; verify it to machine accuracy
    for x in np.linspace(0.0, 6.0, 61):
        ref = decimal_erf(float(x))
        got = math.erf(float(x))
        assert abs(got - ref) <= 1e-15 * max(abs(ref), 1e-3), x


def test_normalization_constant_at_zero_mean():
    # erf(0) = 0: |N|^2 = sigma sqrt(pi)/2
    assert abs(normalization_constant(0.0, 1.0) - SQRT_PI / 2.0) < 1e-15


def test_normalization_constant_at_three_sigma():
    # substitute an independently computed erf(3) into the defining formula
    expected = 0.5 * SQRT_PI * (1.0 + decimal_erf(3.0))
    assert abs(expected - 1.7724342737122792) < 1e-12  # frozen from the 60-digit oracle
    assert abs(normalization_constant(3.0, 1.0) - expected) < 1e-14


def test_normalization_constant_wide_pulse_limit():
    # erf -> 1: |N|^2 -> sigma sqrt(pi)
    assert abs(normalization_constant(40.0, 1.0) - SQRT_PI) < 1e-15
    assert abs(normalization_constant(40.0, 2.0) - 2.0 * SQRT_PI) < 1e-15


def test_normalization_monotone_in_mean():
    # strictly increasing until erf saturates at double precision (~6 sigma),
    # never decreasing anywhere
    strict = [normalization_constant(m, 1.0) for m in np.linspace(0.0, 5.0, 40)]
    assert all(b > a for a, b in zip(strict, strict[1:]))
    wide = [normalization_constant(m, 1.0) for m in np.linspace(0.0, 15.0, 60)]
    assert all(b >= a for a, b in zip(wide, wide[1:]))


def test_normalization_tail_decays_faster_than_half_gaussian():
    # |N|^2 - sigma sqrt(pi) = -(sigma sqrt(pi)/2) erfc(m/sigma); compare
    # against exp(-(m/sigma)^2/2) using erfc directly (no cancellation)
    for r in (2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
        gap = 0.5 * SQRT_PI * math.erfc(r)
        assert gap < math.exp(-r * r / 2.0), r


def test_domain_errors():
    with pytest.raises(ValueError):
        normalization_constant(1.0, 0.0)
    with pytest.raises(ValueError):
        normalization_constant(1.0, -2.0)
    with pytest.raises(ValueError):
        SpectralDistribution(3.0, -1.0)
    with pytest.raises(ValueError):
        SpectralDistribution(-0.5, 1.0)
    f = SpectralDistribution(3.0, 1.0)
    with pytest.raises(ValueError):
        f.amplitude(-0.1)
    with pytest.raises(ValueError):
        f.amplitude(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        f.amplitude(math.nan)
    with pytest.raises(ValueError):
        f.amplitude(np.array([1.0, math.nan]))


def test_amplitude_peak_and_one_sigma_points():
    f = SpectralDistribution(3.0, 1.0)
    peak = f.amplitude(3.0)
    assert abs(peak - 1.0 / f.normalization) < 1e-15
    # exponent -1 at omega = mean + sigma*sqrt(2)
    assert abs(f.amplitude(3.0 + math.sqrt(2.0)) - math.exp(-1.0) / f.normalization) < 1e-15


def test_amplitude_peak_location_is_exact_argmax():
    f = SpectralDistribution(3.0, 0.7)
    omega = np.linspace(0.0, 10.0, 20001)
    values = f.amplitude(omega)
    assert omega[int(np.argmax(values))] == pytest.approx(3.0, abs=5e-4)
    assert np.all(values <= f.amplitude(3.0))


@pytest.mark.parametrize("mean_over_width", [0.0, 0.5, 1.0, 3.0, 7.0, 12.0, 20.0])
def test_unit_norm_across_regimes(mean_over_width):
    f = SpectralDistribution(mean_over_width, 1.0)
    norm = weighted_overlap(f, f, 0, "one", 0.0)
    assert abs(norm - 1.0) < 1e-10


def test_overlap_symmetry_bit_for_bit():
    f = SpectralDistribution(3.0, 1.0)
    g = SpectralDistribution(3.15, 1.2)
    for power, kernel, tau in [(0, "one", 0.0), (1, "cos", 1.3), (1, "sin", 2.1), (0, "sin", 0.7)]:
        assert weighted_overlap(f, g, power, kernel, tau) == weighted_overlap(g, f, power, kernel, tau)


def test_truncated_sin_moment_small_but_nonzero():
    # at tau = pi/mean the full-line sin moment vanishes by symmetry; only
    # the omega >= 0 truncation survives
    f = SpectralDistribution(3.0, 1.0)
    tau = math.pi / 3.0
    got = weighted_overlap(f, f, 0, "sin", tau)
    ref = riemann_overlap(3.0, 1.0, 3.0, 1.0, 0, "sin", tau)
    assert got != 0.0
    assert abs(got) < 1e-3
    assert abs(got - ref) < 1e-9


def test_first_moment_is_mean_up_to_truncation():
    f = SpectralDistribution(3.0, 1.0)
    mean = weighted_overlap(f, f, 1, "cos", 0.0)
    assert abs(mean - 3.0) < 1e-4  # truncation shifts it by ~3.5e-5
    ref = riemann_overlap(3.0, 1.0, 3.0, 1.0, 1, "cos", 0.0)
    assert abs(mean - ref) < 1e-9


def test_overlap_matches_riemann_oracle_oscillatory():
    got = weighted_overlap(
        SpectralDistribution(3.0, 1.0), SpectralDistribution(3.15, 1.0), 1, "cos", 2.4
    )
    ref = riemann_overlap(3.0, 1.0, 3.15, 1.0, 1, "cos", 2.4)
    assert abs(got - ref) < 1e-9


@pytest.mark.parametrize("power, kernel", [(1, "sin"), (1, "cos"), (0, "sin")])
def test_overlap_grid_matches_one_delay_calls(power, kernel):
    f, g = SpectralDistribution(3.0, 1.0), SpectralDistribution(3.15, 1.0)
    # unsorted, with a repeat, τ = 0 and negative delays; then the verifier's grid
    for taus in (np.array([[2.5, -0.7, 0.0, 6.0], [2.5, 0.05, -4.0, 1.3]]), np.linspace(0.0, 6.0, 61)):
        grid = weighted_overlap(f, g, power, kernel, taus)
        assert grid.shape == taus.shape
        single = [weighted_overlap(f, g, power, kernel, t) for t in taus.ravel()]
        assert all(type(v) is float for v in single)
        assert np.max(np.abs(grid.ravel() - single)) <= 1e-13


def test_overlap_grid_answers_where_its_rounding_floor_exceeds_the_tolerance():
    # ω³ cos ωτ at ω̄ = 30σ on 401 delays: the phase-rounding floor ε(1 + X|τ|)·∫|a| of the
    # largest delays exceeds TOL·|value|, and those members stop there instead of exhausting
    # the panel budget; f·g is one Gaussian line, whose exact moment M_3 is the reference
    f, g = SpectralDistribution(30.0, 1.0), SpectralDistribution(30.6, 1.1)
    taus = np.linspace(-2.0, 30.0, 401)
    grid = weighted_overlap(f, g, 3, "cos", taus)
    rate_f, rate_g = 0.5 / f.width**2, 0.5 / g.width**2
    line = (f.mean_freq * rate_f + g.mean_freq * rate_g) / (rate_f + rate_g)
    scale = math.exp(-((f.mean_freq - g.mean_freq) ** 2) / (2.0 * (f.width**2 + g.width**2)))
    exact = scale * _line_moments([(line, (rate_f + rate_g) ** -0.5)], taus, 3)[0].real
    exact /= f.normalization * g.normalization
    assert np.max(np.abs(grid - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_overlap_rejects_bad_arguments():
    f = SpectralDistribution(3.0, 1.0)
    with pytest.raises(ValueError):
        weighted_overlap(f, f, 7, "one", 0.0)
    with pytest.raises(ValueError):
        weighted_overlap(f, f, 0, "sinh", 0.0)


def test_domain_errors_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SpectralDistribution(bad, 1.0)
        with pytest.raises(ValueError):
            SpectralDistribution(3.0, bad)
        with pytest.raises(ValueError):
            normalization_constant(3.0, bad)
        with pytest.raises(ValueError):
            normalization_constant(bad, 1.0)


# ---------------------------------------------------------------------------
# Faddeeva function and Gaussian-Fourier moments


def _upper_half_plane_points():
    rng = np.random.default_rng(5)
    pts = []
    for scale in (1e-3, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e4, 1e7):
        x = rng.uniform(-scale, scale, 2000)
        y = rng.uniform(0.0, scale, 2000)
        pts += [x + 1j * y, x + 0j, 1j * y, x + 1e-3j * y]
    return np.concatenate(pts)


def test_faddeeva_matches_scipy_wofz():
    special = pytest.importorskip("scipy.special")
    z = _upper_half_plane_points()
    ref = special.wofz(z)
    assert float(np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref))) <= 1e-13


def test_faddeeva_matches_mpmath_erfc():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(6)
    z = np.concatenate([rng.uniform(-12.0, 12.0, 40) + 1j * rng.uniform(0.0, 12.0, 40), [0j, 5.0 + 0j, 40j, -25 + 3j]])
    got = _faddeeva(z)
    for zi, wi in zip(z, got):
        zm = mpmath.mpc(zi.real, zi.imag)
        ref = complex(mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm))
        assert abs(wi - ref) <= 1e-13 * abs(ref), zi


@pytest.mark.parametrize("mean,width", [(0.0, 1.0), (0.7, 1.0), (3.0, 0.5), (40.0, 2.0)])
def test_gaussian_fourier_moments_match_direct_quadrature(mean, width):
    taus = np.array([-7.0, -1.3, 0.0, 0.4, 2.5, 9.0]) / width
    hi = mean + 12.0 * width
    for n in range(4):
        scale = width * (mean + width) ** n  # size of M_n(0)
        for tau, got in zip(taus, _line_moments([(mean, width)], taus, n)[0]):
            def part(kernel):
                return integrate_by_quarter_periods(
                    lambda w: w**n * np.exp(-(((w - mean) / width) ** 2)) * kernel(w * tau),
                    0.0, hi, abs(tau), abs_tol=1e-14 * scale, rel_tol=1e-14,
                ).value
            ref = complex(part(np.cos), part(np.sin))
            assert abs(got - ref) <= 1e-13 * scale, (n, tau)


def test_gaussian_fourier_zero_delay_is_normalization():
    # M_0(0) = (σ√π/2)(1 + erf(ω̄/σ)) = |N|²
    for mean in (0.0, 0.5, 3.0, 1e4):
        m0 = _line_moments([(mean, 1.7)], 0.0, 0)[0]
        assert abs(m0.real / normalization_constant(mean, 1.7) - 1.0) < 1e-14


def test_line_moments_of_a_zero_dimensional_delay_match_the_grid():
    # near (σ|τ| < 40, the recurrence) and far (the w term's series) give one shape
    for tau in (1.0, 41.0):
        for n in range(2):
            moment = _line_moments([(3.0, 1.0)], tau, n)[0]
            assert moment.shape == () and moment.dtype == complex, (tau, n)
            on_grid = _line_moments([(3.0, 1.0)], [tau], n)[0][0]
            assert np.allclose(moment, on_grid, rtol=1e-14, atol=0.0), (tau, n)


def test_weighted_overlap_resolves_optical_line():
    # unit norm of f² for a width-1 line far from the origin
    f = SpectralDistribution(3e4, 1.0)
    assert abs(weighted_overlap(f, f, 0, "one") - 1.0) < 1e-12
