import math

import numpy as np
import pytest

from mmi.spectra import SpectralDistribution
from mmi.states import (
    Coherent,
    OnePhoton,
    Thermal,
    Vacuum,
    bose_weighted_integral,
    mean_occupation,
)
from oracles import riemann_bose_cos


def test_port_state_construction():
    spec = SpectralDistribution(3.0, 1.0)
    assert OnePhoton(spec).spectrum is spec
    assert Coherent(spec).spectrum is spec
    assert Thermal(2.5).theta == 2.5
    Vacuum()
    with pytest.raises(ValueError):
        Thermal(0.0)
    with pytest.raises(ValueError):
        Thermal(-1.0)


def test_mean_occupation_log2_point():
    # exp(ln 2) - 1 = 1
    assert abs(mean_occupation(math.log(2.0), 1.0) - 1.0) < 1e-14
    assert abs(mean_occupation(2.0 * math.log(2.0), 2.0) - 1.0) < 1e-14


def test_mean_occupation_deep_boltzmann_tail():
    # 1/(e^10 - 1) = 4.540199100968776832...e-5 (30-digit evaluation); the
    # pure Boltzmann factor e^-10 = 4.53999e-5 differs in the fourth digit,
    # so this also catches a dropped "-1"
    assert abs(mean_occupation(10.0, 1.0) - 4.5401991009687766e-05) < 1e-19
    assert mean_occupation(600.0, 1.0) < 1e-250  # deep tail stays finite and tiny


def test_mean_occupation_detailed_identity():
    # nbar * (e^(w/theta) - 1) = 1 with the factor built by expm1
    for ratio in np.geomspace(1e-6, 30.0, 200):
        nbar = mean_occupation(ratio, 1.0)
        assert abs(nbar * math.expm1(ratio) - 1.0) < 1e-12, ratio


def test_mean_occupation_small_frequency_divergence():
    w = 1e-8
    assert abs(mean_occupation(w, 1.0) - 1.0 / w) < 1.0  # theta/omega leading pole
    assert mean_occupation(1e-3, 1.0) > mean_occupation(2e-3, 1.0)


def test_mean_occupation_domain_errors():
    with pytest.raises(ValueError):
        mean_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        mean_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        mean_occupation(1.0, 0.0)
    with pytest.raises(ValueError):
        mean_occupation(math.nan, 1.0)
    with pytest.raises(ValueError):
        mean_occupation([1.0, math.nan], 1.0)
    assert mean_occupation(math.inf, 1.0) == 0.0  # the far tail is in the domain


@pytest.mark.parametrize("d", [1, 3])
def test_bose_weighted_integral_constant_kernel(d):
    # theta^(d+1) Gamma(1+d) zeta(d+1)
    theta = 1.7
    expected = theta ** (d + 1) * math.gamma(1.0 + d) * (math.pi**2 / 6.0 if d == 1 else math.pi**4 / 90.0)
    got = bose_weighted_integral(theta, d).value
    assert abs(got - expected) / expected < 1e-9


def test_bose_weighted_integral_cos_matches_riemann_oracle():
    a = 1.3
    got = bose_weighted_integral(1.0, 3, a).value
    ref = riemann_bose_cos(3, a)
    assert abs(got - ref) < 1e-7  # limited by the oracle's step size


def test_bose_weighted_integral_cos_matches_hyperbolic_bracket():
    # at a = 1 the d = 3 fringe integral equals theta^4 J(3) times the
    # stable hyperbolic bracket, evaluated through an independent code path
    from mmi.thermal_kernels import bose_integral_constant, fringe_deviation

    theta = 1.0
    got = bose_weighted_integral(theta, 3, 1.0).value
    bracket = fringe_deviation(math.pi)
    assert abs(got - theta**4 * bose_integral_constant(3) * bracket) < 1e-10


def test_bose_weighted_integral_scaling_in_theta():
    # substitution x = omega/theta: value scales like theta^(d+1) with a = tau*theta fixed
    theta = 2.0
    a = 0.8
    v1 = bose_weighted_integral(1.0, 3, a).value
    v2 = bose_weighted_integral(theta, 3, a / theta).value
    assert abs(v2 - theta**4 * v1) < 1e-9 * theta**4


def test_bose_weighted_integral_general_dimension_gate():
    # any odd d with a closed-form constant; the scenario table decides which d a scenario admits
    for d in (2, 0, -1, 1.5):
        with pytest.raises(ValueError, match="positive odd integer"):
            bose_weighted_integral(1.0, d)
    # Γ(1+d) ζ(1+d) with ζ(6) = π⁶/945, ζ(8) = π⁸/9450
    for d, zeta in ((5, math.pi**6 / 945.0), (7, math.pi**8 / 9450.0)):
        got = bose_weighted_integral(1.0, d).value
        assert abs(got / (math.factorial(d) * zeta) - 1.0) < 1e-12


@pytest.mark.parametrize("d, abs_tol", [(5, 10.0), (5, 100.0), (7, 10.0), (7, 1000.0)])
def test_bose_weighted_integral_loose_tolerance_keeps_the_peak(d, abs_tol):
    # x^d e^-x rises from x = 1 to its peak at x = d; a tolerance above the
    # envelope's value at 1 must still truncate past the peak, not before it
    zeta = {5: math.pi**6 / 945.0, 7: math.pi**8 / 9450.0}[d]
    got = bose_weighted_integral(1.0, d, abs_tol=abs_tol).value
    assert abs(got - math.factorial(d) * zeta) < abs_tol


def test_bose_weighted_integral_domain_errors():
    with pytest.raises(ValueError):
        bose_weighted_integral(0.0, 3)


def test_non_finite_temperatures_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Thermal(bad)
        with pytest.raises(ValueError):
            mean_occupation(1.0, bad)
