import functools
import math
import mmap
import os
import threading
import warnings

import numpy as np
import pytest

from mmi import _workers
from mmi.intensity import (
    BLOCK,
    ClosedFormError,
    IntensityRequest,
    Interferogram,
    coherent_intensity,
    coherent_intensity_closed,
    compute_interferogram,
    fock_intensity,
    fock_intensity_closed,
    one_photon_vacuum_ratio,
    thermal_thermal_ratio,
    thermal_vacuum_ratio,
)
from mmi.quadrature import PHASE_REACH, TOL, QuadratureError
from mmi.spectra import SpectralDistribution, gaussian_fourier_moments, weighted_overlap
from mmi.states import Coherent, OnePhoton, Thermal, Vacuum, _bose_cutoff, bose_weighted_integral
from mmi.thermal_kernels import bose_integral_constant
from oracles import riemann_overlap
from test_thermal_kernels import BLOCK_SIZES, unblocked_fringe_deviation

F_S = SpectralDistribution(3.0, 1.0)
F_LO = SpectralDistribution(3.15, 1.0)
F_LO_RED = SpectralDistribution(2.85, 1.0)

# |ratio(a=1) - value| anchor: 50-digit evaluation of the d=3 hyperbolic
# closed form gives 0.38274648448198418635...
THERMAL_VACUUM_AT_A1 = 0.38274648448198418635


# ---------------------------------------------------------------------------
# one-photon pair


def test_fock_intensity_zero_delay_is_twice_first_moment():
    got = fock_intensity(F_S, F_LO, 0.0)
    first_moment = weighted_overlap(F_S, F_S, 1, "one")
    assert abs(got - 2.0 * first_moment) < 1e-10


@pytest.mark.parametrize("f_lo,plateau", [(F_LO, 1.025), (F_LO_RED, 0.975)])
def test_fock_large_delay_plateau(f_lo, plateau):
    norm = fock_intensity(F_S, f_lo, 0.0)
    ratio = fock_intensity(F_S, f_lo, 20.0) / norm
    assert abs(ratio - plateau) < 1e-4


def test_fock_quadrature_matches_riemann_oracle():
    tau = 1.0
    got = fock_intensity(F_S, F_LO, tau)
    ref = (
        riemann_overlap(3.0, 1.0, 3.0, 1.0, 1, "one")
        + riemann_overlap(3.0, 1.0, 3.0, 1.0, 1, "cos", tau)
        + riemann_overlap(3.15, 1.0, 3.15, 1.0, 1, "one")
        - riemann_overlap(3.15, 1.0, 3.15, 1.0, 1, "cos", tau)
    )
    assert abs(got - ref) / ref < 1e-6


def test_fock_closed_exact_normalization_at_zero():
    assert abs(fock_intensity_closed(F_S, F_LO, 0.0) - 1.0) < 1e-15


@pytest.mark.filterwarnings("ignore::UserWarning")  # 2.85 sigma triggers the regime warning
def test_fock_closed_asymptote():
    # the residual fringe at sigma*tau = 10 is bounded by (1+R)/2 e^-25
    for f_lo in (F_LO, F_LO_RED):
        target = (1.0 + f_lo.mean_freq / 3.0) / 2.0
        assert abs(fock_intensity_closed(F_S, f_lo, 10.0) - target) < 1.5 * math.exp(-25.0)


def test_fock_closed_vs_quadrature_at_unit_delay():
    # quantifies the approximation error of the closed form at 3 sigma
    norm = fock_intensity(F_S, F_LO, 0.0)
    quad = fock_intensity(F_S, F_LO, 1.0) / norm
    closed = fock_intensity_closed(F_S, F_LO, 1.0)
    assert abs(quad - closed) < 1e-2


def test_fock_closed_regime_guards():
    with pytest.raises(ValueError):
        fock_intensity_closed(SpectralDistribution(1.5, 1.0), F_LO, 0.5)
    with pytest.warns(UserWarning):
        fock_intensity_closed(F_S, F_LO_RED, 0.5)  # 2.85 sigma: approximation warning


def test_fock_ratio_bounded():
    norm = fock_intensity(F_S, F_LO, 0.0)
    bound = 1.0 + F_LO.mean_freq / F_S.mean_freq
    for tau in np.linspace(0.0, 8.0, 60):
        assert 0.0 <= fock_intensity(F_S, F_LO, tau) / norm <= bound + 1e-9


def test_fock_dimension_gate():
    with pytest.raises(ValueError):
        fock_intensity(F_S, F_LO, 1.0, d=2)


# ---------------------------------------------------------------------------
# coherent pair


def test_coherent_equals_fock_at_zero_delay():
    assert abs(coherent_intensity(F_S, F_LO, 0.0) - fock_intensity(F_S, F_LO, 0.0)) < 1e-11


def test_coherent_dips_below_one_at_small_delay():
    # the sin cross term opens linearly in tau, the cos terms quadratically
    f = SpectralDistribution(3.0, 1.0)
    norm = coherent_intensity(f, f, 0.0)
    small = 0.02
    ratio = coherent_intensity(f, f, small) / norm
    assert ratio < 1.0
    ratio_fock = fock_intensity(f, f, small) / fock_intensity(f, f, 0.0)
    assert abs(ratio_fock - 1.0) < abs(ratio - 1.0) / 10.0
    # slope from the Riemann oracle: d ratio/d tau|_0 = -2<w^2 f f>/(2<w f^2>)
    slope_ref = -riemann_overlap(3.0, 1.0, 3.0, 1.0, 2, "one") / riemann_overlap(3.0, 1.0, 3.0, 1.0, 1, "one")
    slope = (ratio - 1.0) / small
    assert abs(slope - slope_ref) < 0.05 * abs(slope_ref)


def test_coherent_minus_fock_is_cross_term():
    for tau in (0.3, 1.1, 2.7, 5.5):
        diff = coherent_intensity(F_S, F_LO, tau) - fock_intensity(F_S, F_LO, tau)
        cross = -2.0 * weighted_overlap(F_S, F_LO, 1, "sin", tau)
        assert abs(diff - cross) < 1e-9


def test_coherent_not_even_in_tau():
    plus = coherent_intensity(F_S, F_LO, 0.9)
    minus = coherent_intensity(F_S, F_LO, -0.9)
    assert abs(plus - minus) > 1e-3
    # fock is even
    assert abs(fock_intensity(F_S, F_LO, 0.9) - fock_intensity(F_S, F_LO, -0.9)) < 1e-10


def test_coherent_closed_matches_quadrature_at_approximation_level():
    # the replace-omega-then-extend approximation drops a first-order
    # Fourier term of the cross integral that has no partner to cancel
    # against; measured worst deviation at these parameters is 0.121 at
    # sigma*tau ~ 1.05
    norm = coherent_intensity(F_S, F_LO, 0.0)
    worst = 0.0
    for tau in np.linspace(0.0, 6.0, 61):
        quad = coherent_intensity(F_S, F_LO, tau) / norm
        closed = coherent_intensity_closed(F_S, F_LO, tau)
        worst = max(worst, abs(quad - closed))
    assert worst < 0.15
    assert worst > 0.05  # it really is a coarser approximation than the fock form


# ---------------------------------------------------------------------------
# one-photon against vacuum


def test_one_photon_vacuum_zero_delay():
    assert one_photon_vacuum_ratio(F_S, 0.0) == 1.0


def test_one_photon_vacuum_fringe_peak_value():
    # at sigma*tau = 2 and a fringe peak the ratio is (1 + e^-1)/2
    f = SpectralDistribution(math.pi, 1.0)  # peak spacing 2: tau = 2 sits on a peak
    got = one_photon_vacuum_ratio(f, 2.0)
    assert abs(got - 0.5 * (1.0 + math.exp(-1.0))) < 1e-12


def test_one_photon_vacuum_tracks_quadrature():
    # with vacuum in the LO port the dropped (tau sigma^2/2) sin(mean tau)
    # Fourier term stands alone, so the approximation error is larger than
    # in the two-photon case: measured worst 0.0707 at sigma*tau ~ 1.55
    from mmi.intensity import _spectral_integral

    def vac_quad(tau):
        return _spectral_integral(F_S, None, tau, 1, False).value

    norm = vac_quad(0.0)
    worst = 0.0
    for tau in np.linspace(0.0, 6.0, 31):
        worst = max(worst, abs(vac_quad(tau) / norm - one_photon_vacuum_ratio(F_S, tau)))
    assert worst < 0.08


def test_one_photon_vacuum_closed_form_keeps_the_pairs_regime_rule():
    # below 2 widths the closed form is refused, below 3 it warns, as for the pairs
    narrow = SpectralDistribution(1.5, 1.0)
    with pytest.raises(ValueError, match="2 widths for the signal port"):
        one_photon_vacuum_ratio(narrow, 1.0)
    with pytest.raises(ValueError, match="2 widths"):
        compute_interferogram(IntensityRequest(OnePhoton(narrow), Vacuum(), [0.0, 1.0], method="closed_form"))
    with pytest.warns(UserWarning, match="below 3 widths"):
        got = one_photon_vacuum_ratio(SpectralDistribution(2.5, 1.0), 2.0)
    assert abs(got - 0.5 * (1.0 + math.exp(-1.0) * math.cos(5.0))) < 1e-15


def test_a_negative_closed_form_ratio_raises_closed_form_error():
    # the coherent closed form dips below 0 here while the exact ratio stays positive
    f_s, f_lo = SpectralDistribution(6.011, 1.0), SpectralDistribution(5.735, 1.0)
    taus = np.linspace(0.0, 12.0, 400)
    with pytest.raises(ClosedFormError, match="method 'auto'"):
        coherent_intensity_closed(f_s, f_lo, taus)
    request = IntensityRequest(Coherent(f_s), Coherent(f_lo), taus, method="closed_form")
    with pytest.raises(ClosedFormError):
        compute_interferogram(request)
    assert issubclass(ClosedFormError, ValueError)
    exact = compute_interferogram(IntensityRequest(Coherent(f_s), Coherent(f_lo), taus)).ratios
    assert exact.min() > 0.0


# ---------------------------------------------------------------------------
# thermal against vacuum


def test_thermal_vacuum_normalized_at_zero():
    assert thermal_vacuum_ratio(1.0, 0.0) == 1.0
    assert thermal_vacuum_ratio(2.5, 0.0, 3, "quadrature") == pytest.approx(1.0, abs=1e-12)


def test_thermal_vacuum_frozen_anchor():
    assert abs(thermal_vacuum_ratio(1.0, 1.0, 3, "closed_form") - THERMAL_VACUUM_AT_A1) < 1e-12
    assert abs(thermal_vacuum_ratio(1.0, 1.0, 3, "quadrature") - THERMAL_VACUUM_AT_A1) < 1e-9


def test_thermal_vacuum_dual_path_dense():
    a = np.linspace(0.01, 10.0, 200)
    closed = np.asarray(thermal_vacuum_ratio(1.0, a, 3, "closed_form"))
    quad = np.asarray(thermal_vacuum_ratio(1.0, a, 3, "quadrature"))
    assert float(np.max(np.abs(closed - quad))) < 1e-9


def test_thermal_vacuum_large_delay_limit():
    assert abs(thermal_vacuum_ratio(1.0, 50.0) - 0.5) < 1e-5
    assert abs(thermal_vacuum_ratio(1.0, 500.0) - 0.5) < 1e-9


def test_thermal_vacuum_even_in_tau():
    a = np.linspace(0.1, 5.0, 23)
    plus = np.asarray(thermal_vacuum_ratio(1.0, a))
    minus = np.asarray(thermal_vacuum_ratio(1.0, -a))
    assert np.array_equal(plus, minus)


def test_thermal_vacuum_power_law_approach():
    # |ratio - 1/2| ~ (45/2)/(a pi)^4: slope -4 on a log-log plot
    a = np.geomspace(3.0, 8.0, 12)
    dev = np.abs(np.asarray(thermal_vacuum_ratio(1.0, a)) - 0.5)
    slope = np.polyfit(np.log(a), np.log(dev), 1)[0]
    assert abs(slope + 4.0) < 0.1


def test_thermal_vacuum_d1_closed_form_matches_quadrature():
    # K_1 = 3(1/x² - 1/sinh²x) at x = πa against the Bose integral itself
    a = np.linspace(0.01, 5.0, 120)
    closed = np.asarray(thermal_vacuum_ratio(1.0, a, 1, "closed_form"))
    quad = np.asarray(thermal_vacuum_ratio(1.0, a, 1, "quadrature"))
    assert float(np.max(np.abs(closed - quad))) <= 1e-9
    assert thermal_vacuum_ratio(1.0, 0.0, 1, "closed_form") == 1.0
    assert thermal_vacuum_ratio(1.0, 0.0, 1) == 1.0
    assert abs(thermal_vacuum_ratio(1.0, 0.0, 1, "quadrature") - 1.0) < 1e-11


def test_thermal_vacuum_dimension_gate():
    for d in (2, 5):
        for method in ("auto", "quadrature"):
            with pytest.raises(ValueError, match=f"dimension {d} unsupported"):
                thermal_vacuum_ratio(1.0, 1.0, d, method)


# ---------------------------------------------------------------------------
# thermal against thermal


def test_equal_temperature_identity_exact():
    # and on an unsorted grid of both signs that spans three kernel blocks
    for taus in (np.linspace(0.0, 10.0, 100), np.random.default_rng(4).uniform(-10.0, 10.0, 2 * BLOCK + 1)):
        ratios = np.asarray(thermal_thermal_ratio(1.3, 1.3, taus))
        assert float(np.max(np.abs(ratios - 1.0))) == 0.0


def test_two_temperature_asymptote():
    target = (1.0 + 1.01**-4) / 2.0
    assert abs(target - 0.9804901722414081) < 1e-15
    got = thermal_thermal_ratio(1.0, 1.01, 5.0 / 1.01)  # a1 = 5
    assert abs(got - target) < 1e-6


def test_two_temperature_fringe_sign_flips_with_temperature_difference():
    # around a1 ~ 0.5 the warm and cold signal curves bracket unity
    tau = 0.5
    warm = thermal_thermal_ratio(1.0, 1.01, tau)
    cold = thermal_thermal_ratio(1.0, 0.99, tau)
    assert (warm - 1.0) * (cold - 1.0) < 0.0


def test_two_temperature_dual_path():
    a0 = np.linspace(0.05, 4.0, 50)
    closed = np.asarray(thermal_thermal_ratio(1.0, 1.01, a0, "closed_form"))
    quad = np.asarray(thermal_thermal_ratio(1.0, 1.01, a0, "quadrature"))
    assert float(np.max(np.abs(closed - quad))) < 1e-9


@pytest.mark.parametrize("ratio", [1.01, 1.3, 0.64])
def test_two_temperature_single_mode(ratio):
    # d = 1: ½[1 + r² + K₁(a₁) - r² K₁(a₀)], r = θ₀/θ₁, K₁(a) = 3(1/(aπ)² - 1/sinh²(aπ))
    def k1(a):
        x = np.pi * a
        return 3.0 * (1.0 / x**2 - 1.0 / np.sinh(x) ** 2)

    a0 = np.linspace(0.05, 4.0, 40)
    want = 0.5 * (1.0 + ratio**-2 + k1(ratio * a0) - ratio**-2 * k1(a0))
    grams = [compute_interferogram(IntensityRequest(Thermal(ratio), Thermal(1.0), a0, 1, method))
             for method in ("auto", "quadrature")]
    for gram in grams:
        assert gram.metadata["dimension"] == 1
        assert np.max(np.abs(gram.ratios - want)) < 1e-12
    same = compute_interferogram(IntensityRequest(Thermal(1.0), Thermal(1.0), a0, 1))
    assert np.all(same.ratios == 1.0)


def test_two_temperature_even_and_bounded():
    taus = np.linspace(0.05, 6.0, 40)
    up = np.asarray(thermal_thermal_ratio(1.0, 1.05, taus))
    down = np.asarray(thermal_thermal_ratio(1.0, 1.05, -taus))
    assert np.array_equal(up, down)
    bound = 1.0 + (1.0 / 1.05) ** 4
    assert np.all(up >= 0.0) and np.all(up <= bound + 1e-12)


def test_two_temperature_exponential_approach_vs_vacuum_power_law():
    # the power-law tails of the two kernels cancel algebraically, so the
    # two-temperature deviation decays like e^(-2 pi a_min) (slope ~ -2 pi
    # in the slower port's a, softened slightly by the slowly varying
    # difference prefactor; measured -5.92 on this window), while the
    # thermal-vacuum deviation is a pure a^-4 power law (slope -1.25 over
    # the same window when forced through the same linear-in-a fit)
    r = 1.01
    asym = (1.0 + r**-4) / 2.0
    a0 = np.linspace(2.5, 4.0, 13)
    dev = np.abs(np.asarray(thermal_thermal_ratio(1.0, r, a0)) - asym)
    slope = np.polyfit(a0, np.log(dev), 1)[0]
    assert -6.7 < slope < -5.5
    dev_vac = np.abs(np.asarray(thermal_vacuum_ratio(1.0, a0)) - 0.5)
    slope_vac = np.polyfit(a0, np.log(dev_vac), 1)[0]
    assert slope_vac > -2.0
    # and on log-log axes the vacuum case is the clean -4 power law
    loglog_slope = np.polyfit(np.log(a0), np.log(dev_vac), 1)[0]
    assert abs(loglog_slope + 4.0) < 0.1


@pytest.mark.parametrize("method, slack", [("auto", 0.0), ("quadrature", 1e-12)])
@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-3])
def test_cold_reference_approaches_thermal_vacuum(eps, method, slack):
    # the pair minus thermal/vacuum at θ₁ is ½r⁴(1 - K(a₀)), r = θ₀/θ₁, and |K| ≤ 1
    theta1 = 1.3
    taus = np.random.default_rng(5).uniform(-6.0, 6.0, 41)
    pair = np.asarray(thermal_thermal_ratio(eps * theta1, theta1, taus, method))
    vacuum = np.asarray(thermal_vacuum_ratio(theta1, taus, 3, method))
    assert float(np.max(np.abs(pair - vacuum))) <= eps**4 + slack


def test_two_temperature_rejects_nonpositive():
    with pytest.raises(ValueError):
        thermal_thermal_ratio(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        thermal_thermal_ratio(1.0, -2.0, 1.0)


# ---------------------------------------------------------------------------
# request/interferogram surface


def test_compute_interferogram_fock_auto_is_exact():
    taus = np.linspace(0.0, 3.0, 16)
    gram = compute_interferogram(
        IntensityRequest(signal=OnePhoton(F_S), lo=OnePhoton(F_LO), delays=taus)
    )
    assert gram.ratios[0] == 1.0
    assert gram.metadata["method"] == "exact"
    # same internal scale as the quadrature path
    assert abs(gram.normalization / fock_intensity(F_S, F_LO, 0.0) - 1.0) < 1e-12
    direct = fock_intensity(F_S, F_LO, taus[3]) / fock_intensity(F_S, F_LO, 0.0)
    assert abs(gram.ratios[3] - direct) < 1e-12


def test_compute_interferogram_fock_quadrature():
    taus = np.linspace(0.0, 3.0, 16)
    gram = compute_interferogram(
        IntensityRequest(signal=OnePhoton(F_S), lo=OnePhoton(F_LO), delays=taus, method="quadrature")
    )
    assert gram.ratios[0] == 1.0
    assert gram.normalization is not None and gram.normalization > 0.0
    assert gram.metadata["method"] == "quadrature"
    direct = fock_intensity(F_S, F_LO, taus[3]) / fock_intensity(F_S, F_LO, 0.0)
    assert abs(gram.ratios[3] - direct) < 1e-12


def test_compute_interferogram_thermal_closed():
    taus = np.linspace(0.0, 5.0, 11)
    gram = compute_interferogram(
        IntensityRequest(signal=Thermal(1.0), lo=Vacuum(), delays=taus, dimension=3)
    )
    assert gram.metadata["method"] == "closed_form"
    assert gram.ratios[0] == 1.0


def test_default_dimension_is_the_scenarios_own():
    # the thermal pair admits d = 1 and 3; the blackbody, d = 3, is its default
    taus = np.linspace(0.0, 4.0, 9)
    pair = (Thermal(1.1), Thermal(1.0), taus)
    implicit = compute_interferogram(IntensityRequest(*pair))
    explicit = compute_interferogram(IntensityRequest(*pair, dimension=3))
    assert implicit.metadata == explicit.metadata
    assert implicit.metadata["dimension"] == 3
    assert np.array_equal(implicit.ratios, explicit.ratios)
    single_mode = compute_interferogram(IntensityRequest(*pair, dimension=1))
    assert single_mode.metadata["dimension"] == 1
    assert not np.array_equal(single_mode.ratios, implicit.ratios)
    # spectral pairs default to one dimension, thermal signals to three
    spectral = compute_interferogram(IntensityRequest(OnePhoton(F_S), Vacuum(), taus))
    assert spectral.metadata["dimension"] == 1
    thermal = compute_interferogram(IntensityRequest(Thermal(1.0), Vacuum(), taus))
    assert thermal.metadata["dimension"] == 3
    assert thermal.metadata["method"] == "closed_form"
    # and so does the thermal/vacuum function itself
    assert np.array_equal(np.asarray(thermal_vacuum_ratio(1.0, taus)), thermal.ratios)


def test_compute_interferogram_rejects_vacuum_signal():
    with pytest.raises(ValueError):
        compute_interferogram(
            IntensityRequest(signal=Vacuum(), lo=OnePhoton(F_S), delays=[0.0, 1.0])
        )


def test_compute_interferogram_rejects_mixed_pair():
    with pytest.raises(ValueError):
        compute_interferogram(
            IntensityRequest(signal=OnePhoton(F_S), lo=Thermal(1.0), delays=[0.0, 1.0])
        )


def test_interferogram_invariants_enforced():
    with pytest.raises(ValueError):
        Interferogram(
            delays=np.array([0.0, 1.0]),
            ratios=np.array([0.99, 1.0]),  # zero-delay sample must be 1
            normalization=None,
        )
    with pytest.raises(ValueError):
        Interferogram(
            delays=np.array([1.0]),
            ratios=np.array([-0.1]),
            normalization=None,
        )
    with pytest.raises(ValueError):
        Interferogram(
            delays=np.array([1.0]),
            ratios=np.array([math.nan]),
            normalization=None,
        )
    with pytest.raises(ValueError, match="differ in shape"):
        Interferogram(delays=np.array([0.0, 1.0]), ratios=np.array([1.0]), normalization=None)


def test_request_validates_method():
    with pytest.raises(ValueError):
        IntensityRequest(signal=OnePhoton(F_S), lo=Vacuum(), delays=[0.0], method="fft")
    with pytest.raises(ValueError, match="unknown method 'exact'"):
        thermal_vacuum_ratio(1.0, 0.5, method="exact")  # a path metadata records, not a method to ask for


def test_request_rejects_non_finite_delays():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            IntensityRequest(signal=OnePhoton(F_S), lo=OnePhoton(F_LO), delays=[0.0, bad])


def test_request_keeps_its_own_read_only_delays():
    delays = np.linspace(0.0, 3.0, 7)
    request = IntensityRequest(Thermal(1.0), Vacuum(), delays)
    delays[3] = -5.0  # the caller's later edit does not reach the request
    assert request.delays[3] == 1.5
    with pytest.raises(ValueError, match="read-only"):
        request.delays[3] = 2.0


@pytest.mark.parametrize("ports", [(Thermal(1.0), Vacuum()), (OnePhoton(F_S), Vacuum())])
def test_computed_interferogram_arrays_are_read_only(ports):
    request = IntensityRequest(*ports, np.linspace(0.0, 3.0, 7))
    gram = compute_interferogram(request)
    with pytest.raises(ValueError, match="read-only"):
        gram.ratios[2] = -5.0  # a validated interferogram cannot come to hold a negative ratio
    with pytest.raises(ValueError, match="read-only"):
        gram.delays[2] = 0.0
    assert gram.delays is request.delays  # the request's copy, not another one


def test_thermal_ratios_reject_non_finite_temperatures():
    with pytest.raises(ValueError):
        thermal_vacuum_ratio(math.nan, 1.0)
    with pytest.raises(ValueError):
        thermal_thermal_ratio(1.0, math.inf, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_thermal_ratios_reject_non_finite_delays(bad, shape, method):
    tau = bad if shape == "scalar" else np.array([0.5, bad, 2.0])
    with pytest.raises(ValueError, match="delays must be finite"):
        thermal_vacuum_ratio(1.0, tau, method=method)
    with pytest.raises(ValueError, match="delays must be finite"):
        thermal_thermal_ratio(1.0, 1.1, tau, method=method)


@pytest.mark.parametrize("tau", [math.nan, math.inf, [0.0, math.nan]], ids=["nan", "inf", "array-nan"])
@pytest.mark.parametrize(
    "closed",
    [
        lambda tau: one_photon_vacuum_ratio(F_S, tau),
        lambda tau: fock_intensity_closed(F_S, F_LO, tau),
        lambda tau: coherent_intensity_closed(F_S, F_LO, tau),
    ],
    ids=["one_photon_vacuum_ratio", "fock_intensity_closed", "coherent_intensity_closed"],
)
def test_spectral_closed_forms_reject_non_finite_delays(closed, tau):
    # unguarded, the closed forms turn a NaN or infinite delay into a NaN ratio
    with pytest.raises(ValueError, match="delays must be finite"):
        closed(tau)


EVERY_SCENARIO = {
    "fock": (OnePhoton(F_S), OnePhoton(F_LO)),
    "coherent": (Coherent(F_S), Coherent(F_LO)),
    "one-photon-vacuum": (OnePhoton(F_S), Vacuum()),
    "thermal-vacuum": (Thermal(1.0), Vacuum()),
    "thermal-thermal": (Thermal(1.1), Thermal(1.0)),
}


@pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature"])
@pytest.mark.parametrize("ports", list(EVERY_SCENARIO.values()), ids=list(EVERY_SCENARIO))
def test_empty_delay_grids_give_empty_ratios(ports, method):
    # the thermal quadrature once split an empty grid into zero chunks, which numpy refuses
    for delays in ([], np.empty((0, 3))):
        gram = compute_interferogram(IntensityRequest(*ports, delays, method=method))
        assert gram.ratios.shape == np.shape(delays)
        if method == "quadrature":  # no ratio reads a zero-delay integral, so none is integrated
            assert gram.metadata["quadrature"] == {"panels": 0, "evaluations": 0, "max_error": 0.0}
            assert gram.normalization is None


def test_empty_delay_grids_in_the_quadrature_entry_points():
    assert np.shape(thermal_vacuum_ratio(1.0, [], method="quadrature")) == (0,)
    res = bose_weighted_integral(1.0, 3, np.array([]))
    assert (res.value.shape, res.error.shape, res.panels, res.evaluations) == ((0,), (0,), 0, 0)
    assert np.shape(weighted_overlap(F_S, F_LO, 1, "cos", np.array([]))) == (0,)


# ---------------------------------------------------------------------------
# the exact spectral path


def _spectral_ports(kind, f_s, f_lo):
    if kind == "vacuum":
        return OnePhoton(f_s), Vacuum()
    port = OnePhoton if kind == "fock" else Coherent
    return port(f_s), port(f_lo)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("mean_over_width", [0.0, 0.5, 1.0, 3.0, 10.0, 100.0])
def test_exact_matches_quadrature(mean_over_width, d):
    width = 1.3
    taus = np.linspace(0.0, 20.0, 41) / width
    f_s = SpectralDistribution(mean_over_width * width, width)
    for detuning in (-0.05, -0.01, 0.01, 0.05):
        f_lo = SpectralDistribution(mean_over_width * width * (1.0 + detuning), width)
        for kind in ("vacuum", "fock", "coherent"):
            sig, lo = _spectral_ports(kind, f_s, f_lo)
            exact = compute_interferogram(IntensityRequest(sig, lo, taus, d))
            quad = compute_interferogram(IntensityRequest(sig, lo, taus, d, "quadrature"))
            assert exact.metadata["method"] == "exact"
            assert float(np.max(np.abs(exact.ratios - quad.ratios))) <= 1e-12, (kind, detuning)
            assert abs(exact.normalization / quad.normalization - 1.0) <= 1e-12, (kind, detuning)


def test_exact_coherent_matches_quadrature_at_negative_delay():
    # the cross term is odd in tau; unequal widths exercise the product Gaussian
    f_lo = SpectralDistribution(3.2, 0.7)
    taus = np.linspace(-6.0, 6.0, 25)
    exact = compute_interferogram(IntensityRequest(Coherent(F_S), Coherent(f_lo), taus))
    quad = compute_interferogram(IntensityRequest(Coherent(F_S), Coherent(f_lo), taus, method="quadrature"))
    assert float(np.max(np.abs(exact.ratios - quad.ratios))) <= 1e-12


def test_auto_never_integrates(monkeypatch):
    # every port pair at every dimension it admits answers under auto with
    # both quadrature entry points of the module disabled
    import mmi.intensity as intensity

    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature called under auto")

    monkeypatch.setattr(intensity, "_spectral_integral", forbidden)
    monkeypatch.setattr(intensity, "bose_weighted_integral", forbidden)
    taus = np.linspace(0.0, 6.0, 31)
    for d in (1, 3):
        for kind in ("vacuum", "fock", "coherent"):
            gram = compute_interferogram(IntensityRequest(*_spectral_ports(kind, F_S, F_LO), taus, d))
            assert gram.metadata["method"] == "exact"
        gram = compute_interferogram(IntensityRequest(Thermal(1.0), Vacuum(), taus, d))
        assert gram.metadata["method"] == "closed_form"
    gram = compute_interferogram(IntensityRequest(Thermal(1.01), Thermal(1.0), taus, 3))
    assert gram.metadata["method"] == "closed_form"


def test_exact_path_plateau_at_very_large_delay():
    # no panel budget: the fringe has died and the ratio sits on (1 + r)/2
    taus = np.array([0.0, 1e4, 1e6])
    gram = compute_interferogram(IntensityRequest(OnePhoton(F_S), OnePhoton(F_LO), taus))
    plateau = 0.5 * (1.0 + fock_intensity(F_LO, F_S, 0.0) / fock_intensity(F_S, F_LO, 0.0))
    assert np.all(np.abs(gram.ratios[1:] - plateau) < 1e-12)


def _mp_moment(mp, spec, tau, d):
    """M_d(τ) of a spectrum's Gaussian, e^{-(ω-ω̄)²/σ²}, by M_0 and the recurrence at mpmath's precision."""
    mean, width, tau = mp.mpf(spec.mean_freq), mp.mpf(spec.width), mp.mpf(tau)
    c = mean + 1j * width**2 * tau / 2
    z = 1j * c / width
    edge = mp.exp(-((mean / width) ** 2))
    gauss = mp.exp(1j * mean * tau - (width * tau) ** 2 / 4)
    moments = [width * mp.sqrt(mp.pi) * (gauss - edge * mp.exp(-z * z) * mp.erfc(-1j * z) / 2)]
    for k in range(d):
        moments.append(c * moments[k] + (k * width**2 / 2 * moments[k - 1] if k else width**2 / 2 * edge))
    return moments[d]


def _mp_ratio(mp, kind, f_s, f_lo, tau, d):
    """The exact ratio of a spectral pair with a common width, term by term; ``tau`` None is τ -> ∞."""

    def intensity(t):
        def port(spec, sign):
            m_t = 0 if t is None else _mp_moment(mp, spec, t, d).real
            return (_mp_moment(mp, spec, 0, d).real + sign * m_t) / _mp_moment(mp, spec, 0, 0).real

        total = port(f_s, 1)
        if kind != "vacuum":
            total += port(f_lo, -1)
        if kind == "coherent" and t is not None:
            # f_s f_lo = e^{-(ω̄_s-ω̄_lo)²/4σ²} e^{-(ω-ω̄₊)²/σ²}/(N_s N_lo), ω̄₊ the mean of the two
            plus = SpectralDistribution((f_s.mean_freq + f_lo.mean_freq) / 2, f_s.width)
            detune = mp.exp(-((mp.mpf(f_s.mean_freq) - f_lo.mean_freq) ** 2) / (4 * mp.mpf(f_s.width) ** 2))
            norms = mp.sqrt(_mp_moment(mp, f_s, 0, 0).real * _mp_moment(mp, f_lo, 0, 0).real)
            total -= 2 * detune / norms * _mp_moment(mp, plus, t, d).imag
        return total

    return intensity(tau) / intensity(0)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("mean_over_width", [0.0, 2.0, 3.0])
def test_exact_path_matches_a_60_digit_reference_at_large_delays(mean_over_width, d):
    # past σ|τ| = 40 the moments are the erfc term alone: there the recurrence would multiply
    # the rounding of M_0 by |c| per step, up to 0.12 of the ratio at d = 3 and σ|τ| = 1e8
    mp = pytest.importorskip("mpmath")
    f_s = SpectralDistribution(mean_over_width, 1.0)
    f_lo = SpectralDistribution(mean_over_width + 0.15, 1.0)
    taus = np.array([10.0, 40.0, 1e3, 1e4, 1e6, 1e8])
    taus = np.concatenate([taus, -taus])
    with mp.workdps(60):
        for kind in ("vacuum", "fock", "coherent"):
            got = compute_interferogram(IntensityRequest(*_spectral_ports(kind, f_s, f_lo), taus, d)).ratios
            for tau, ratio in zip(taus, got):
                assert abs(ratio - float(_mp_ratio(mp, kind, f_s, f_lo, tau, d))) <= 1e-12, (kind, tau)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("mean_over_width", [27.3, 28.0, 300.0])
def test_exact_path_matches_a_60_digit_reference_where_the_w_term_weight_underflows(mean_over_width, d):
    # e^{-(ω̄/σ)²} is exactly 0 in floating point here, so the exact path leaves w out
    mp = pytest.importorskip("mpmath")
    assert math.exp(-mean_over_width * mean_over_width) == 0.0
    f_s = SpectralDistribution(mean_over_width, 1.0)
    f_lo = SpectralDistribution(mean_over_width + 0.15, 1.0)
    taus = np.array([0.05, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0])
    taus = np.concatenate([taus, -taus])
    with mp.workdps(60):
        for kind in ("vacuum", "fock", "coherent"):
            got = compute_interferogram(IntensityRequest(*_spectral_ports(kind, f_s, f_lo), taus, d)).ratios
            for tau, ratio in zip(taus, got):
                assert abs(ratio - float(_mp_ratio(mp, kind, f_s, f_lo, tau, d))) <= 1e-12, (kind, tau)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("mean_over_width", [28.0, 300.0])
def test_exact_path_without_the_w_term_matches_quadrature(mean_over_width, d):
    from mmi.verify import _DUAL_TOL

    f_s = SpectralDistribution(mean_over_width, 1.0)
    f_lo = SpectralDistribution(1.03 * mean_over_width, 1.0)
    taus = np.linspace(-6.0, 6.0, 41)
    for kind in ("vacuum", "fock", "coherent"):
        sig, lo = _spectral_ports(kind, f_s, f_lo)
        auto, quad = (compute_interferogram(IntensityRequest(sig, lo, taus, d, method)).ratios
                      for method in ("auto", "quadrature"))
        assert float(np.max(np.abs(auto - quad))) <= _DUAL_TOL, kind


@pytest.mark.parametrize("d", [1, 3])
def test_exact_path_reaches_its_plateau_at_extreme_delays_without_warnings(d):
    mp = pytest.importorskip("mpmath")
    taus = np.array([1e12, 1e155, 1e300, 1.7e308])
    taus = np.concatenate([taus, -taus])
    with mp.workdps(60), warnings.catch_warnings():
        warnings.simplefilter("error")
        for mean_over_width in (0.0, 2.0, 3.0):
            f_s = SpectralDistribution(mean_over_width, 1.0)
            f_lo = SpectralDistribution(mean_over_width + 0.15, 1.0)
            for kind in ("vacuum", "fock", "coherent"):
                got = compute_interferogram(IntensityRequest(*_spectral_ports(kind, f_s, f_lo), taus, d)).ratios
                limit = float(_mp_ratio(mp, kind, f_s, f_lo, None, d))
                assert np.all(np.abs(got - limit) <= 1e-12), (kind, mean_over_width)


def test_moments_of_near_delays_do_not_depend_on_far_ones_in_the_grid():
    near = np.array([-39.0, -20.0, 0.0, 0.5, 20.0, 39.9]) / 1.3
    far = np.array([40.0, -41.0, 1e300]) / 1.3
    alone = gaussian_fourier_moments(3.0, 1.3, near, 3)
    mixed = gaussian_fourier_moments(3.0, 1.3, np.concatenate([near, far]), 3)
    for a, m in zip(alone, mixed):
        assert np.array_equal(a, m[: near.size])


_CLOSED_FORM_PORTS = {
    "fock": (OnePhoton(F_S), OnePhoton(F_LO)),
    "coherent": (Coherent(F_S), Coherent(F_LO)),
    "one-photon-vacuum": (OnePhoton(F_S), Vacuum()),
    "thermal-vacuum": (Thermal(1.0), Vacuum()),
    "thermal-thermal": (Thermal(1.01), Thermal(1.0)),
}


@pytest.mark.parametrize(
    "scenario,d", [(s, 1) for s in _CLOSED_FORM_PORTS] + [(s, 3) for s in ("thermal-vacuum", "thermal-thermal")]
)
def test_closed_forms_give_their_plateau_at_extreme_delays_without_warnings(scenario, d):
    signal, lo = _CLOSED_FORM_PORTS[scenario]
    taus = np.array([1e100, 1e155, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = compute_interferogram(IntensityRequest(signal, lo, np.concatenate([taus, -taus]), d, "closed_form"))
    # ½(1 + w), w the LO's weight: what each closed form's arithmetic already gives at |τ| = 1e100
    if isinstance(lo, Vacuum):
        w = 0.0
    elif isinstance(lo, Thermal):
        w = (lo.theta / signal.theta) ** (d + 1)
    else:
        w = lo.spectrum.mean_freq / signal.spectrum.mean_freq
    assert np.all(gram.ratios == 0.5 * (1.0 + w))


@pytest.mark.parametrize("tau", [1e20, 1e300, 1.7e308])
@pytest.mark.parametrize("scenario", ["thermal-vacuum", "fock"])
def test_quadrature_past_its_reach_raises_quadrature_error_without_warnings(scenario, tau):
    # a first-pass panel count past 2^63 would wrap negative as an int64; a phase ωτ past the float range is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError):
            compute_interferogram(IntensityRequest(*_CLOSED_FORM_PORTS[scenario], [-tau, 0.0, tau], 3, "quadrature"))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("lo", [Vacuum(), Thermal(1.0)])
def test_thermal_quadrature_past_the_float_range_raises_quadrature_error_without_warnings(lo, d):
    # a = |τ|θ overflows for θ > 1 at the largest float; the closed form reads it as K = 0
    taus = [-1.7e308, 0.0, 1e300, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="oscillation phase beyond the floating-point range"):
            compute_interferogram(IntensityRequest(Thermal(2.0), lo, taus, d, "quadrature"))
        compute_interferogram(IntensityRequest(Thermal(2.0), lo, taus, d, "closed_form"))


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_a_vanished_zero_delay_intensity_is_refused_on_both_spectral_paths_without_warnings(method):
    # at ω̄ = 0 the τ = 0 intensity scales as σ^(d+1), which underflows to 0 at σ = 1e-110
    request = IntensityRequest(OnePhoton(SpectralDistribution(0.0, 1e-110)), Vacuum(), [0.0, 5e109, 1e110], 3, method)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="zero-delay intensity vanished; cannot normalize"):
            compute_interferogram(request)


def test_fock_quadrature_resolves_optical_line_at_zero_delay():
    # a width-1 line at 1e4 once slipped between the first panels' nodes
    # and integrated to 2.7e-53; the exact value is twice the first moment
    f_s = SpectralDistribution(1e4, 1.0)
    got = fock_intensity(f_s, SpectralDistribution(1.05e4, 1.0), 0.0)
    assert abs(got / 2e4 - 1.0) < 1e-12


@pytest.mark.parametrize("mean_over_width", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_optical_quadrature_agrees_with_exact_or_raises(mean_over_width):
    f_s = SpectralDistribution(mean_over_width, 1.0)
    f_lo = SpectralDistribution(mean_over_width * 1.03, 1.0)
    taus = np.linspace(0.0, 6.0, 7)
    for port, quad_fn in ((OnePhoton, fock_intensity), (Coherent, coherent_intensity)):
        exact = compute_interferogram(IntensityRequest(port(f_s), port(f_lo), taus))
        for tau, ratio in zip(taus, exact.ratios):
            try:
                got = quad_fn(f_s, f_lo, tau)
            except QuadratureError:
                continue  # the rounding of cos(omega tau) put 1e-12 out of reach
            assert abs(got - ratio * exact.normalization) <= 1e-9 * exact.normalization, tau


def test_quadrature_error_bounds_a_fock_pair_up_to_optical_frequencies():
    # the stated error holds the phase-rounding floor ε(1 + X|τ|)∫|a|: against a 50-digit
    # reference it bounds the error at every ω̄/σ, and at 1e5 (d = 1) states it within 100×;
    # at d = 3 from ω̄/σ ≈ 240 the members stop at that floor, above TOL, instead of
    # spending the panel budget on rounding (a stop at ε·∫|a| alone takes 287 panels at 1e6)
    mp = pytest.importorskip("mpmath")
    taus = np.linspace(0.0, 6.0, 61)
    with mp.workdps(50):
        for mean, d in ((3.0, 1), (30.0, 1), (1e3, 1), (1e4, 1), (1e5, 1), (1e3, 3), (1e4, 3), (1e6, 3)):
            f_s, f_lo = SpectralDistribution(mean, 1.0), SpectralDistribution(1.03 * mean, 1.0)
            gram = compute_interferogram(IntensityRequest(OnePhoton(f_s), OnePhoton(f_lo), taus, d, "quadrature"))
            observed = max(abs(r - float(_mp_ratio(mp, "fock", f_s, f_lo, t, d))) for t, r in zip(taus, gram.ratios))
            stated = gram.metadata["quadrature"]["max_error"]
            assert observed <= stated, (mean, d)
            assert d == 1 or gram.metadata["quadrature"]["panels"] <= 100, mean
            if (mean, d) == (1e5, 1):
                assert stated <= 100.0 * observed


def test_thermal_quadrature_past_its_reach_is_refused_before_any_evaluation(monkeypatch):
    # 2000 delays up to a = 1.75e6 at d = 3 are 4 chunks, the last past the reach;
    # checked chunk by chunk, the first 3 were integrated before the refusal
    from mmi import quadrature

    calls = []
    eval_panels = quadrature._eval_panels
    monkeypatch.setattr(quadrature, "_eval_panels", lambda *a, **k: calls.append(1) or eval_panels(*a, **k))
    request = IntensityRequest(Thermal(1.0), Vacuum(), np.linspace(0.0, 1.75e6, 2000), 3, "quadrature")
    with pytest.raises(QuadratureError, match="reach"):
        compute_interferogram(request)
    assert calls == []


def _past_the_reach(scenario_ports, reach, d):
    for far in (1.001 * reach, 1e20):
        with pytest.raises(QuadratureError, match="reach"):
            compute_interferogram(IntensityRequest(*scenario_ports, [0.0, far], d, "quadrature"))


@pytest.mark.parametrize("d", [1, 3])
def test_thermal_quadrature_matches_a_50_digit_reference_up_to_its_reach(d):
    # the reach is a phase x·a of 2^26 at the Bose cutoff X; every delay past it is refused
    mp = pytest.importorskip("mpmath")
    reach = PHASE_REACH / _bose_cutoff(d, TOL * bose_integral_constant(d))
    with mp.workdps(50):
        for a in (0.01, 0.5, 3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 0.999 * reach):
            gram = compute_interferogram(IntensityRequest(Thermal(1.0), Vacuum(), [a], d, "quadrature"))
            x = mp.pi * a
            if d == 1:
                k = 3 * (1 / x**2 - 1 / mp.sinh(x) ** 2)
            else:
                k = 15 * ((2 + mp.cosh(2 * x)) / mp.sinh(x) ** 4 - 3 / x**4)
            # the stated error holds the tail past the Bose cutoff
            assert abs(gram.ratios[0] - float((1 + k) / 2)) <= gram.metadata["quadrature"]["max_error"], a
    _past_the_reach((Thermal(1.0), Vacuum()), reach, d)


@pytest.mark.parametrize("d", [1, 3])
def test_thermal_quadrature_error_holds_the_tail_past_the_cutoff(d):
    # at small a the truncated tail, 1.582 Γ(d+1, X) past the Bose cutoff X (5.1e-14 of the
    # ratio at d = 1, 5.4e-14 at d = 3), outweighs the quadrature's own error estimate
    mp = pytest.importorskip("mpmath")
    a = np.array([0.01, 0.1, 1.0])
    j_const = bose_integral_constant(d)
    res = bose_weighted_integral(1.0, d, a, abs_tol=TOL * j_const)
    with mp.workdps(50):
        for ai, value, error in zip(a, res.value / j_const, res.error / j_const):
            x = mp.pi * mp.mpf(float(ai))
            if d == 1:
                k = 3 * (1 / x**2 - 1 / mp.sinh(x) ** 2)
            else:
                k = 15 * ((2 + mp.cosh(2 * x)) / mp.sinh(x) ** 4 - 3 / x**4)
            assert abs(value - float(k)) <= error, ai
    gram = compute_interferogram(IntensityRequest(Thermal(1.0), Vacuum(), a, d, "quadrature"))
    assert gram.metadata["quadrature"]["max_error"] == pytest.approx(0.5 * float(np.max(res.error)) / j_const, rel=1e-12)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind", ["fock", "coherent", "vacuum"])
def test_spectral_quadrature_matches_a_50_digit_reference_up_to_its_reach(kind, d):
    # the reach is a phase ω·τ of 2^26 at the top of the highest window, ω̄ + 9σ
    mp = pytest.importorskip("mpmath")
    reach = PHASE_REACH / max(f.mean_freq + 9.0 * f.width for f in ((F_S,) if kind == "vacuum" else (F_S, F_LO)))
    ports = _spectral_ports(kind, F_S, F_LO)
    with mp.workdps(50):
        for tau in (0.5, 3.0, 10.0, 100.0, 1e4, 1e6, 0.999 * reach):
            gram = compute_interferogram(IntensityRequest(*ports, [tau], d, "quadrature"))
            ref = float(_mp_ratio(mp, kind, F_S, F_LO, tau, d))
            assert abs(gram.ratios[0] - ref) <= gram.metadata["quadrature"]["max_error"], tau
    _past_the_reach(ports, reach, d)


# ---------------------------------------------------------------------------
# batched delay-grid quadrature

# unsorted, with a repeat, τ = 0 and negative delays
MIXED_DELAYS = np.array([2.5, -0.7, 0.0, 6.0, 2.5, 0.05, -4.0, 1.3])


@pytest.mark.parametrize("d", [1, 3])
def test_thermal_vacuum_grid_quadrature_matches_one_delay_calls(d):
    theta = 1.2
    grid = np.asarray(thermal_vacuum_ratio(theta, MIXED_DELAYS, d, "quadrature"))
    single = np.array([thermal_vacuum_ratio(theta, t, d, "quadrature") for t in MIXED_DELAYS])
    assert np.max(np.abs(grid - single)) <= 1e-13
    assert np.max(np.abs(grid - np.asarray(thermal_vacuum_ratio(theta, MIXED_DELAYS, d, "closed_form")))) <= 1e-12


def test_thermal_pair_grid_quadrature_matches_one_delay_calls():
    grid = np.asarray(thermal_thermal_ratio(1.0, 1.07, MIXED_DELAYS, "quadrature"))
    single = np.array([thermal_thermal_ratio(1.0, 1.07, t, "quadrature") for t in MIXED_DELAYS])
    assert np.max(np.abs(grid - single)) <= 1e-13
    assert np.max(np.abs(grid - np.asarray(thermal_thermal_ratio(1.0, 1.07, MIXED_DELAYS, "closed_form")))) <= 1e-12


@pytest.mark.parametrize("d", [1, 3])
def test_bose_integral_grid_errors_meet_each_delay_tolerance(d):
    from mmi.thermal_kernels import bose_integral_constant

    res = bose_weighted_integral(1.3, d, MIXED_DELAYS)
    assert res.value.shape == res.error.shape == MIXED_DELAYS.shape
    abs_tol = 1e-13 * 1.3 ** (d + 1) * bose_integral_constant(d)
    assert np.all(res.error <= np.maximum(abs_tol, 1e-12 * np.abs(res.value)))
    # τ = 0 is the constant kernel
    constant = bose_weighted_integral(1.3, d).value
    assert abs(res.value[2] - constant) <= 1e-13 * constant


@pytest.mark.parametrize("kind", ["vacuum", "fock", "coherent"])
def test_spectral_grid_quadrature_matches_one_delay_calls(kind):
    from mmi.intensity import _spectral_integral

    f_lo = None if kind == "vacuum" else F_LO
    cross = kind == "coherent"
    gram = compute_interferogram(
        IntensityRequest(*_spectral_ports(kind, F_S, F_LO), MIXED_DELAYS, method="quadrature")
    )

    def one(t):
        return _spectral_integral(F_S, f_lo, t, 1, cross)

    norm = one(0.0).value
    assert abs(gram.normalization - norm) <= 1e-13 * norm
    single = np.array([one(t).value / norm for t in MIXED_DELAYS])
    assert np.max(np.abs(gram.ratios - single)) <= 1e-13
    # the two windows merge into one, so each delay meets max(abs_tol, rel_tol |I|)
    res = _spectral_integral(F_S, f_lo, MIXED_DELAYS, 1, cross)
    assert np.all(res.error <= np.maximum(1e-12, 1e-12 * np.abs(res.value)))


def test_grid_larger_than_one_chunk_matches_one_delay_calls(monkeypatch):
    import mmi.quadrature as quadrature

    chunks = []
    refine = quadrature._refine

    def counted(*args, **kwargs):
        chunks.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_refine", counted)
    taus = np.random.default_rng(3).uniform(-10.0, 10.0, 600)
    grid = np.asarray(thermal_vacuum_ratio(1.0, taus, 3, "quadrature"))
    assert 1 < len(chunks) < taus.size
    single = np.array([thermal_vacuum_ratio(1.0, t, 3, "quadrature") for t in taus])
    assert np.max(np.abs(grid - single)) <= 1e-13


def test_quadrature_integrates_each_grid_in_one_call(monkeypatch):
    import mmi.intensity as intensity

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(intensity, "bose_weighted_integral", counting(intensity.bose_weighted_integral))
    monkeypatch.setattr(intensity, "_spectral_integral", counting(intensity._spectral_integral))
    taus = np.linspace(0.0, 6.0, 31)
    for ports in ((Thermal(1.0), Vacuum()), (Thermal(1.05), Thermal(1.0)), (OnePhoton(F_S), OnePhoton(F_LO))):
        gram = compute_interferogram(IntensityRequest(*ports, taus, method="quadrature"))
        counters = gram.metadata["quadrature"]
        assert set(counters) == {"panels", "evaluations", "max_error"}
        assert counters["evaluations"] >= 15 * counters["panels"] > 0
        assert 0.0 <= counters["max_error"] <= 1e-12
        assert "quadrature" not in compute_interferogram(IntensityRequest(*ports, taus)).metadata
    assert calls == ["bose_weighted_integral", "bose_weighted_integral", "_spectral_integral"]


def _thermal_grid_quadrature_peak():
    import tracemalloc

    a = np.linspace(0.01, 10.0, 2000)
    thermal_vacuum_ratio(1.0, a[:3], 3, "quadrature")  # cutoff search and kernel tables
    tracemalloc.start()
    try:
        thermal_vacuum_ratio(1.0, a, 3, "quadrature")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thermal_grid_quadrature_memory_stays_flat():
    # an unchunked node × delay matrix on this grid would take about 60 MB
    assert _thermal_grid_quadrature_peak() < 8 * 2**20


def test_thermal_grid_quadrature_memory_stays_flat_on_four_workers(monkeypatch):
    # the chunks run in one loop on the calling thread, so four CPUs hold no
    # more than one: about 0.67 MiB in flight at any CPU count
    _on_cpus(monkeypatch, 4)
    assert _thermal_grid_quadrature_peak() < 8 * 2**20


# ---------------------------------------------------------------------------
# closed forms on large grids, block by block


def unblocked_thermal_ratio(theta_sig, theta_lo, tau, d):
    """The thermal closed forms in whole-grid passes: ½(1 + K(a)) against
    vacuum (theta_lo None), ½(1 + rᵈ⁺¹ + (K(a₁) - rᵈ⁺¹K(a₀))) against a thermal LO."""
    t = np.abs(tau)
    k1 = unblocked_fringe_deviation(t * theta_sig * math.pi, d)
    if theta_lo is None:
        return 0.5 * (1.0 + k1)
    r = (theta_lo / theta_sig) ** (d + 1)
    k0 = unblocked_fringe_deviation(t * theta_lo * math.pi, d)
    return 0.5 * (1.0 + r + (k1 - r * k0))


THERMAL_PORTS = [("thermal-vacuum", 1.3, None), ("thermal-thermal", 1.3, 0.9)]


def _thermal_request(theta_sig, theta_lo, tau, d, method="auto"):
    lo = Vacuum() if theta_lo is None else Thermal(theta_lo)
    return IntensityRequest(Thermal(theta_sig), lo, tau, dimension=d, method=method)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("scenario, theta_sig, theta_lo", THERMAL_PORTS)
def test_blocked_thermal_closed_forms_are_bit_identical(scenario, theta_sig, theta_lo, n):
    from mmi.intensity import _DIMENSIONS

    # unsorted, of both signs, none exactly 0 (pinned to 1 apart from the formula)
    tau = np.random.default_rng(n).uniform(-6.0, 6.0, n)
    for d in _DIMENSIONS[scenario]:
        gram = compute_interferogram(_thermal_request(theta_sig, theta_lo, tau, d))
        assert np.array_equal(gram.ratios, unblocked_thermal_ratio(theta_sig, theta_lo, tau, d)), d


def test_blocked_thermal_closed_forms_keep_shape_and_scalars():
    tau = np.random.default_rng(2).uniform(-4.0, 4.0, (300, 700))
    assert np.array_equal(thermal_vacuum_ratio(0.8, tau, 1), unblocked_thermal_ratio(0.8, None, tau, 1))
    assert np.array_equal(thermal_vacuum_ratio(0.8, tau, 3), unblocked_thermal_ratio(0.8, None, tau, 3))
    assert np.array_equal(thermal_thermal_ratio(1.7, 0.8, tau), unblocked_thermal_ratio(0.8, 1.7, tau, 3))
    for t in (0.3, -1.7):
        got = (thermal_vacuum_ratio(1.0, t, 3), thermal_thermal_ratio(1.0, 1.4, t))
        assert [type(v) for v in got] == [float, float]
        assert got == (unblocked_thermal_ratio(1.0, None, t, 3), unblocked_thermal_ratio(1.4, 1.0, t, 3))


def _unskipped_faddeeva(z):
    """Weideman's w(z) with a new temporary per Horner step."""
    from mmi.spectra import _W_COEFFS, _W_SCALE

    den = _W_SCALE - 1j * z
    big_z = (_W_SCALE + 1j * z) / den
    p = np.zeros_like(big_z)
    for a in _W_COEFFS:
        p = p * big_z + a
    return 2.0 * p / (den * den) + (1.0 / math.sqrt(math.pi)) / den


def unblocked_moments(mean, width, t, order):
    """Gaussian-Fourier moments M_0..M_order in one pass over the grid, the w term
    evaluated at every near delay however small its weight e^{-(μ/σ)²}."""
    from mmi.spectra import _FAR, _far_moment

    edge = math.exp(-(mean / width) * (mean / width))
    far = np.abs(t) >= _FAR / width
    tn = t[~far]
    c = mean + 0.5j * width * width * tn
    near = [
        width * math.sqrt(math.pi) * np.exp(1j * mean * tn - 0.25 * (width * tn) ** 2)
        - 0.5 * width * math.sqrt(math.pi) * edge * _unskipped_faddeeva(1j * c / width)
    ]
    for k in range(order):
        step = 0.5 * k * width * width * near[k - 1] if k else 0.5 * width * width * edge
        near.append(c * near[k] + step)
    moments = [np.empty(t.shape, complex) for _ in range(order + 1)]
    for n, (out, n_part) in enumerate(zip(moments, near)):
        out[~far], out[far] = n_part, _far_moment(mean, width, t[far], n, edge)
    return moments


def unblocked_spectral_ratios(kind, f_s, f_lo, d, moments):
    """The exact path's ratios and τ = 0 intensity in one pass over [0, τ…];
    ``moments(mean, width)`` gives [M_0..M_3] on that grid."""
    from mmi.intensity import _product_gaussian

    m_s = moments(f_s.mean_freq, f_s.width)[d].real / f_s.normalization**2
    intensity = m_s[0] + m_s
    if kind != "vacuum":
        m_lo = moments(f_lo.mean_freq, f_lo.width)[d].real / f_lo.normalization**2
        intensity += m_lo[0] - m_lo
        if kind == "coherent":
            centre, width, detune = _product_gaussian(f_s.mean_freq, f_s.width, f_lo.mean_freq, f_lo.width)
            height = detune / (f_s.normalization * f_lo.normalization)
            intensity -= 2.0 * height * moments(centre, width)[d].imag
    norm = float(intensity[0])
    return intensity[1:] / norm, norm


# (ω̄_s/σ, ω̄_lo/σ, σ_lo/σ, n): an LO detuned by 1 % at the common width σ at every grid size,
# and at the sizes below 1e6 a live signal line beside a skipped LO line (weight e^{-992} = 0)
# and a live product line, so that the w values of one gathered call are split unevenly
SPECTRAL_EXACT_CASES = [
    pytest.param(r, 1.01 * r, 1.0, n, id=f"{r}-{n}")
    for r in (2.85, 3.0, 6.0, 27.0, 27.3, 28.0, 300.0, 1e4)
    for n in BLOCK_SIZES
] + [pytest.param(3.0, 3.15, 0.1, n, id=f"mixed-{n}") for n in BLOCK_SIZES if n < 1_000_000]


@pytest.mark.parametrize("mean_over_width, lo_mean_over_width, lo_width, n", SPECTRAL_EXACT_CASES)
def test_blocked_spectral_exact_path_is_bit_identical(mean_over_width, lo_mean_over_width, lo_width, n):
    # the w term is left out once e^{-(ω̄/σ)²} is exactly 0 (from 27.3); unsorted delays
    # of both signs, a third of them at σ|τ| >= 40, none exactly 0 (pinned to 1 apart from the formula)
    width = 1.3
    f_s = SpectralDistribution(mean_over_width * width, width)
    f_lo = SpectralDistribution(lo_mean_over_width * width, lo_width * width)
    tau = np.random.default_rng(n).uniform(-60.0, 60.0, n) / width
    grid = np.concatenate([[0.0], tau])
    cache = {}

    def moments(mean, w):
        if (mean, w) not in cache:
            cache[mean, w] = unblocked_moments(mean, w, grid, 3)
        return cache[mean, w]

    for d in (1, 3):
        for kind in ("vacuum", "fock", "coherent"):
            gram = compute_interferogram(IntensityRequest(*_spectral_ports(kind, f_s, f_lo), tau, d))
            ratios, norm = unblocked_spectral_ratios(kind, f_s, f_lo, d, moments)
            assert np.array_equal(gram.ratios, ratios), (kind, d)
            assert gram.normalization == norm, (kind, d)


@pytest.mark.parametrize("kind, lines", [("fock", 2), ("coherent", 3)])
def test_spectral_exact_path_calls_w_once_per_block_for_all_lines(kind, lines, monkeypatch):
    import mmi.spectra

    sizes = []
    faddeeva = mmi.spectra._faddeeva

    def counting(z):
        sizes.append(z.size)
        return faddeeva(z)

    monkeypatch.setattr(mmi.spectra, "_faddeeva", counting)
    _on_cpus(monkeypatch, 1)
    ports = _spectral_ports(kind, F_S, F_LO)
    compute_interferogram(IntensityRequest(*ports, np.linspace(0.0, 6.0, 121)))
    assert sizes == [lines * 122]
    n = 2 * BLOCK + 1
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        sizes.clear()
        compute_interferogram(IntensityRequest(*ports, np.linspace(0.0, 6.0, n)))
        step = BLOCK // (cpus * lines)  # delays per block, each block evaluated as [0, τ…]
        assert len(sizes) == -(-n // step), cpus
        assert max(sizes) == lines * (step + 1), cpus
    sizes.clear()
    far_ports = _spectral_ports(kind, SpectralDistribution(300.0, 1.0), SpectralDistribution(309.0, 1.0))
    compute_interferogram(IntensityRequest(*far_ports, np.linspace(0.0, 6.0, 121)))
    assert sizes == []


@pytest.mark.parametrize("kind, d", [("fock", 1), ("coherent", 3), ("vacuum", 1)])
def test_spectral_exact_path_memory_is_bounded_by_blocks(kind, d):
    # the ratios and the interferogram's copy of the delays are 7.6 MiB each; whole-grid
    # moments took the peak to 145.9 MiB (Fock), 153.5 MiB (coherent) and 130.7 MiB (vacuum)
    ports = _spectral_ports(kind, F_S, F_LO)
    assert _grid_peak(lambda tau: IntensityRequest(*ports, tau, d)) <= 24 * 2**20


@pytest.mark.parametrize("cpus", [1, 5])
@pytest.mark.parametrize("kind", ["fock", "coherent", "vacuum"])
def test_spectral_closed_forms_memory_is_bounded_on_any_cpu_count(monkeypatch, kind, cpus):
    # whole-grid closed forms took the peak to 53.4 MiB (Fock), 61.0 MiB (coherent)
    # and 30.5 MiB (vacuum); the walk holds them where the thermal closed forms are
    _on_cpus(monkeypatch, cpus)
    ports = _spectral_ports(kind, F_S, F_LO)
    assert _grid_peak(lambda tau: IntensityRequest(*ports, tau, method="closed_form")) <= 18 * 2**20


def _grid_peak(request_on):
    """The tracemalloc peak of ``compute_interferogram(request_on(τ))`` on 1e6 delays,
    plus its ratios where they are mapped from the OS, which tracemalloc does not see."""
    import tracemalloc

    request = request_on(np.linspace(-8.0, 8.0, 1_000_000))
    compute_interferogram(request_on([0.5]))  # kernel tables
    tracemalloc.start()
    try:
        base = compute_interferogram(request).ratios
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.obj if isinstance(base, memoryview) else base.base
    return peak + (len(base) if isinstance(base, mmap.mmap) else 0)


def _thermal_closed_form_peak(theta_lo):
    return _grid_peak(lambda tau: _thermal_request(1.3, theta_lo, tau, None))


@pytest.mark.parametrize("theta_lo, bound_mib", [(0.9, 32), (None, 24)])
def test_thermal_closed_form_memory_is_bounded_by_blocks(theta_lo, bound_mib):
    # the ratios and the interferogram's copy of the delays are 7.6 MiB each;
    # whole-grid temporaries took the peak to 68.9 MiB (pair) and 61.8 MiB
    assert _thermal_closed_form_peak(theta_lo) <= bound_mib * 2**20


@pytest.mark.parametrize("cpus", [1, 5])
@pytest.mark.parametrize("theta_lo", [0.9, None], ids=["pair", "vacuum"])
def test_thermal_closed_form_memory_is_bounded_on_any_cpu_count(monkeypatch, theta_lo, cpus):
    # at most BLOCK delays in flight on all workers together; a whole-grid |τ|
    # and LO a-grid took the pair to 25.5 MiB
    _on_cpus(monkeypatch, cpus)
    assert _thermal_closed_form_peak(theta_lo) <= 18 * 2**20


# ---------------------------------------------------------------------------
# quadrature chunks and closed-form blocks on every CPU


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("theta_lo, d", [(None, 1), (None, 3), (0.9, 3), (0.9, 1)])
def test_thermal_quadrature_is_bitwise_independent_of_cpu_count(monkeypatch, theta_lo, d):
    # the chunk boundaries do not depend on the number of workers, and each
    # chunk writes its own delays
    from mmi import quadrature

    chunks = []
    refine = quadrature._refine
    monkeypatch.setattr(quadrature, "_refine", lambda *a, **k: chunks.append(1) or refine(*a, **k))
    tau = np.random.default_rng(d).uniform(-6.0, 6.0, 3000)  # unsorted, of both signs
    request = _thermal_request(1.1, theta_lo, tau, d, "quadrature")
    _on_cpus(monkeypatch, 1)
    ref = compute_interferogram(request)
    assert len(chunks) >= 5
    _on_cpus(monkeypatch, 5)
    got = compute_interferogram(request)
    assert np.array_equal(got.ratios, ref.ratios)
    assert got.metadata["quadrature"] == ref.metadata["quadrature"]


@pytest.mark.parametrize("cpus", [1, 5])
@pytest.mark.parametrize("scenario, theta_sig, theta_lo", THERMAL_PORTS)
def test_thermal_closed_forms_are_bitwise_independent_of_cpu_count(monkeypatch, scenario, theta_sig, theta_lo, cpus):
    from mmi.intensity import _DIMENSIONS

    _on_cpus(monkeypatch, cpus)
    tau = np.random.default_rng(cpus).uniform(-6.0, 6.0, 2 * BLOCK + 1)
    for d in _DIMENSIONS[scenario]:
        gram = compute_interferogram(_thermal_request(theta_sig, theta_lo, tau, d))
        assert np.array_equal(gram.ratios, unblocked_thermal_ratio(theta_sig, theta_lo, tau, d)), d


@pytest.mark.parametrize("cpus", [1, 5])
@pytest.mark.parametrize("kind", ["fock", "coherent", "vacuum"])
def test_spectral_paths_are_bitwise_independent_of_cpu_count(monkeypatch, kind, cpus):
    from mmi.intensity import _ENVELOPE_REACH, _closed_pair_ratio

    _on_cpus(monkeypatch, cpus)
    ports = _spectral_ports(kind, F_S, F_LO)
    # unsorted, of both signs, past σ|τ| = 40 and past the closed forms' clip, none exactly 0
    tau = np.random.default_rng(cpus).uniform(-80.0, 80.0, 2 * BLOCK + 1)
    grid = np.concatenate([[0.0], tau])
    moments = functools.cache(lambda mean, width: unblocked_moments(mean, width, grid, 3))
    for d in (1, 3):
        gram = compute_interferogram(IntensityRequest(*ports, tau, d))
        ratios, norm = unblocked_spectral_ratios(kind, F_S, F_LO, d, moments)
        assert np.array_equal(gram.ratios, ratios), d
        assert gram.normalization == norm, d
    lo = (None, None) if kind == "vacuum" else (F_LO.mean_freq, F_LO.width)
    clipped = np.clip(tau, -_ENVELOPE_REACH, _ENVELOPE_REACH)  # both widths are 1
    closed = _closed_pair_ratio(F_S.mean_freq, F_S.width, *lo, clipped, kind == "coherent")
    assert np.array_equal(compute_interferogram(IntensityRequest(*ports, tau, method="closed_form")).ratios, closed)


@pytest.mark.parametrize("cpus", [1, 5])
def test_the_kernel_is_handed_at_most_one_block(monkeypatch, cpus):
    # fringe_deviation takes its input whole; the walk bounds what the library hands it
    import mmi.intensity

    sizes = []
    kernel = mmi.intensity.fringe_deviation
    monkeypatch.setattr(mmi.intensity, "fringe_deviation", lambda x, d: sizes.append(np.size(x)) or kernel(x, d))
    _on_cpus(monkeypatch, cpus)
    compute_interferogram(_thermal_request(1.3, 0.9, np.linspace(-8.0, 8.0, 1_000_000), None))
    assert sum(sizes) == 2_000_000  # a signal and an LO a-grid per delay
    assert max(sizes) <= BLOCK


def test_thermal_quadrature_raises_the_first_failing_chunk_on_any_cpu_count(monkeypatch):
    # a budget of 24 panels fails the fifth of eleven chunks; the chunks run in one
    # loop on the calling thread, so five CPUs raise the same first failure as one
    from mmi import quadrature

    monkeypatch.setattr(quadrature, "MAX_PANELS", 24)
    messages = []
    for cpus in (1, 5):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(QuadratureError) as err:
            thermal_thermal_ratio(1.0, 1.1, np.linspace(0.01, 6.0, 3000), "quadrature")
        messages.append(str(err.value))
    assert messages[0] == messages[1]


THERMAL_PATHS = {
    "quadrature": lambda: thermal_thermal_ratio(1.0, 1.1, np.linspace(0.01, 6.0, 300), "quadrature"),
    "closed_form": lambda: thermal_vacuum_ratio(1.0, np.linspace(-6.0, 6.0, 2 * BLOCK + 1), 3),
}


@pytest.mark.parametrize("path", THERMAL_PATHS)
def test_thermal_paths_on_one_cpu_start_no_thread(monkeypatch, path):
    # one CPU runs its jobs on the calling thread; on two the closed form starts
    # workers in an empty pool, while the quadrature chunks run in one loop on
    # the calling thread (on two threads they lost more to the GIL than they gained)
    monkeypatch.setattr(_workers, "_inboxes", [])
    start = threading.Thread.start
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    _on_cpus(monkeypatch, 2)
    THERMAL_PATHS[path]()
    assert bool(started) == (path == "closed_form")

    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    _on_cpus(monkeypatch, 1)
    THERMAL_PATHS[path]()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("theta_lo", [0.9, None], ids=["pair", "vacuum"])
def test_thermal_closed_forms_warn_from_no_worker_thread(monkeypatch, theta_lo, d):
    # np.errstate does not reach a new thread, so each block enters its own:
    # a-grids past the float range are K = 0, the plateau, with no warning
    _on_cpus(monkeypatch, 5)
    tau = np.linspace(0.0, 1.7e308, 2 * BLOCK + 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = compute_interferogram(_thermal_request(1.3, theta_lo, tau, d)).ratios
    w = 0.0 if theta_lo is None else (theta_lo / 1.3) ** (d + 1)
    assert ratios[0] == 1.0
    assert np.all(ratios[1:] == 0.5 * (1.0 + w))
