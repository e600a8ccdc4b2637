"""Property tests of every scenario through ``compute_interferogram``.

Drawn parameters cover the five port pairs at both supported dimensions;
examples are derandomized so the suite is reproducible.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mmi.intensity import IntensityRequest, compute_interferogram  # noqa: E402
from mmi.quadrature import QuadratureError  # noqa: E402
from mmi.spectra import SpectralDistribution  # noqa: E402
from mmi.states import Coherent, OnePhoton, Thermal, Vacuum  # noqa: E402
from oracles import riemann_overlap  # noqa: E402

SCENARIOS = ("fock", "coherent", "one-photon-vacuum", "thermal-vacuum", "thermal-thermal")
EVEN_SCENARIOS = ("fock", "one-photon-vacuum", "thermal-vacuum", "thermal-thermal")
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


@st.composite
def scenarios(draw, name):
    """(signal, lo, dimension, delay scale) of the named scenario, parameters drawn."""
    if name.startswith("thermal"):
        theta = draw(st.floats(0.3, 3.0))
        if name == "thermal-thermal":
            return Thermal(theta * draw(st.floats(0.8, 1.25))), Thermal(theta), None, 1.0 / theta
        return Thermal(theta), Vacuum(), draw(st.sampled_from((1, 3))), 1.0 / theta
    width = draw(st.floats(0.5, 2.0))
    f_s = SpectralDistribution(width * draw(st.floats(0.0, 10.0)), width)
    d = draw(st.sampled_from((1, 3)))
    if name == "one-photon-vacuum":
        return OnePhoton(f_s), Vacuum(), d, 1.0 / width
    detune = draw(st.floats(-0.1, 0.1))
    f_lo = SpectralDistribution(f_s.mean_freq * (1.0 + detune), width * draw(st.floats(0.8, 1.25)))
    port = OnePhoton if name == "fock" else Coherent
    return port(f_s), port(f_lo), d, 1.0 / width


delays = st.lists(st.floats(0.0, 8.0), min_size=1, max_size=4)


def _ratios(scenario, taus, method="auto"):
    signal, lo, d, _ = scenario
    return compute_interferogram(IntensityRequest(signal, lo, taus, d, method)).ratios


@pytest.mark.parametrize("name", SCENARIOS)
@PROPERTY_SETTINGS
@given(data=st.data(), units=delays)
def test_ratio_at_zero_delay_is_one(name, data, units):
    scenario = data.draw(scenarios(name))
    taus = np.array([0.0, *units]) * scenario[3]
    assert _ratios(scenario, taus)[0] == 1.0


@pytest.mark.parametrize("name", EVEN_SCENARIOS)
@PROPERTY_SETTINGS
@given(data=st.data(), units=delays)
def test_even_in_delay(name, data, units):
    scenario = data.draw(scenarios(name))
    taus = np.array(units) * scenario[3]
    assert np.max(np.abs(_ratios(scenario, taus) - _ratios(scenario, -taus))) <= 1e-12


@PROPERTY_SETTINGS
@given(st.floats(0.3, 3.0), delays, st.sampled_from(("auto", "quadrature")))
def test_equal_temperatures_give_unity(theta, units, method):
    taus = np.array(units) / theta
    gram = compute_interferogram(IntensityRequest(Thermal(theta), Thermal(theta), taus, method=method))
    assert np.all(gram.ratios == 1.0)


@pytest.mark.parametrize("name", SCENARIOS)
@PROPERTY_SETTINGS
@given(data=st.data(), units=delays)
def test_auto_agrees_with_quadrature(name, data, units):
    scenario = data.draw(scenarios(name))
    taus = np.array(units) * scenario[3]
    try:
        quad = _ratios(scenario, taus, "quadrature")
    except QuadratureError:
        return  # only where quadrature converges
    assert np.max(np.abs(_ratios(scenario, taus) - quad)) <= 1e-9


@pytest.mark.parametrize("name", ("fock", "coherent", "one-photon-vacuum"))
@PROPERTY_SETTINGS
@example(mean_s=0.05, width_s=1.0, mean_lo=6.0, width_lo=3.0, d=3, units=[0.379])
@given(
    mean_s=st.floats(0.0, 20.0), width_s=st.floats(0.5, 3.0),
    mean_lo=st.floats(0.0, 20.0), width_lo=st.floats(0.5, 3.0),
    d=st.sampled_from((1, 3)), units=delays,
)
def test_ratio_within_moment_bound(name, mean_s, width_s, mean_lo, width_lo, d, units):
    # 0 <= ratio <= 1 + m_lo/m_s with m = ∫₀^∞ ω^d f² dω: Cauchy-Schwarz on
    # the detection integrand, for both pairs; against vacuum m_lo = 0.  The
    # example reaches 431, far above 1 + ω̄_lo/ω̄_s = 121.
    f_s = SpectralDistribution(mean_s, width_s)
    if name == "one-photon-vacuum":
        signal, lo, m_lo = OnePhoton(f_s), Vacuum(), 0.0
    else:
        port = OnePhoton if name == "fock" else Coherent
        signal, lo = port(f_s), port(SpectralDistribution(mean_lo, width_lo))
        m_lo = riemann_overlap(mean_lo, width_lo, mean_lo, width_lo, d)
    m_s = riemann_overlap(mean_s, width_s, mean_s, width_s, d)
    taus = np.array(units) / width_s
    ratios = compute_interferogram(IntensityRequest(signal, lo, taus, d)).ratios
    assert np.all(ratios >= 0.0)
    assert np.all(ratios <= (1.0 + m_lo / m_s) * (1.0 + 1e-9))
