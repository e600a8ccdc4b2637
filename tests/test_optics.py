"""The balanced beam splitter behind the detection integrand of mmi.intensity.

The lossless 50:50 splitter maps (a_lo, a_signal) through
U = [[1, i], [i, 1]]/√2.  Traversing it, the two delayed arms and it again
gives the detector the row ½(1 - e^{iωτ}), (i/2)(1 + e^{iωτ}), whose weights
(1 ∓ cos ωτ)/2 and cross weight -sin ωτ are the ones mmi.intensity
integrates.  These tests check that integrand against the splitter and its
port behaviour: bright signal port at τ = 0, exchanged ports at ωτ = π, and
a cross term odd in τ.
"""

import math

import numpy as np
import pytest

from mmi.intensity import IntensityRequest, coherent_intensity, compute_interferogram, fock_intensity
from mmi.spectra import SpectralDistribution
from mmi.states import OnePhoton, Vacuum

F_S = SpectralDistribution(3.0, 1.0)
F_LO = SpectralDistribution(3.15, 1.1)


def _intensity(signal, lo, tau, method="auto"):
    """Unnormalized ⟨I⟩(τ) on the module's internal scale."""
    got = compute_interferogram(IntensityRequest(signal, lo, [tau], method=method))
    return got.ratios[0] * got.normalization


def test_balanced_splitter_matrix():
    u = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-15)

    omega = np.linspace(0.0, 12.0, 24001)
    for tau in (0.0, 0.4, 1.3, -2.2):
        phase = np.exp(1j * omega * tau)
        # row 0 of U diag(1, e^{iωτ}) U acting on (a_lo, a_signal)
        c_lo = u[0, 0] * u[0, 0] + u[0, 1] * phase * u[1, 0]
        c_s = u[0, 0] * u[0, 1] + u[0, 1] * phase * u[1, 1]
        assert np.allclose(2.0 * abs(c_s) ** 2, 1.0 + np.cos(omega * tau), atol=1e-15)
        assert np.allclose(2.0 * abs(c_lo) ** 2, 1.0 - np.cos(omega * tau), atol=1e-15)
        assert np.allclose(4.0 * (c_lo.conj() * c_s).real, -2.0 * np.sin(omega * tau), atol=1e-15)

        # 2ω|E|² integrated over the spectra is the detected intensity
        a_s, a_lo = F_S.amplitude(omega), F_LO.amplitude(omega)
        fock = np.trapezoid(2.0 * omega * (abs(c_s * a_s) ** 2 + abs(c_lo * a_lo) ** 2), omega)
        field = np.trapezoid(2.0 * omega * abs(c_s * a_s + c_lo * a_lo) ** 2, omega)
        assert abs(fock - fock_intensity(F_S, F_LO, tau)) < 1e-9 * fock
        assert abs(field - coherent_intensity(F_S, F_LO, tau)) < 1e-9 * fock


def test_balanced_kernel_bright_and_dark_port():
    # at τ = 0 the detector sees the whole signal port and none of the LO
    alone = _intensity(OnePhoton(F_S), Vacuum(), 0.0, method="quadrature")
    for f_lo in (F_LO, SpectralDistribution(0.5, 0.2), SpectralDistribution(9.0, 2.0)):
        assert abs(fock_intensity(F_S, f_lo, 0.0) - alone) < 1e-10
        assert abs(coherent_intensity(F_S, f_lo, 0.0) - alone) < 1e-10


def test_balanced_kernel_fringe_null():
    # ω̄τ = π on a narrow line: the ports exchange roles.  Against vacuum the
    # ratio falls to ½(1 - e^{-(στ)²/4}); the dropped sin ω̄τ term is 0 there.
    narrow = SpectralDistribution(1.0, 1e-4)
    null = compute_interferogram(IntensityRequest(OnePhoton(narrow), Vacuum(), [math.pi])).ratios[0]
    assert abs(null + 0.5 * math.expm1(-((1e-4 * math.pi) ** 2) / 4.0)) < 1e-15
    assert null < 2e-8

    # with a one-photon LO the detector sees the LO port as if at τ = 0
    narrow_lo = SpectralDistribution(1.0, 2e-4)
    exchanged = _intensity(OnePhoton(narrow), OnePhoton(narrow_lo), math.pi)
    lo_bright = _intensity(OnePhoton(narrow_lo), OnePhoton(narrow), 0.0)
    assert abs(exchanged - lo_bright) < 1e-6 * lo_bright


def test_cross_weight_odd_in_tau():
    for tau in (0.3, 0.9, 2.7):
        plus = coherent_intensity(F_S, F_LO, tau) - fock_intensity(F_S, F_LO, tau)
        minus = coherent_intensity(F_S, F_LO, -tau) - fock_intensity(F_S, F_LO, -tau)
        assert abs(plus) > 1e-3
        assert abs(plus + minus) < 1e-10


def test_delay_line_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fock_intensity(F_S, F_LO, bad)
        with pytest.raises(ValueError):
            coherent_intensity(F_S, F_LO, bad)
