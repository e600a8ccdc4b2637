import math

import numpy as np
import pytest

from mmi.thermal_kernels import (
    SERIES_SWITCH,
    bose_integral_constant,
    fringe_deviation,
    zeta_even,
)
from oracles import decimal_fringe_deviation


def test_zeta_even_known_values():
    assert abs(zeta_even(2) - math.pi**2 / 6.0) < 1e-15
    assert abs(zeta_even(4) - math.pi**4 / 90.0) < 1e-15
    assert abs(zeta_even(6) - math.pi**6 / 945.0) < 1e-14


def test_zeta_even_rejects_odd_or_nonpositive():
    for bad in (0, -2, 3):
        with pytest.raises(ValueError):
            zeta_even(bad)


def test_bose_constants():
    assert abs(bose_integral_constant(1) - math.pi**2 / 6.0) < 1e-15
    assert abs(bose_integral_constant(3) - math.pi**4 / 15.0) < 1e-13
    for d in (0, 2, 2.5, -1):
        with pytest.raises(ValueError):
            bose_integral_constant(d)


def test_kernel_against_extended_precision_naive_form():
    # the e^{-2x} branch of the fringe deviation against the naive Decimal
    # evaluation, which is exact at these arguments; x = 20 is where
    # double-precision cosh/sinh^4 already juggle ~1e17 magnitudes
    for x in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        ref = decimal_fringe_deviation(x)
        got = fringe_deviation(x)
        assert abs(got - ref) / abs(ref) < 1e-12, x


def test_kernel_survives_where_naive_cosh_overflows():
    # cosh(2x) overflows double precision beyond 2x ~ 710; the fringe
    # deviation must stay finite there, at its -45/x^4 asymptote
    with pytest.raises(OverflowError):
        math.cosh(2.0 * 400.0)
    with np.errstate(over="raise"):
        val = fringe_deviation(400.0)
    assert np.isfinite(val)
    assert abs(val + 45.0 / 400.0**4) <= 1e-15 * 45.0 / 400.0**4


def test_fringe_deviation_limits():
    # x -> 0 limit pins the zero-delay normalization
    assert fringe_deviation(0.0) == 1.0
    assert abs(fringe_deviation(1e-8) - 1.0) < 1e-14
    # large x: dominated by the subtracted power law
    x = 30.0
    assert abs(fringe_deviation(x) + 45.0 / x**4) < 1e-12


def test_fringe_deviation_against_extended_precision():
    for x in (0.05, 0.3, 0.7, 0.999, 1.0, 1.5, 3.0, 8.0):
        ref = decimal_fringe_deviation(x)
        got = fringe_deviation(x)
        assert abs(got - ref) < 1e-13 + 1e-12 * abs(ref), x


def test_series_and_direct_branches_agree_at_switch():
    # the branch boundary is pinned: both branch implementations must agree
    # to 1e-12 in a neighbourhood of the switch point
    from mmi.thermal_kernels import _deviation_series, _kernel_exp

    x = np.linspace(0.8 * SERIES_SWITCH, 1.2 * SERIES_SWITCH, 41)
    series = _deviation_series(x)
    direct = 15.0 * _kernel_exp(x) - 45.0 / x**4
    assert float(np.max(np.abs(series - direct))) < 1e-12


def test_domain_errors():
    with pytest.raises(ValueError):
        fringe_deviation(-0.5)
