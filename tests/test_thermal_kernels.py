import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mmi import thermal_kernels
from mmi.intensity import BLOCK
from mmi.thermal_kernels import (
    SERIES_SWITCH,
    bose_integral_constant,
    fringe_deviation,
)
from oracles import decimal_fringe_deviation


def test_bose_integral_constant_known_values():
    # J(d) = d! ζ(d + 1): ζ(2) = π²/6, ζ(4) = π⁴/90, ζ(6) = π⁶/945
    assert abs(bose_integral_constant(1) - math.pi**2 / 6.0) < 1e-15
    assert abs(bose_integral_constant(3) / 6.0 - math.pi**4 / 90.0) < 1e-15
    assert abs(bose_integral_constant(5) / 120.0 - math.pi**6 / 945.0) < 1e-14
    assert bose_integral_constant(5) == pytest.approx(8.0 * math.pi**6 / 63.0, rel=1e-15)


def test_bernoulli_table_equals_the_defining_recurrence():
    def recurrence(n_max):
        bern = [Fraction(1)]
        for n in range(1, n_max + 1):
            bern.append(-sum(math.comb(n + 1, k) * bern[k] for k in range(n)) / (n + 1))
        return bern

    table = recurrence(54)
    assert thermal_kernels._BERNOULLI == table
    for n_max in (0, 1, 2, 3, 10, 11):
        assert thermal_kernels._bernoulli(n_max) == table[:n_max + 1]


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


def test_an_overflowing_pole_term_reads_zero_without_a_warning():
    # x^(d+1) (K) and x^(d+2) (K') overflow to inf here, and the pole term takes its limit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fringe_deviation(1e78, 3) == 0.0
        assert fringe_deviation(1e155, 1) == 0.0
        for d in (1, 3):
            assert np.all(thermal_kernels._fringe_slope(np.array([1e103, 1e155, np.inf]), d) == 0.0), d


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


def test_one_dimensional_kernel_against_extended_precision():
    # K_1 = 3(1/x^2 - 1/sinh^2 x) at the x values of the d = 3 checks
    for x in (0.05, 0.3, 0.7, 0.999, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 20.0, 50.0):
        ref = decimal_fringe_deviation(x, 1)
        got = fringe_deviation(x, 1)
        assert abs(got - ref) <= 1e-12 * abs(ref), x
    assert fringe_deviation(0.0, 1) == 1.0
    with np.errstate(over="raise"):
        val = fringe_deviation(400.0, 1)
    assert np.isfinite(val)
    assert abs(val - 3.0 / 400.0**2) <= 1e-15 * 3.0 / 400.0**2


def test_series_and_direct_branches_agree_at_switch():
    # the branch boundary is pinned: both branch implementations must agree
    # to 1e-12 in a neighbourhood of the switch point, at d = 1 and 3
    from mmi.thermal_kernels import _exponential_branch, _kernel, _series_branch

    x = np.linspace(0.8 * SERIES_SWITCH, 1.2 * SERIES_SWITCH, 41)
    for d in (1, 3):
        gap = _series_branch(x, _kernel(d)) - _exponential_branch(x, _kernel(d))
        assert float(np.max(np.abs(gap))) < 1e-12, d


def test_kernel_generator_matches_the_coth_derivatives():
    # K_3 in the e^{-2x} form is 15(8q(1+4q+q^2)/(1-q)^4) - 45/x^4, and K_1
    # is 3/x^2 - 12q/(1-q)^2, q = e^{-2x}: the generated pieces reproduce both;
    # one order up, K_3' = -240q(1+11q+11q^2+q^3)/(1-q)^5 + 180/x^5 and
    # K_1' = 24q(1+q)/(1-q)^3 - 6/x^3
    from mmi.thermal_kernels import _kernel

    assert _kernel(3)[2:] == (15.0, 8.0, (1.0, 4.0, 1.0), -45.0, 4)
    assert _kernel(1)[2:] == (6.0, -2.0, (1.0,), 3.0, 2)
    assert _kernel(3, True)[2:] == (15.0, -16.0, (1.0, 11.0, 11.0, 1.0), 180.0, 5)
    assert _kernel(1, True)[2:] == (6.0, 4.0, (1.0, 1.0), -6.0, 3)


def test_fringe_identity_to_thirty_digits():
    # ∫₀^∞ x^d cos(ax)/(e^x - 1) dx = (-1)^k S^(d)(a), d = 2k + 1,
    # S(a) = (π/2) coth πa - 1/(2a), by oscillatory quadrature in mpmath;
    # then the float kernel, on both branches, against the right-hand side
    mpmath = pytest.importorskip("mpmath")

    def s(t):
        return mpmath.pi / 2 * mpmath.coth(mpmath.pi * t) - 1 / (2 * t)

    with mpmath.workdps(35):
        for d in (1, 3, 5, 7):
            a = mpmath.mpf("0.7")
            lhs = mpmath.quadosc(lambda x: x**d * mpmath.cos(a * x) / mpmath.expm1(x), [0, mpmath.inf], omega=a)
            rhs = (-1) ** (d // 2) * mpmath.diff(s, a, d)
            assert abs(lhs - rhs) <= mpmath.mpf(10) ** -30 * abs(rhs), d
            j_const = mpmath.factorial(d) * mpmath.zeta(d + 1)
            for a in (mpmath.mpf("0.2"), mpmath.mpf("0.7")):  # x = πa below and above the switch
                want = float((-1) ** (d // 2) * mpmath.diff(s, a, d) / j_const)
                assert abs(fringe_deviation(float(mpmath.pi * a), d) - want) <= 1e-11 * abs(want), (d, a)


@pytest.mark.parametrize("d", [1, 3])
def test_fringe_slope_against_forty_digit_references(d):
    # K_d' against the derivative of the closed form at 40 digits on (0, 40], both branches
    from mmi.thermal_kernels import _exponential_branch, _fringe_slope, _kernel, _series_branch

    mpmath = pytest.importorskip("mpmath")

    def closed(x):
        if d == 1:
            return 3 * (1 / x**2 - 1 / mpmath.sinh(x) ** 2)
        return 15 * ((2 + mpmath.cosh(2 * x)) / mpmath.sinh(x) ** 4 - 3 / x**4)

    x = np.concatenate([np.geomspace(1e-4, 0.99, 40), [np.nextafter(SERIES_SWITCH, 0.0), SERIES_SWITCH],
                        np.linspace(1.01, 40.0, 80)])
    got = _fringe_slope(x, d)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.diff(closed, mpmath.mpf(float(v)))) for v in x])
    assert float(np.max(np.abs(got - want))) <= 1e-13
    # at the switch the exponential branch sums two terms near its pole term, -(d + 1)·pole
    # (180 at d = 3), so the branches meet within a few of that term's ulps, not the result's
    kernel = _kernel(d, True)
    at_switch = np.array([SERIES_SWITCH])
    gap = abs(_series_branch(at_switch, kernel) - _exponential_branch(at_switch, kernel))[0]
    assert gap <= 4.0 * np.spacing(abs(kernel[5]))
    assert _fringe_slope(np.array([0.0]), d)[0] == 0.0
    with np.errstate(over="ignore"):
        assert _fringe_slope(np.array([1e300, np.inf]), d).tolist() == [0.0, 0.0]


def test_domain_errors():
    with pytest.raises(ValueError):
        fringe_deviation(-0.5)
    with pytest.raises(ValueError):
        fringe_deviation(math.nan)
    with pytest.raises(ValueError):
        fringe_deviation(np.array([0.5, math.nan]))
    assert fringe_deviation(math.inf) == 0.0  # the far tail is in the domain
    for d in (2, 0, -1, 2.5):
        with pytest.raises(ValueError):
            fringe_deviation(1.0, d)


def test_stated_error_past_the_bernoulli_table():
    # B_54 is the last Bernoulli number held: J(55) needs ζ(56), and the
    # kernel is built for odd d <= 7 only
    assert bose_integral_constant(53) == pytest.approx(math.factorial(53), rel=1e-13)
    with pytest.raises(ValueError, match="Bernoulli table"):
        bose_integral_constant(55)
    with pytest.raises(ValueError, match="odd d <= 7"):
        fringe_deviation(1.0, 55)
    with pytest.raises(ValueError):
        fringe_deviation(1.0, 9)


# ---------------------------------------------------------------------------
# one pass over any grid: the sizes around the blocks of intensity's walk

BLOCK_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1_000_000]


def unblocked_fringe_deviation(x, d):
    """K_d in one pass over the whole array: the same two branches, masked once."""
    from mmi.thermal_kernels import _exponential_branch, _kernel, _series_branch

    arr = np.asarray(x, dtype=float)
    out = np.empty_like(arr)
    small = arr < SERIES_SWITCH
    for mask, branch in ((small, _series_branch), (~small, _exponential_branch)):
        if mask.any():
            out[mask] = branch(arr[mask], _kernel(d))
    return out


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_kernel_is_bit_identical_to_one_pass(n):
    # an unsorted grid on both branches, from the series into the far tail
    x = np.random.default_rng(n).uniform(0.0, 30.0, n)
    for d in (1, 3, 5, 7):
        got = fringe_deviation(x, d)
        assert got.shape == x.shape
        assert np.array_equal(got, unblocked_fringe_deviation(x, d)), d


def test_blocked_kernel_series_switch_on_a_block_boundary():
    # element BLOCK, the first of a walk's second block at one CPU, is the first past the switch
    x = SERIES_SWITCH + (np.arange(2 * BLOCK + 1) - BLOCK) * 1e-5
    assert x[BLOCK - 1] < SERIES_SWITCH == x[BLOCK]
    for d in (1, 3):
        assert np.array_equal(fringe_deviation(x, d), unblocked_fringe_deviation(x, d)), d


def test_blocked_kernel_keeps_shape_and_scalars():
    x = np.random.default_rng(5).uniform(0.0, 8.0, (300, 700))
    for grid in (x, x.T):  # C- and Fortran-ordered 2-D input
        got = fringe_deviation(grid, 3)
        assert got.shape == grid.shape
        assert np.array_equal(got, unblocked_fringe_deviation(grid, 3))
    for value in (0.0, 0.4, SERIES_SWITCH, 7.0):
        got = fringe_deviation(value, 3)
        assert type(got) is float
        assert got == unblocked_fringe_deviation(value, 3)
