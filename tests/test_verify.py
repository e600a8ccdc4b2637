import pytest

from mmi import intensity, verify
from mmi.spectra import SpectralDistribution
from mmi.states import Coherent, OnePhoton, Thermal, Vacuum

F = SpectralDistribution(3.0, 1.0)
# every port pair compute_interferogram accepts, listed here independently of mmi.verify
PAIRS = {
    "fock": (OnePhoton(F), OnePhoton(F)),
    "coherent": (Coherent(F), Coherent(F)),
    "one-photon-vacuum": (OnePhoton(F), Vacuum()),
    "coherent-vacuum": (Coherent(F), Vacuum()),
    "thermal-vacuum": (Thermal(1.0), Vacuum()),
    "thermal-thermal": (Thermal(1.01), Thermal(1.0)),
}


def dual_path_names(pair, signal, lo):
    dims = intensity._DIMENSIONS[intensity._scenario(signal, lo)]
    return [f"{pair} dual path"] + [f"{pair} d = {d} dual path" for d in dims[1:]]


@pytest.fixture(scope="module")
def quick_checks():
    return {c["name"]: (c["max_deviation"], c["tolerance"]) for c in verify.run_verification(quick=True)}


def test_every_admitted_pair_and_dimension_has_a_passing_dual_path_check(quick_checks):
    expected = [name for pair, ports in PAIRS.items() for name in dual_path_names(pair, *ports)]
    assert len(expected) == 12
    for name in expected:
        value, tol = quick_checks[name]
        assert tol == 1e-9 and value <= tol, name
    assert sorted(n for n in quick_checks if n.endswith("dual path")) == sorted(expected)


def test_quick_keeps_every_named_check_and_skips_only_monte_carlo(quick_checks):
    named = {
        "fock closed-vs-quadrature": 1e-4,
        "fock oracle-vs-quadrature": 1e-3,
        "fock plateau": 1e-4,
        "coherent cross-term additivity": 1e-9,
        "coherent classified": 0.5,
        "thermal-thermal equal-temperature identity": 1e-12,
        "thermal-thermal asymptote": 1e-6,
        "spectral exact-vs-quadrature": 1e-9,
        "coherence horizon": 1e-8,
        "thermal-thermal fit round trip": 1e-9,
    }
    for name, tol in named.items():
        value, got = quick_checks[name]
        assert got == tol and value <= tol, name
    assert len(quick_checks) == 22
    assert not any("monte-carlo" in name for name in quick_checks)


def test_dual_path_checks_follow_the_dimension_table(monkeypatch):
    monkeypatch.setitem(intensity._DIMENSIONS, "thermal-vacuum", (3,))
    names = [check["name"] for check in verify.run_verification(quick=True)]
    assert "thermal-vacuum dual path" in names
    assert "thermal-vacuum d = 1 dual path" not in names


def test_a_new_thermal_dimension_needs_only_the_table(monkeypatch):
    # the quadrature path accepts every odd d the closed form does, so the table is the one gate
    monkeypatch.setitem(intensity._DIMENSIONS, "thermal-vacuum", (3, 1, 5))
    checks = {c["name"]: (c["max_deviation"], c["tolerance"]) for c in verify.run_verification(quick=True)}
    value, tol = checks["thermal-vacuum d = 5 dual path"]
    assert tol == 1e-9 and value <= tol


def test_dual_path_catches_a_wrong_exact_path_at_one_dimension(monkeypatch):
    # canary: a 1e-6 relative error in the spectral exact path at d = 3 only
    true_exact = intensity._spectral_exact

    def skewed(f_s, f_lo, taus, d, cross):
        ratios, norm = true_exact(f_s, f_lo, taus, d, cross)
        return (ratios * (1.0 + 1e-6) if d == 3 else ratios), norm

    monkeypatch.setattr(intensity, "_spectral_exact", skewed)
    checks = {check["name"]: check["passed"] for check in verify.run_verification(quick=True)}
    for pair in ("fock", "coherent", "one-photon-vacuum", "coherent-vacuum"):
        assert not checks[f"{pair} d = 3 dual path"], pair
        assert checks[f"{pair} dual path"], pair
    assert checks["thermal-vacuum d = 1 dual path"]
    assert not checks["spectral exact-vs-quadrature"]


def test_verify_detects_injected_cross_term_sign_bug(monkeypatch):
    # mutation canary: flipping the delay sign inside the coherent path must
    # fail the coherent scenario (the cross term is odd in tau)
    true_fn = verify.coherent_intensity

    def flipped(f_s, f_lo, tau, *args, **kwargs):
        return true_fn(f_s, f_lo, -tau, *args, **kwargs)

    monkeypatch.setattr(verify, "coherent_intensity", flipped)
    checks = verify.run_verification(quick=True)
    failures = [check["name"] for check in checks if not check["passed"]]
    assert any("coherent" in name for name in failures)


def test_a_crashing_group_is_a_failing_check(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(verify, "thermal_thermal_ratio", broken)
    checks = {check["name"]: check["passed"] for check in verify.run_verification(quick=True)}
    assert checks["thermal-thermal scenario raised RuntimeError"] is False
    assert checks["thermal-thermal dual path"]
