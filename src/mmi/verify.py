"""``mmi verify``: triangulate closed forms, quadrature and oracles.

A check is a JSON-ready record ``{name, max_deviation, tolerance, passed, seconds}``; it passes when the
deviation is within the tolerance, and its ``seconds`` is the wall time of the group that computed it,
which the checks of one group share.
Beside the named checks, each row of :data:`_PAIRS` compares ``method="auto"`` with ``"quadrature"``
at every dimension that :data:`mmi.intensity._DIMENSIONS` admits for its scenario, so a dimension
added there is verified with no edit here.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from .inference import FitProblem, discriminate_state_class, estimate_coherence_time, fit
from .intensity import (
    _DIMENSIONS, IntensityRequest, _scenario, coherent_intensity, compute_interferogram, fock_intensity,
    fock_intensity_closed, thermal_thermal_ratio, thermal_vacuum_ratio,
)
from .oracle import build_one_photon, detect_intensity_bruteforce, spectral_mode_grid, thermal_intensity_montecarlo
from .spectra import SpectralDistribution, weighted_overlap
from .states import Coherent, OnePhoton, Thermal, Vacuum

_SIGNAL = SpectralDistribution(3.0, 1.0)
_TAUS = np.linspace(0.0, 6.0, 121)
_DUAL_TOL = 1e-9
# The Monte-Carlo check's seed (the ``--out`` report records it) and sample count.
MC_SEED = 20260808
_MC_SAMPLES = 20000

# One row per port pair compute_interferogram accepts: (name, signal, LO, delays).
_PAIRS = (
    ("fock", OnePhoton(_SIGNAL), OnePhoton(SpectralDistribution(2.85, 1.0)), _TAUS),
    ("coherent", Coherent(_SIGNAL), Coherent(SpectralDistribution(3.15, 1.0)), _TAUS),
    ("one-photon-vacuum", OnePhoton(_SIGNAL), Vacuum(), _TAUS),
    ("coherent-vacuum", Coherent(_SIGNAL), Vacuum(), _TAUS),
    ("thermal-vacuum", Thermal(1.0), Vacuum(), np.linspace(0.01, 10.0, 101)),
    ("thermal-thermal", Thermal(1.01), Thermal(1.0), np.linspace(0.05, 4.0, 40)),
)


def _fock_gaps(wlo):
    """Deviations from quadrature of the closed form plus its dropped term, of the
    brute-force oracle and of the plateau, for a one-photon LO at mean frequency ``wlo``."""
    wbar_s, sigma = _SIGNAL.mean_freq, _SIGNAL.width
    f_lo = SpectralDistribution(wlo, sigma)
    gram = compute_interferogram(IntensityRequest(OnePhoton(_SIGNAL), OnePhoton(f_lo), _TAUS, method="quadrature"))
    quad = gram.ratios
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closed = np.asarray(fock_intensity_closed(_SIGNAL, f_lo, _TAUS))
    # the closed form drops this Fourier term exactly (see mmi.intensity);
    # what remains is the ω < 0 tail of the extended range
    dropped = (
        (sigma**2 * _TAUS / (4.0 * wbar_s))
        * np.exp(-((sigma * _TAUS) ** 2) / 4.0)
        * (np.sin(wlo * _TAUS) - np.sin(wbar_s * _TAUS))
    )
    plateau = fock_intensity(_SIGNAL, f_lo, 20.0) / gram.normalization
    grid = spectral_mode_grid(_SIGNAL, f_lo)
    sig, lo = build_one_photon(_SIGNAL, grid), build_one_photon(f_lo, grid)
    bnorm = detect_intensity_bruteforce(sig, lo, 0.0)
    oracle = [detect_intensity_bruteforce(sig, lo, _TAUS[i]) / bnorm - quad[i] for i in range(0, _TAUS.size, 4)]
    return np.max(np.abs(quad - closed - dropped)), np.max(np.abs(oracle)), abs(plateau - (1.0 + wlo / wbar_s) / 2.0)


def _verify_fock():
    closed, oracle, plateau = map(float, np.max([_fock_gaps(wlo) for wlo in (3.15, 2.85)], axis=0))
    return [
        ("fock closed-vs-quadrature", closed, 1e-4),
        ("fock oracle-vs-quadrature", oracle, 1e-3),
        ("fock plateau", plateau, 1e-4),
    ]


def _verify_coherent():
    f_lo = SpectralDistribution(3.15, 1.0)
    taus = np.linspace(0.0, 6.0, 61)
    coh = coherent_intensity(_SIGNAL, f_lo, taus)
    foc = fock_intensity(_SIGNAL, f_lo, taus)
    cross = -2.0 * weighted_overlap(_SIGNAL, f_lo, 1, "sin", taus)
    ratios = compute_interferogram(IntensityRequest(Coherent(_SIGNAL), Coherent(f_lo), taus)).ratios
    try:
        ok = 0.0 if discriminate_state_class(taus, ratios, f_lo).label == "coherent-like" else 1.0
    except Exception:  # a failed fit is a failed check, not a crashed verifier
        ok = 1.0
    return [
        ("coherent cross-term additivity", float(np.max(np.abs((coh - foc) - cross))), 1e-9),
        ("coherent classified", ok, 0.5),
    ]


def _verify_montecarlo():
    mc = thermal_intensity_montecarlo(1.0, None, [0.5, 1.0, 2.0], samples=_MC_SAMPLES, seed=MC_SEED)
    truth = np.asarray(thermal_vacuum_ratio(1.0, mc.delays, 3, "closed_form"))
    return [("thermal-vacuum monte-carlo (sigmas)", float(np.max(np.abs(mc.ratios - truth) / mc.stderrs)), 3.0)]


def _verify_thermal_thermal():
    ident = np.asarray(thermal_thermal_ratio(1.0, 1.0, np.linspace(0.0, 5.0, 100)))
    asym = thermal_thermal_ratio(1.0, 1.01, 5.0 / 1.01)
    return [
        ("thermal-thermal equal-temperature identity", float(np.max(np.abs(ident - 1.0))), 1e-12),
        ("thermal-thermal asymptote", abs(asym - (1.0 + 1.01**-4) / 2.0), 1e-6),
    ]


def _verify_coherence_horizon():
    # the default threshold is calibrated to a_c = 1.5
    return [("coherence horizon", abs(estimate_coherence_time().a_c - 1.5), 1e-8)]


def _verify_thermometry():
    a = np.linspace(0.0, 3.0, 200)
    problem = FitProblem(tau=a, ratios=thermal_thermal_ratio(1.0, 1.01, a), model="thermal_thermal", fixed={"theta0": 1.0})
    return [("thermal-thermal fit round trip", abs(fit(problem).estimates["theta_ratio"] / 1.01 - 1.0), 1e-9)]


def _dual_path(name, signal, lo, delays, d):
    auto, quad = (compute_interferogram(IntensityRequest(signal, lo, delays, d, method)).ratios
                  for method in ("auto", "quadrature"))
    return [(name, float(np.max(np.abs(auto - quad))), _DUAL_TOL)]


def _record(name, value, tol, seconds):
    return {"name": name, "max_deviation": float(value), "tolerance": tol, "passed": bool(value <= tol),
            "seconds": seconds}


def _guarded(label, group, *args):
    start = time.perf_counter()
    try:
        checks = group(*args)
    except Exception as exc:  # a crashing check is a failing check
        checks = [(f"{label} raised {type(exc).__name__}", float("inf"), 0.0)]
    seconds = time.perf_counter() - start
    return [_record(*check, seconds) for check in checks]


def run_verification(quick: bool = False) -> list[dict]:
    """Every check's record; ``quick`` skips the Monte-Carlo one."""
    checks = _guarded("fock scenario", _verify_fock) + _guarded("coherent scenario", _verify_coherent)
    if not quick:
        checks += _guarded("thermal-vacuum scenario", _verify_montecarlo)
    checks += _guarded("thermal-thermal scenario", _verify_thermal_thermal)
    checks += _guarded("coherence horizon", _verify_coherence_horizon)
    checks += _guarded("thermal-thermal fit", _verify_thermometry)
    spectral_gaps = []
    for pair, signal, lo, delays in _PAIRS:
        scenario = _scenario(signal, lo)
        dims = _DIMENSIONS[scenario]
        for d in dims:
            name = f"{pair} dual path" if d == dims[0] else f"{pair} d = {d} dual path"
            checks += _guarded(name, _dual_path, name, signal, lo, delays, d)
            if scenario == "spectral":
                spectral_gaps.append(checks[-1]["max_deviation"])
    # a maximum over the spectral rows above, computed in no time of its own
    checks.append(_record("spectral exact-vs-quadrature", max(spectral_gaps, default=float("inf")), _DUAL_TOL, 0.0))
    return checks
