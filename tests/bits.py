"""A fixed corpus of library calls whose outputs must stay bit-identical to a parent tree.

    python tests/bits.py --against <tree>

runs the corpus once with ``<tree>/src`` and once with this checkout's
``src``, each in its own interpreter (the two side by side), and lists every
case whose digest differs between them.  A digest covers each output's
Python type, dtype, shape, read-only flag and bytes; an error is recorded by
its type and message, and every warning a case issues by its category and
message.  The exit status is 0 whether cases differ or not (an intended
change differs too); it is non-zero only when the script itself fails.

    python tests/bits.py --emit <src>

prints the digests of one tree, one JSON object, with ``mmi`` imported from
``<src>``.  Each case looks its names up when it runs, so a name that one
tree lacks is a differing case, not a crash.  The corpus calls only private
names that the parent tree has too.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import MappingProxyType

import numpy as np

HERE = Path(__file__).resolve().parent


def _m(name: str):
    """The module ``mmi.<name>`` of the tree under test."""
    return importlib.import_module(f"mmi.{name}")


# ---------------------------------------------------------------------------
# digests


def _canon(x):
    """A nested tuple of strings and numbers that determines ``x`` bit for bit."""
    if x is None or isinstance(x, (bool, int, str)):
        return (type(x).__name__, repr(x))
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, complex):
        return ("complex", x.real.hex(), x.imag.hex())
    if isinstance(x, np.ndarray):
        data = hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
        return ("ndarray", x.dtype.str, x.shape, bool(x.flags.writeable), data)
    if isinstance(x, np.generic):
        return (type(x).__name__, x.dtype.str, x.tobytes().hex())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, tuple(_canon(v) for v in x))
    if isinstance(x, (dict, MappingProxyType)):
        return (type(x).__name__, tuple((repr(k), _canon(v)) for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple((f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)))
    raise TypeError(f"no digest rule for {type(x).__name__}")


def _run(case) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ["ok", _canon(case())]
        except Exception as exc:  # an error is an outcome like any other
            outcome = ["raised", type(exc).__name__, str(exc)]
    return outcome + [sorted({(w.category.__name__, str(w.message)) for w in caught})]


def _digest(outcome) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:24]


def _summary(outcome) -> str:
    if outcome[0] == "raised":
        return f"raised {outcome[1]}: {outcome[2]}"[:160]
    return "returned" + (f", warned {outcome[2]}"[:120] if outcome[2] else "")


# ---------------------------------------------------------------------------
# the corpus


def _spectrum(mean, width):
    return _m("spectra").SpectralDistribution(mean, width)


# (signal, LO) of each port pair: (class name, mean, width), ("Thermal", θ) or "Vacuum"
_PORTS = {
    "fock": (("OnePhoton", 3.0, 1.0), ("OnePhoton", 3.15, 1.0)),
    "coherent": (("Coherent", 3.0, 1.0), ("Coherent", 3.15, 1.0)),
    "one-photon-vacuum": (("OnePhoton", 3.0, 1.0), "Vacuum"),
    "coherent-vacuum": (("Coherent", 3.0, 1.0), "Vacuum"),
    "thermal-vacuum": (("Thermal", 1.0), "Vacuum"),
    "thermal-thermal": (("Thermal", 1.01), ("Thermal", 1.0)),
}
_GRIDS = {
    **{f"{n} delays": np.linspace(0.0, 6.0, n) for n in (0, 1, 7, 546, 547, 601, 3000)},
    "3 x 400 delays": np.linspace(-6.0, 6.0, 1200).reshape(3, 400),
    "[0, 1e8]": np.array([0.0, 1e8]),
    "[0, 0.85e308, 1.7e308]": np.array([0.0, 0.85e308, 1.7e308]),
    "0:1.69e6:3": np.linspace(0.0, 1.69e6, 3),
    "0:1.70e6:2000": np.linspace(0.0, 1.70e6, 2000),
}


def _request(signal, lo, grid, d, method):
    """The interferogram of two ports given as in :data:`_PORTS`."""
    states, intensity = _m("states"), _m("intensity")

    def port(spec):
        if spec == "Vacuum":
            return states.Vacuum()
        if spec[0] == "Thermal":
            return states.Thermal(spec[1])
        return getattr(states, spec[0])(_spectrum(*spec[1:]))

    return intensity.compute_interferogram(intensity.IntensityRequest(port(signal), port(lo), grid, d, method))


def _scenario_cases():
    for kind, ports in _PORTS.items():
        for method in ("auto", "closed_form", "quadrature"):
            for d in (1, 3):
                for label, grid in _GRIDS.items():
                    yield f"interferogram {kind} {method} d={d} {label}", (
                        lambda p=ports, g=grid, dd=d, mm=method: _request(*p, g, dd, mm))
    # the CI's spectral requests: a skipped and a live w term together, the far split, an optical
    # pair, a skipped w term alone, a vanished zero-delay intensity, a negative closed form, a warning
    taus61 = np.linspace(0.0, 6.0, 61)
    special = (
        ("mixed widths", ("Coherent", 3.0, 1.0), ("Coherent", 3.15, 0.1), taus61, 3),
        ("far split", ("OnePhoton", 0.5, 1.0), "Vacuum", np.linspace(0.0, 80.0, 161), 3),
        ("optical fock", ("OnePhoton", 1e4, 1.0), ("OnePhoton", 1.03e4, 1.0), taus61, 3),
        ("coherent 300/309", ("Coherent", 300.0, 1.0), ("Coherent", 309.0, 1.0), taus61, 1),
        ("vanishing", ("OnePhoton", 0.0, 1e-110), "Vacuum", np.linspace(0.0, 1e110, 3), 3),
        ("negative closed form", ("Coherent", 6.011, 1.0), ("Coherent", 5.735, 1.0), np.linspace(0.0, 12.0, 400), 1),
        ("below 3 widths", ("OnePhoton", 2.5, 1.0), "Vacuum", taus61, 1),
    )
    for label, signal, lo, grid, d in special:
        for method in ("auto", "closed_form", "quadrature"):
            yield f"interferogram {label} {method} d={d}", (
                lambda s=signal, lo_=lo, g=grid, dd=d, mm=method: _request(s, lo_, g, dd, mm))
    for bad in (np.nan, np.inf, -np.inf):
        yield f"request rejects delay {bad}", lambda b=bad: _request(*_PORTS["fock"], [0.0, b], 1, "auto")


def _ratio_cases():
    """The public ratio functions on a float, a numpy scalar, a 0-d and a 1-d delay, and non-finite ones."""
    intensity = _m("intensity")
    delays = {
        "float": 1.3, "float64": np.float64(1.3), "0-d": np.array(1.3), "list": [0.0, 1.3, 40.0],
        "nan": np.nan, "inf": np.inf, "0-d nan": np.array(np.nan), "array with inf": np.array([0.0, np.inf]),
        "2-d": np.linspace(0.0, 6.0, 12).reshape(3, 4), "empty": np.empty(0),
    }
    for label, tau in delays.items():
        for name, call in (
            ("one_photon_vacuum_ratio", lambda t: intensity.one_photon_vacuum_ratio(_spectrum(3.0, 1.0), t)),
            ("fock_intensity_closed", lambda t: intensity.fock_intensity_closed(_spectrum(3.0, 1.0), _spectrum(3.15, 1.0), t)),
            ("coherent_intensity_closed",
             lambda t: intensity.coherent_intensity_closed(_spectrum(3.0, 1.0), _spectrum(3.15, 1.0), t)),
            ("thermal_thermal_ratio", lambda t: intensity.thermal_thermal_ratio(1.0, 1.01, t)),
            ("thermal_thermal_ratio quadrature", lambda t: intensity.thermal_thermal_ratio(1.0, 1.01, t, "quadrature")),
        ):
            yield f"{name} {label}", lambda c=call, t=tau: c(t)
        for d in (1, 3, None):
            for method in ("auto", "closed_form", "quadrature"):
                yield f"thermal_vacuum_ratio d={d} {method} {label}", (
                    lambda t=tau, dd=d, mm=method: intensity.thermal_vacuum_ratio(1.0, t, dd, mm))
    for tau in (1.3, np.linspace(0.0, 6.0, 25)):
        label = "float" if np.ndim(tau) == 0 else "25 delays"
        for d in (1, 3):
            for name in ("fock_intensity", "coherent_intensity"):
                yield f"{name} d={d} {label}", (
                    lambda n=name, t=tau, dd=d: getattr(intensity, n)(_spectrum(3.0, 1.0), _spectrum(3.15, 1.0), t, dd))
    yield "thermal_thermal_ratio asymptote", lambda: intensity.thermal_thermal_ratio(1.0, 1.01, 5.0 / 1.01)


def _kernel_cases():
    thermal_kernels = _m("thermal_kernels")
    x = np.concatenate([[0.0, 1e-300, 1e-8, 0.3], np.nextafter(1.0, [0.0, 2.0]), [1.0, 2.0, 20.0, 400.0, 1e155, np.inf]])
    for d in (1, 3, 5, 7, 9):
        yield f"fringe_deviation d={d}", lambda dd=d: thermal_kernels.fringe_deviation(x, dd)
        yield f"fringe_deviation d={d} scalar", lambda dd=d: thermal_kernels.fringe_deviation(0.5, dd)
        yield f"_fringe_slope d={d}", lambda dd=d: thermal_kernels._fringe_slope(x, dd)
    for bad in (-1.0, np.nan):
        yield f"fringe_deviation rejects {bad}", lambda b=bad: thermal_kernels.fringe_deviation(b, 3)
    for d in (*range(1, 56, 2), 0, 2, 2.5, -1, 3.0):
        yield f"bose_integral_constant {d!r}", lambda dd=d: thermal_kernels.bose_integral_constant(dd)
    states = _m("states")
    taus = {"float": 0.0, "0-d": np.array(0.7), "33 delays": np.linspace(0.0, 5.0, 33),
            "3 x 5 delays": np.linspace(-2.0, 2.0, 15).reshape(3, 5), "past the reach": np.array([0.0, 1e7])}
    for theta in (1.0, 2.5):
        for d in (1, 3, 5, 7):
            for label, tau in taus.items():
                yield f"bose_weighted_integral theta={theta} d={d} {label}", (
                    lambda th=theta, dd=d, t=tau: states.bose_weighted_integral(th, dd, t))
    yield "bose_weighted_integral abs_tol", lambda: states.bose_weighted_integral(1.0, 3, np.linspace(0, 3, 9), abs_tol=1e-9)
    for bad in ((0.0, 3), (1.0, 2), (-1.0, 3)):
        yield f"bose_weighted_integral rejects {bad}", lambda b=bad: states.bose_weighted_integral(*b)


def _spectra_cases():
    spectra = _m("spectra")
    f, g = (3.0, 1.0), (3.15, 1.1)
    tau_grid = np.linspace(-2.0, 8.0, 41)
    for p in range(4):
        for kernel in ("one", "cos", "sin"):
            for label, tau in (("0.0", 0.0), ("1.3", 1.3), ("41 delays", tau_grid), ("2-d", tau_grid[:40].reshape(5, 8))):
                yield f"weighted_overlap p={p} {kernel} {label}", (
                    lambda pp=p, k=kernel, t=tau: spectra.weighted_overlap(_spectrum(*f), _spectrum(*g), pp, k, t))
    yield "weighted_overlap optical line", lambda: spectra.weighted_overlap(_spectrum(3e4, 1.0), _spectrum(3e4, 1.0), 0, "one")
    yield "weighted_overlap rounding floor", (
        lambda: spectra.weighted_overlap(_spectrum(30.0, 1.0), _spectrum(30.6, 1.1), 3, "cos", np.linspace(-2.0, 30.0, 401)))
    for bad in ((7, "one"), (0, "sinh")):
        yield f"weighted_overlap rejects {bad}", lambda b=bad: spectra.weighted_overlap(_spectrum(*f), _spectrum(*f), *b, 0.0)
    for mean, width in ((3.0, 1.0), (0.0, 1.0), (1e4, 1.7), (-1.0, 1.0), (3.0, 0.0), (np.nan, 1.0)):
        yield f"SpectralDistribution({mean}, {width})", lambda mw=(mean, width): _spectrum(*mw)
        yield f"normalization_constant({mean}, {width})", lambda mw=(mean, width): spectra.normalization_constant(*mw)
    yield "amplitude", lambda: _spectrum(3.0, 1.0).amplitude(np.linspace(0.0, 12.0, 49))
    yield "amplitude scalar", lambda: _spectrum(3.0, 1.0).amplitude(2.0)
    rng = np.random.default_rng(5)
    z = rng.uniform(-50.0, 50.0, 400) + 1j * rng.uniform(0.0, 50.0, 400)
    yield "_faddeeva", lambda: spectra._faddeeva(z)
    near = np.linspace(-39.0, 39.0, 79)
    far = np.array([40.0, -41.0, 1e3, 1e300, 1.7e308])
    grids = {"near": near, "far": far, "mixed": np.concatenate([near, far]), "0-d near": np.array(1.0),
             "0-d far": np.array(41.0), "float": 1.0, "empty": np.empty(0), "2-d": near[:78].reshape(6, 13)}
    line_sets = {"(3, 1)": [(3.0, 1.0)], "(0, 1)": [(0.0, 1.0)], "(300, 1), skipped w": [(300.0, 1.0)],
                 "(0.5, 0.02)": [(0.5, 0.02)], "three lines": [(3.0, 1.0), (3.15, 0.1), (3.1485, 0.1407)],
                 "live and skipped": [(3.0, 1.0), (300.0, 1.0)]}
    for lines_label, lines in line_sets.items():
        for grid_label, grid in grids.items():
            for n in range(4):
                yield f"_line_moments {lines_label} {grid_label} n={n}", (
                    lambda ls=lines, t=grid, nn=n: spectra._line_moments(ls, t, nn))


def _quadrature_cases():
    quadrature = _m("quadrature")
    families = {
        "a0 only": lambda x: (np.exp(-x), None, None),
        "cos": lambda x: (None, np.exp(-x), None),
        "sin": lambda x: (None, None, x * np.exp(-x)),
        "cos and sin": lambda x: (None, np.exp(-x), x * np.exp(-x)),
        "all three": lambda x: (np.exp(-2.0 * x), np.exp(-x), x * np.exp(-x)),
    }
    rates = {
        "empty": np.empty(0), "empty 2-d": np.empty((0, 3)), "0-d": np.array(1.5), "float": 1.5,
        "600 rates": np.linspace(-30.0, 30.0, 600), "60 x 100 rates": np.linspace(-30.0, 30.0, 6000).reshape(60, 100),
        "past the reach": np.array([0.0, 2.0**27]), "nan": np.array([0.0, np.nan]),
    }
    for family, f in families.items():
        for label, r in rates.items():
            yield f"integrate {family} {label}", (
                lambda ff=f, rr=r: quadrature.integrate(ff, 0.0, 40.0, rates=rr))
    yield "integrate tight", lambda: quadrature.integrate(families["cos"], 0.0, 40.0, abs_tol=1e-14, rel_tol=1e-14,
                                                            rates=np.linspace(0.0, 9.0, 10))
    yield "integrate scalar", lambda: quadrature.integrate(lambda x: np.exp(-x * x), -3.0, 5.0)
    yield "integrate vector", lambda: quadrature.integrate(lambda x: np.stack([np.sin(x), x**2, np.sqrt(x)], axis=1), 0.0, 2.0)
    yield "integrate non-finite interval", lambda: quadrature.integrate(lambda x: x, 0.0, np.inf)
    product_weights = _m("_product_weights").product_weights
    halves = np.array([1e-3, 0.004, 0.05, 0.5, 3.0, 20.0])
    for label, r in (("81 rates", np.linspace(-40.0, 40.0, 81)), ("one rate", np.array([0.7])), ("no rate", np.empty(0))):
        yield f"product_weights {label}", lambda rr=r: product_weights(halves, rr)


def _fit_row(model):
    """The ``_MODELS`` row of ``model``, and its ``verify`` truth, known quantities and delays."""
    truth, fixed, taus = _m("verify")._FIT_TRUTHS[model]
    return _m("inference")._MODELS[model], truth, fixed, taus


def _fit(model, noise_seed=None):
    inference = _m("inference")
    _, truth, fixed, taus = _fit_row(model)
    data = inference.model_prediction(model, taus, truth, fixed)
    noise = None
    if noise_seed is not None:
        noise = 1e-3
        data = data + np.random.default_rng(noise_seed).normal(0.0, noise, data.shape)
    return inference.fit(inference.FitProblem(tau=taus, ratios=data, model=model, fixed=fixed, noise=noise))


def _inverse_cases():
    inference = _m("inference")
    for model in ("thermal_thermal", "one_photon_vacuum", "fock_fock", "coherent_coherent"):
        def prediction(m=model):
            row, truth, fixed, taus = _fit_row(m)
            return row.predict(taus, truth, fixed), inference.model_prediction(m, taus, truth, fixed)

        def jacobian(m=model):
            row, truth, fixed, taus = _fit_row(m)
            return row.jacobian(taus, truth, fixed)

        yield f"{model} prediction", prediction
        yield f"{model} jacobian", jacobian
        yield f"{model} round trip", lambda m=model: _fit(m)
        for seed in (7, 8):
            yield f"{model} noisy fit seed {seed}", lambda m=model, s=seed: _fit(m, s)
    for model in ("thermal_thermal", "one_photon_vacuum", "fock_fock", "coherent_coherent"):
        for label, tau in (("0-d", np.array(1.3)), ("2-d", np.linspace(-6.0, 6.0, 60).reshape(5, 12)),
                           ("nan", np.array([0.0, np.nan]))):
            for params in ("truth", "negative"):
                def prediction(m=model, t=tau, negative=params == "negative"):
                    _, truth, fixed, _ = _fit_row(m)
                    return inference.model_prediction(m, t, tuple(-p for p in truth) if negative else truth, fixed)
                yield f"{model} model_prediction {label} {params}", prediction

    def thermal_fit(taus, data, theta0, initial=(), noise=None):
        return inference.fit(inference.FitProblem(tau=taus, ratios=data, model="thermal_thermal",
                                                  fixed={"theta0": theta0}, initial=initial, noise=noise))

    straddle = np.linspace(0.0, 0.6, 40)  # πa₁ crosses SERIES_SWITCH = 1 at a₁ = 1/π
    yield "thermal_thermal weighted fit across the series switch", lambda: thermal_fit(
        straddle, inference.model_prediction("thermal_thermal", straddle, (1.01,), {"theta0": 1.0})
        + np.random.default_rng(3).normal(0.0, 1e-4, 40), 1.0, noise=np.linspace(5e-5, 2e-4, 40))
    yield "thermal_thermal flat data and theta0 -1", lambda: thermal_fit(straddle, np.ones(40), -1.0)
    yield "thermal_thermal theta0 -1", lambda: thermal_fit(
        straddle, inference.model_prediction("thermal_thermal", straddle, (1.01,), {"theta0": 1.0}), -1.0)
    tiny = np.linspace(0.0, 3e-303, 50)  # a₁ = τ·1.01e303 spans [0, 3]
    for initial in ((), (2e5,)):  # from 2e5 the trial temperature 2e308 overflows
        yield f"thermal_thermal theta0 1e303 from {initial}", lambda i=initial: thermal_fit(
            tiny, inference.model_prediction("thermal_thermal", tiny, (1.01,), {"theta0": 1e303}), 1e303, i)
    for top in (3.0, 1e6):  # a₀π near the float range, and past it
        def far(t=np.linspace(0.0, top, 9)):
            row = inference._MODELS["thermal_thermal"]
            return (inference.model_prediction("thermal_thermal", t, (1.01,), {"theta0": 1e303}),
                    row.jacobian(t, (1.01,), {"theta0": 1e303}))
        yield f"thermal_thermal theta0 1e303 on [0, {top}]", far
    intensity = _m("intensity")
    drop_out = np.linspace(0.0, 6.0, 121)
    for signal in (3.15, 3.3, 3.45):  # the coherent fit drifts flat and raises
        def dropped(s=signal, t=drop_out):
            f_lo = _spectrum(3.0, 1.0)
            return inference.discriminate_state_class(t, intensity.fock_intensity_closed(_spectrum(s, 1.0), f_lo, t), f_lo)
        yield f"discriminate drop-out fock {signal} against 3.0", dropped
    taus = np.linspace(0.0, 6.0, 300)
    for closed, signal, lo in (("coherent_intensity_closed", 3.0, 3.15), ("fock_intensity_closed", 3.1, 3.0),
                               ("fock_intensity_closed", 2.9, 3.0), ("fock_intensity_closed", 3.3, 3.0)):
        def classify(c=closed, s=signal, lo_=lo, t=taus):
            f_lo = _spectrum(lo_, 1.0)
            return inference.discriminate_state_class(t, getattr(intensity, c)(_spectrum(s, 1.0), f_lo, t), f_lo)
        yield f"discriminate {closed} {signal} against {lo}", classify
    negative = np.linspace(-6.0, 0.0, 121)
    yield "discriminate negative delays", lambda: inference.discriminate_state_class(
        negative, intensity.fock_intensity_closed(_spectrum(3.3, 1.0), _spectrum(3.0, 1.0), negative), _spectrum(3.0, 1.0))
    symmetric = np.linspace(-6.0, 6.0, 121)
    yield "discriminate symmetrized", lambda: inference.discriminate_state_class(
        symmetric, intensity.fock_intensity_closed(_spectrum(3.1, 1.0), _spectrum(3.0, 1.0), symmetric), _spectrum(3.0, 1.0))
    for epsilon in (inference.DEFAULT_COHERENCE_EPSILON, 0.14127060848485837, 0.15552299530928815, 0.49999999, 0.01):
        yield f"estimate_coherence_time {epsilon!r}", lambda e=epsilon: inference.estimate_coherence_time(epsilon=e)
    yield "estimate_coherence_time theta 2.5", lambda: inference.estimate_coherence_time(2.5, speed_of_light=3.0)


def _verify_cases():
    def checks():
        return [{k: v for k, v in check.items() if k != "seconds"} for check in _m("verify").run_verification()]
    yield "verify checks", checks


def cases():
    for group in (_scenario_cases, _ratio_cases, _kernel_cases, _spectra_cases, _quadrature_cases, _inverse_cases,
                  _verify_cases):
        yield from group()


# ---------------------------------------------------------------------------
# the two trees


def emit(src: Path) -> None:
    sys.path.insert(0, str(src))
    import mmi

    if Path(mmi.__file__).resolve().parent != (src / "mmi").resolve():
        raise SystemExit(f"imported mmi from {mmi.__file__}, not from {src}")
    out = {}
    for name, case in cases():
        if name in out:
            raise SystemExit(f"two cases are named {name!r}")
        outcome = _run(case)
        out[name] = [_digest(outcome), _summary(outcome)]
    json.dump(out, sys.stdout)


def _digests(src: Path) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit", str(src)],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the corpus failed under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", type=Path, metavar="TREE", help="a parent tree holding src/mmi")
    mode.add_argument("--emit", type=Path, metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.emit)
        return 0
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        parent, change = pool.map(_digests, (args.against / "src", HERE.parent / "src"))
    names = list(change) + [name for name in parent if name not in change]
    differ = [name for name in names if parent.get(name, [None])[0] != change.get(name, [None])[0]]
    for name in differ:
        was, now = (found[name][1] if name in found else "no such case" for found in (parent, change))
        print(name if was == now else f"{name}\n    parent: {was}\n    change: {now}")
    print(f"{len(differ)} of {len(names)} cases differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
