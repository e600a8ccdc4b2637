"""Outside-in tracer for the traced run: spans around mmi's module-level names.

Callers inside mmi bind each other's functions with ``from .x import y``, so a
hook replaces the name in the module that *calls* it (``mmi.intensity.
integrate_half_line``, not ``mmi.quadrature.integrate_half_line``).  The
integrand and envelope callbacks handed to ``integrate_half_line`` are wrapped
too.  A hook whose target does not exist is skipped, and its metrics read 0.

Spans (name, start, end, parent, op id) go to flat arrays in memory; self
time is a span's duration minus that of its direct children.  Nothing here
changes an argument or a result, which the worker checks bitwise.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Spans and counters of one traced pass; `install` hooks mmi, `restore` unhooks it."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, points=None, on_result=None):
        """`fn` inside a span; `points(args, kwargs)` and `on_result(result)` feed counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points is not None:
                self.count(name + ".points", points(args, kwargs))
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".errors")
                raise
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> bool:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _quadrature(self, fn):
        integrand_span = "quadrature.integrand"

        def integrate_half_line(f, *, envelope, **kwargs):
            def integrand(x):
                self.count("quadrature.integrand_points", np.size(x))
                idx = self.begin(integrand_span)
                try:
                    return f(x)
                finally:
                    self.finish(idx)

            traced_envelope = self.wrap("quadrature.envelope", envelope)
            result = fn(integrand, envelope=traced_envelope, **kwargs)
            self.count("quadrature.panels", result.panels)
            return result

        return self.wrap("quadrature.integrate_half_line", functools.wraps(fn)(integrate_half_line))

    def install(self) -> list[str]:
        """Hook every module-level name the layer metrics need; returns the ones missing."""
        import mmi.inference as inference
        import mmi.intensity as intensity
        import mmi.oracle as oracle
        import mmi.spectra as spectra
        import mmi.states as states

        def size_of(i):
            return lambda args, kwargs: np.size(args[i])

        hooks = [
            (intensity, "integrate_half_line", self._quadrature),
            (spectra, "integrate_half_line", self._quadrature),
            (states, "integrate_half_line", self._quadrature),
            (spectra.SpectralDistribution, "amplitude",
             lambda fn: self.wrap("spectra.amplitude", fn, points=size_of(1))),
            (intensity, "fringe_deviation",
             lambda fn: self.wrap("thermal_kernels.fringe_deviation", fn, points=size_of(0))),
            (intensity, "bose_weighted_integral", lambda fn: self.wrap("states.bose_weighted_integral", fn)),
            (intensity, "compute_interferogram",
             lambda fn: self.wrap("intensity.compute_interferogram", fn,
                                  points=lambda args, kwargs: np.size(args[0].delays))),
            (oracle, "thermal_intensity_montecarlo",
             lambda fn: self.wrap("oracle.mc", fn, on_result=lambda r: self.count("oracle.mc.samples", r.samples))),
            (oracle, "sample_amplitudes", lambda fn: self.wrap("oracle.sample_amplitudes", fn)),
            (inference, "fit", lambda fn: self.wrap("inference.fit", fn, on_result=self._iterations)),
            (inference, "model_prediction", lambda fn: self.wrap("inference.model_prediction", fn)),
            (inference, "thermal_vacuum_ratio", lambda fn: self.wrap("intensity.thermal_vacuum_ratio", fn)),
            (inference, "discriminate_state_class", lambda fn: self.wrap("inference.discriminate", fn)),
            (inference, "estimate_coherence_time", lambda fn: self.wrap("inference.coherence", fn)),
        ]
        missing = []
        for owner, attr, make in hooks:
            if not self.patch(owner, attr, make):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missing

    def _iterations(self, result) -> None:
        self.count("inference.fit.iterations", result.iterations)

    # -- derivation --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters (the cli.* and trace.* ones are the caller's)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child

        def pick(name):
            nid = self._ids.get(name)
            return a["name"] == nid if nid is not None else np.zeros(dur.size, dtype=bool)

        def calls(name):
            return int(pick(name).sum())

        def incl(name):
            return float(dur[pick(name)].sum())

        def self_s(name):
            return float(own[pick(name)].sum())

        c = self.counts
        panels = c.get("quadrature.panels", 0)
        evals = c.get("quadrature.integrand_points", 0)
        fd_points = c.get("thermal_kernels.fringe_deviation.points", 0)
        grid_points = c.get("intensity.compute_interferogram.points", 0)
        samples = c.get("oracle.mc.samples", 0)
        mc_time = incl("oracle.mc")
        return {
            "quadrature.calls": calls("quadrature.integrate_half_line"),
            "quadrature.panels": panels,
            "quadrature.integrand_points": evals,
            "quadrature.kept_eval_frac": 15.0 * panels / evals if evals else 0.0,
            "quadrature.envelope_calls": calls("quadrature.envelope"),
            "quadrature.cutoff_s": incl("quadrature.envelope"),
            "quadrature.integrand_s": incl("quadrature.integrand"),
            "quadrature.self_s": self_s("quadrature.integrate_half_line"),
            "quadrature.errors": c.get("quadrature.integrate_half_line.errors", 0),
            "spectra.amplitude.calls": calls("spectra.amplitude"),
            "spectra.amplitude.points": c.get("spectra.amplitude.points", 0),
            "spectra.amplitude.self_s": self_s("spectra.amplitude"),
            "thermal_kernels.fringe_deviation.calls": calls("thermal_kernels.fringe_deviation"),
            "thermal_kernels.fringe_deviation.points": fd_points,
            "thermal_kernels.fringe_deviation.self_s": self_s("thermal_kernels.fringe_deviation"),
            "thermal_kernels.fringe_deviation.ns_per_point":
                1e9 * self_s("thermal_kernels.fringe_deviation") / fd_points if fd_points else 0.0,
            "states.bose_weighted_integral.calls": calls("states.bose_weighted_integral"),
            "states.bose_weighted_integral.self_s": self_s("states.bose_weighted_integral"),
            "intensity.grids": calls("intensity.compute_interferogram"),
            "intensity.points": grid_points,
            "intensity.self_s": self_s("intensity.compute_interferogram"),
            "intensity.us_per_point": 1e6 * incl("intensity.compute_interferogram") / grid_points if grid_points else 0.0,
            "oracle.mc.samples": samples,
            "oracle.mc.samples_per_s": samples / mc_time if mc_time else 0.0,
            "oracle.mc.draw_s": incl("oracle.sample_amplitudes"),
            "oracle.mc.self_s": self_s("oracle.mc"),
            "inference.fit.calls": calls("inference.fit"),
            "inference.fit.iterations": c.get("inference.fit.iterations", 0),
            "inference.model_prediction.calls": calls("inference.model_prediction"),
            "inference.fit.self_s": self_s("inference.fit"),
            "inference.coherence.self_s": self_s("inference.coherence"),
            "inference.discriminate.self_s": self_s("inference.discriminate"),
        }
