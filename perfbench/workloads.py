"""Seeded op schedules for the four workloads, the calls into mmi that run them,
and the checks of their outputs against ``references``.

Every workload is a closed loop with one caller.  Ops come in blocks whose
class mix is fixed and whose order and parameters are drawn from
``default_rng([seed, workload, block])``, so any process can rebuild block b
of a seed without running blocks 0..b-1.  Fixing the mix per block keeps each
class's share of the ops, and so the op classes on either side of p50 and
p90, the same from seed to seed.  For the same reason continuous parameters
are stratified within a block and spread evenly over blocks (`_Cells`).

mmi is called only through module attributes looked up at call time
(``mmi.intensity.compute_interferogram``), so the tracer's hooks see every
call.  Nothing here loads scipy or mpmath unless a check runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import references as ref

WORKLOADS = ("spectral", "thermal", "inverse", "cli")
# Blocks per second of --seconds: an untraced run is this many whole blocks,
# so it lasts about --seconds on the reference host and every run of a
# workload attempts the same ops and fails the same number of them.
BLOCKS_PER_SECOND = {"spectral": 0.35, "thermal": 0.4, "inverse": 10.0, "cli": 0.15}
# ops of the fixed prefix that the traced run replays (whole blocks)
TRACE_OPS = {"spectral": 32, "thermal": 32, "inverse": 640, "cli": 22}
BIG_SUBSAMPLE = 4096  # points of a 1e5..1e6-point grid kept for checking
CLI_TIMEOUT_S = 120.0
SRC = Path(__file__).resolve().parents[1] / "src"
HBAR = 1.054571817e-34  # J s, CODATA
K_B = 1.380649e-23  # J/K, exact


_GOLDEN = (5**0.5 - 1) / 2


class _Cells:
    """Draws for one block: `rng` is the block's own, `offsets` the run's.

    `within(k)` gives k positions in [0, 1), one per slot: slot j of block b
    sits at frac(offset_j + b * golden ratio).  The offsets come from a
    generator seeded by the run alone and drawn in the same order in every
    block, so the first blocks of a run, however many, cover each slot's
    range nearly evenly, and run cost hardly depends on the number of blocks.
    """

    def __init__(self, seed: int, workload: str, block: int):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload), block])
        self.offsets = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.block = block

    def within(self, k: int) -> np.ndarray:
        return (self.offsets.random(k) + self.block * _GOLDEN) % 1.0

    def strata(self, k: int) -> np.ndarray:
        """k positions in [0, 1), one in each of k equal bins, in random order."""
        return (self.rng.permutation(k) + self.within(k)) / k


def _log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def block_specs(workload: str, seed: int, block: int) -> list[dict]:
    """The ops of one block, in execution order.

    A block is a list of units, each a list of ops that must run in order
    (a CLI ``simulate`` and the ``fit`` that reads its CSV); units are shuffled.
    """
    cells = _Cells(seed, workload, block)
    units = _BLOCKS[workload](cells)
    specs = []
    for u in cells.rng.permutation(len(units)):
        for spec in units[u]:
            specs.append(dict(spec, block=block, unit=int(u)))
    return specs


def blocks(workload: str, seed: int):
    """Endless stream of blocks of op specs."""
    block = 0
    while True:
        yield block_specs(workload, seed, block)
        block += 1


def blocks_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds * BLOCKS_PER_SECOND[workload]))


# ---------------------------------------------------------------------------
# spectral: compute_interferogram (method auto, d = 1) on Fock, coherent and
# one-photon/vacuum requests


def _spectral_block(cells: _Cells) -> list[list[dict]]:
    rng = cells.rng
    # Every block holds the same cells (size, kind, span, ratio bin).  The
    # ratio inside each bin follows the run's sequence (`_Cells.within`); the
    # seed draws the other parameters and the order.  Across the three size
    # classes each kind meets every ratio bin and both spans.
    kinds = ("fock", "coherent", "one_photon_vacuum")
    units = []
    for size, k, shift in ((61, 6, 0), (121, 6, 3), (601, 3, 1)):
        offsets = cells.within(k)
        for i in range(k):
            u = ((i + shift) % k + offsets[i]) / k
            span = (6.0, 20.0)[(i + shift) % 2]
            units.append([_spectral_spec(rng, kinds[i % 3], _log_uniform(u, 3.0, 300.0), size, span, "")])
    # one request in sixteen sits in the optical regime
    kind = kinds[rng.integers(3)]
    size = int(rng.choice([61, 121, 601]))
    units.append([_spectral_spec(rng, kind, _log_uniform(rng.random(), 1e4, 1e5), size, 6.0, "_optical")])
    return units


def _spectral_spec(rng, kind, ratio, size, span, suffix) -> dict:
    width = float(rng.uniform(0.5, 2.0))
    mean_s = float(ratio) * width
    return {
        "cls": kind + suffix,
        "kind": kind,
        "mean_s": mean_s,
        "mean_lo": mean_s * (1.0 + _sign(rng) * float(rng.uniform(0.01, 0.05))),
        "width": width,
        "n": int(size),
        "t_max": float(span) / width,
    }


# ---------------------------------------------------------------------------
# thermal: quadrature grids, large closed-form grids, Monte-Carlo oracle


def _thermal_block(cells: _Cells) -> list[list[dict]]:
    rng = cells.rng
    units = []
    for cls in ("tv1_quadrature", "tv3_quadrature", "tt_quadrature"):
        for n in 101 + np.floor(400 * cells.strata(3)).astype(int):
            units.append([{"cls": cls, "n": int(n), **_temperatures(rng)}])
    big = np.round(_log_uniform(cells.strata(4), 1e5, 1e6)).astype(int)
    for i, n in enumerate(big):
        cls = "tv3_closed_big" if i % 2 == 0 else "tt_closed_big"
        units.append([{"cls": cls, "n": int(n), "sub_seed": int(rng.integers(2**31)), **_temperatures(rng)}])
    for cls in ("mc_vacuum", "mc_thermal", "mc_thermal"):
        a = np.sort(rng.uniform(0.2, 3.0, 3))
        spec = {"cls": cls, "a": a.tolist(), "samples": 20000, "mc_seed": int(rng.integers(2**31))}
        units.append([{**spec, **_temperatures(rng)}])
    return units


def _temperatures(rng) -> dict:
    # theta is the LO temperature for thermal/thermal, the signal's otherwise
    return {"theta": float(rng.uniform(0.8, 1.25)), "t1_over_t0": float(rng.uniform(0.8, 1.25))}


def _thermal_a(spec) -> np.ndarray:
    """a = tau * theta, on [0.01, 10] (quadrature) or [0, 10] (large closed-form grids)."""
    if spec["cls"].endswith("_big"):
        return np.linspace(0.0, 10.0, spec["n"])
    return np.linspace(0.01, 10.0, spec["n"])


def _big_subsample(spec) -> np.ndarray:
    rng = np.random.default_rng(spec["sub_seed"])
    picks = rng.choice(np.arange(1, spec["n"] - 1), BIG_SUBSAMPLE - 2, replace=False)
    return np.concatenate([[0], np.sort(picks), [spec["n"] - 1]])


# ---------------------------------------------------------------------------
# inverse: fits of all four models, state-class discrimination, coherence time


_FIT_MODELS = ("thermal_thermal", "one_photon_vacuum", "fock_fock", "coherent_coherent")


def _inverse_block(cells: _Cells) -> list[list[dict]]:
    rng = cells.rng
    # Six fits (every model; the Fock and coherent fits swap noise-free and
    # noisy between even and odd blocks), four discriminations, six coherence
    # times.  The four fast fits sit below p50, which falls inside the tight
    # cluster of coherence times; p90 falls among the discriminations.  Of
    # the two Fock discriminations one has its signal below the LO and one
    # above: today the second always raises, so every block fails one op.
    odd = cells.block % 2 == 1
    fits = [("thermal_thermal", False), ("thermal_thermal", True), ("one_photon_vacuum", False),
            ("one_photon_vacuum", True), ("fock_fock", odd), ("coherent_coherent", not odd)]
    units = []
    for model, noisy in fits:
        cls = f"fit_{model}" + ("_noisy" if noisy else "")
        units.append([{"cls": cls, "model": model, **_fit_problem(rng, model, noisy)}])
    for model, sign in (("fock_fock", -1.0), ("fock_fock", 1.0), ("coherent_coherent", None), ("coherent_coherent", None)):
        units.append([{"cls": "discriminate", "model": model, **_fit_problem(rng, model, False, sign)}])
    for eps in _log_uniform(cells.strata(6), 1e-3, 0.2):
        units.append([{"cls": "coherence", "epsilon": float(eps), "theta": float(rng.uniform(0.8, 1.25))}])
    return units


def _fit_problem(rng, model, noisy, sign=None) -> dict:
    """`sign` puts the signal above (+1) or below (-1) the LO; None draws it."""
    out = {"n": int(rng.integers(120, 401)), "noise_seed": int(rng.integers(2**31)) if noisy else None}
    if model == "thermal_thermal":
        ratio = 1.0 + _sign(rng) * float(rng.uniform(0.01, 0.2))
        theta0 = float(rng.uniform(0.8, 1.25))
        out.update(truth=[ratio], fixed={"theta0": theta0}, t_max=3.0 / theta0, initial=[])
        return out
    width = float(rng.uniform(0.7, 1.4))
    if model == "one_photon_vacuum":
        truth = [float(rng.uniform(2.5, 8.0)) * width, width]
        fixed = {}
    else:
        lo = float(rng.uniform(3.0, 10.0)) * width
        side = _sign(rng) if sign is None else sign
        offset = float(rng.uniform(0.01, 0.05))
        truth = [lo * (1.0 + side * offset), width]
        fixed = {"lo_mean_freq": lo, "width_guess": width}
    # start a few per cent off the truth
    initial = [p * (1.0 + float(rng.uniform(-0.03, 0.03))) for p in truth]
    if model != "one_photon_vacuum":
        # on the truth's side of the LO: where the two means meet the Fock
        # model is flat and the width has no effect, a degenerate start
        initial[0] = lo * (1.0 + side * offset * float(rng.uniform(0.7, 1.3)))
    out.update(truth=truth, fixed=fixed, t_max=6.0 / width, initial=initial)
    return out


def fit_data(spec):
    """(tau, ratios, per-point noise or None), generated without mmi."""
    tau = np.linspace(0.0, spec["t_max"], spec["n"])
    data = ref.fit_model(spec["model"], tau, spec["truth"], spec["fixed"])
    if spec["noise_seed"] is None:
        return tau, data, None
    rng = np.random.default_rng(spec["noise_seed"])
    sigma = float(rng.uniform(3e-4, 3e-3)) * rng.uniform(0.5, 1.5, tau.size)
    return tau, data + sigma * rng.standard_normal(tau.size), sigma


# ---------------------------------------------------------------------------
# cli: `python -m mmi` processes running the README pipeline


def _cli_block(cells: _Cells) -> list[list[dict]]:
    rng = cells.rng
    units = []
    for k in range(3):
        sim = {
            "cls": "simulate_tt",
            "n": int(rng.integers(100, 301)),
            "theta0": float(rng.uniform(0.8, 1.25)),
            "t1_over_t0": 1.0 + _sign(rng) * float(rng.uniform(0.01, 0.2)),
        }
        units.append([sim, {"cls": "fit_tt", "sim": sim, "noise": k == 2}])
    for k in range(3):
        width = float(rng.uniform(0.7, 1.4))
        sim = {"cls": "simulate_opv", "n": int(rng.integers(100, 301)), "width": width,
               "mean": float(rng.uniform(2.5, 8.0)) * width}
        guess = [sim["mean"] * (1.0 + float(rng.uniform(-0.03, 0.03))), width * (1.0 + float(rng.uniform(-0.03, 0.03)))]
        units.append([sim, {"cls": "fit_opv", "sim": sim, "noise": k == 2, "initial": guess}])
    # The four long grids (18 % of the commands, nearly twice a light
    # command's time) sit just below verify (5 %), so p90 falls inside their
    # cluster, not at the noisy upper edge of the light commands.
    for n in 1600 + np.floor(400 * cells.strata(4)).astype(int):
        units.append([{"cls": "simulate_tv_both", "n": int(n), "theta": float(rng.uniform(0.8, 1.25))}])
    for eps in _log_uniform(cells.strata(3), 1e-3, 0.2):
        units.append([{"cls": "coherence_si", "epsilon": float(eps), "kelvin": float(rng.uniform(1.0, 300.0))}])
    units.append([{"cls": "verify_quick"}])
    # documented error paths: a malformed CSV exits 2, a flat interferogram exits 4
    units.append([{"cls": "fit_malformed", "n": int(rng.integers(20, 60)), "bad_row": int(rng.integers(1, 19))}])
    units.append([{"cls": "fit_flat", "n": int(rng.integers(20, 60))}])
    return units


_EXPECTED_EXIT = {"fit_malformed": 2, "fit_flat": 4}


def expected_exit(spec) -> int:
    return _EXPECTED_EXIT.get(spec["cls"], 0)


def _csv_name(spec) -> str:
    # a simulate op and the fit that reads its CSV share a unit
    return f"b{spec['block']}_u{spec['unit']}.csv"


def _cli_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_args(spec, workdir: Path) -> list[str]:
    cls = spec["cls"]
    if cls == "simulate_tt":
        return ["simulate", "thermal-thermal", "--theta0", repr(spec["theta0"]), "--t1/t0", repr(spec["t1_over_t0"]),
                "--grid", f"0:3:{spec['n']}", "-o", _csv_name(spec)]
    if cls == "simulate_opv":
        return ["simulate", "one-photon-vacuum", "--wbar-s", repr(spec["mean"]), "--sigma", repr(spec["width"]),
                "--method", "closed_form", "--grid", f"0:{6.0 / spec['width']!r}:{spec['n']}", "-o", _csv_name(spec)]
    if cls == "simulate_tv_both":
        return ["simulate", "thermal-vacuum", "--d", "3", "--method", "both", "--theta", repr(spec["theta"]),
                "--grid", f"0.01:6:{spec['n']}", "-o", _csv_name(spec)]
    if cls in ("fit_tt", "fit_opv"):
        data = _csv_name(spec)
        if spec["noise"]:
            data = _with_noise_column(workdir, data)
        if cls == "fit_tt":
            return ["fit", data, "--model", "thermal-thermal", "--theta0", repr(spec["sim"]["theta0"])]
        return ["fit", data, "--model", "one-photon-vacuum", "--p0", repr(spec["initial"][0]),
                "--p1", repr(spec["initial"][1])]
    if cls == "coherence_si":
        return ["coherence", "--si", "--temperature", repr(spec["kelvin"]), "--epsilon", repr(spec["epsilon"])]
    if cls == "verify_quick":
        return ["verify", "--quick"]
    name = _csv_name(spec)
    rows = [f"{float(a)!r},1.0" for a in np.linspace(0.0, 3.0, spec["n"])]
    if cls == "fit_malformed":
        rows[spec["bad_row"]] = rows[spec["bad_row"]].replace(",", ",x")
    (workdir / name).write_text("a,ratio\n" + "\n".join(rows) + "\n")
    return ["fit", name, "--model", "thermal-thermal"]


def _with_noise_column(workdir: Path, name: str) -> str:
    """Copy of a simulate CSV with a constant `noise` column; the ratios are unchanged."""
    src = workdir / name
    out = name.replace(".csv", "_noise.csv")
    if src.exists():
        lines = src.read_text().splitlines()
        body = [lines[0] + ",noise"] + [line + ",0.001" for line in lines[1:]]
        (workdir / out).write_text("\n".join(body) + "\n")
    return out


# ---------------------------------------------------------------------------
# running one op


def prepare(spec, workdir: Path):
    """(call, finish): `call` is the timed op; `finish` turns its result into a record.

    Inputs are built here, outside the timed region.
    """
    import mmi.inference
    import mmi.intensity
    import mmi.oracle
    from mmi import Coherent, FitProblem, IntensityRequest, OnePhoton, SpectralDistribution, Thermal, Vacuum

    cls = spec["cls"]
    if "kind" in spec:
        tau = np.linspace(0.0, spec["t_max"], spec["n"])

        def call():
            f_s = SpectralDistribution(spec["mean_s"], spec["width"])
            if spec["kind"] == "one_photon_vacuum":
                request = IntensityRequest(OnePhoton(f_s), Vacuum(), tau)
            else:
                port = OnePhoton if spec["kind"] == "fock" else Coherent
                f_lo = SpectralDistribution(spec["mean_lo"], spec["width"])
                request = IntensityRequest(port(f_s), port(f_lo), tau)
            return mmi.intensity.compute_interferogram(request).ratios

        return call, lambda ratios: {"ratios": ratios}

    if cls.startswith(("tv", "tt")):
        tau = _thermal_a(spec) / spec["theta"]
        d = 1 if cls.startswith("tv1") else 3
        method = "quadrature" if cls.endswith("quadrature") else "auto"
        theta = spec["theta"]

        def call():
            if cls.startswith("tt"):
                ports = (Thermal(spec["t1_over_t0"] * theta), Thermal(theta))
            else:
                ports = (Thermal(theta), Vacuum())
            return mmi.intensity.compute_interferogram(IntensityRequest(*ports, tau, d, method)).ratios

        if cls.endswith("_big"):
            keep = _big_subsample(spec)
            return call, lambda ratios: {"ratios": ratios[keep], "digest": _digest(ratios)}
        return call, lambda ratios: {"ratios": ratios}

    if cls.startswith("mc_"):
        theta = spec["theta"]
        theta_lo = theta if cls == "mc_thermal" else None
        theta_s = spec["t1_over_t0"] * theta if cls == "mc_thermal" else theta
        tau = np.asarray(spec["a"]) / theta

        def call():
            return mmi.oracle.thermal_intensity_montecarlo(
                theta_s, theta_lo, tau, samples=spec["samples"], seed=spec["mc_seed"]
            )

        return call, lambda mc: {"ratios": mc.ratios, "stderrs": mc.stderrs}

    if cls.startswith("fit_") and "model" in spec:
        tau, data, noise = fit_data(spec)

        def call():
            problem = FitProblem(tau=tau, ratios=data, model=spec["model"], fixed=spec["fixed"],
                                 initial=tuple(spec["initial"]), noise=noise)
            return mmi.inference.fit(problem)

        return call, lambda res: {"estimates": list(res.estimates.values()), "iterations": res.iterations}

    if cls == "discriminate":
        tau, data, _ = fit_data(spec)
        lo = spec["fixed"]["lo_mean_freq"]

        def call():
            return mmi.inference.discriminate_state_class(tau, data, SpectralDistribution(lo, spec["truth"][1]))

        def finish(res):
            chosen = res.fock_fit if spec["model"] == "fock_fock" else res.coherent_fit
            return {"label": res.label, "estimates": list(chosen.estimates.values())}

        return call, finish

    if cls == "coherence":

        def call():
            return mmi.inference.estimate_coherence_time(spec["theta"], spec["epsilon"])

        return call, lambda rep: {"a_c": rep.a_c, "tau_c": rep.tau_c}

    # cli
    argv = [sys.executable, "-m", "mmi", *_cli_args(spec, workdir)]
    env = _cli_env()

    def call():
        return subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def finish(proc):
        record = {"code": proc.returncode, "stdout": proc.stdout, "bytes": 0}
        if cls.startswith("simulate"):
            csv_path = workdir / _csv_name(spec)
            if csv_path.exists():
                record["csv"] = csv_path.read_text()
                record["bytes"] = csv_path.stat().st_size + csv_path.with_suffix(".json").stat().st_size
        elif cls == "verify_quick":
            record["stdout"] = ""  # long report; the exit code carries the verdict
        return record

    return call, finish


def _digest(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def record_digest(record: dict) -> str:
    """Bitwise fingerprint of an op's outputs, for the tracer-transparency check."""
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(record):
        value = record[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def warmup_specs(workload: str) -> list[dict]:
    """One small op of each entry point a workload uses (lazy set-up)."""
    if workload == "spectral":
        return [
            {"cls": k, "kind": k, "mean_s": 10.0, "mean_lo": 10.3, "width": 1.0, "n": 3, "t_max": 2.0}
            for k in ("fock", "coherent", "one_photon_vacuum")
        ]
    if workload == "thermal":
        base = {"n": 3, "theta": 1.0, "t1_over_t0": 1.1}
        return [
            {"cls": "tv1_quadrature", **base},
            {"cls": "tv3_quadrature", **base},
            {"cls": "tt_quadrature", **base},
            {"cls": "tt_closed", **base},
            {"cls": "mc_vacuum", "a": [0.5, 1.0, 2.0], "samples": 1000, "mc_seed": 1, **base},
            {"cls": "mc_thermal", "a": [0.5, 1.0, 2.0], "samples": 1000, "mc_seed": 1, **base},
        ]
    if workload == "inverse":
        rng = np.random.default_rng(0)
        # coherent data: the discrimination of Fock closed-form data can raise
        return [{"cls": "fit_" + m, "model": m, **_fit_problem(rng, m, False)} for m in _FIT_MODELS] + [
            {"cls": "discriminate", "model": "coherent_coherent", **_fit_problem(rng, "coherent_coherent", False)},
            {"cls": "coherence", "epsilon": 0.04, "theta": 1.0},
        ]
    return []


# ---------------------------------------------------------------------------
# checks against the exact references (run in the parent, after the timed loop)


NOISY_FIT_SPREAD = 0.05  # a noisy fit's minimum lies this close to the truth (about 100 standard errors)


def check(workload: str, specs: list[dict], records: list) -> list[tuple[str, float | None]]:
    """(status, deviation) per op; `records[i]` is None when op i raised.

    status is "ok", "raised" (an exception, or a non-zero exit code that was
    not the expected one) or "wrong" (a value outside tolerance, or exit 0
    where an error was documented): a silent wrong answer.  The deviation is
    |ratio - reference| for grids and CSVs and the relative error for fit
    parameters and coherence horizons; it is None where the check is not a
    distance (Monte-Carlo z-scores, exit codes).
    """
    out: list = [None] * len(specs)
    horizon_ops = []
    for i, (spec, rec) in enumerate(zip(specs, records)):
        if rec is None:
            out[i] = ("raised", None)
        elif workload == "cli":
            out[i] = _check_cli(spec, rec)
            if spec["cls"] == "coherence_si" and out[i][0] == "ok":
                payload = json.loads(rec["stdout"])
                theta = spec["kelvin"] * K_B / HBAR
                horizon_ops.append((i, spec["epsilon"], payload["a_c"], payload["tau_c_seconds"] * theta))
        elif spec["cls"] == "coherence":
            horizon_ops.append((i, spec["epsilon"], rec["a_c"], rec["tau_c"] * spec["theta"]))
        else:
            out[i] = _check_library(spec, rec)
    if horizon_ops:
        exact = ref.CoherenceHorizon()(np.array([h[1] for h in horizon_ops]))
        for (i, _, a_c, a_from_tau), a_ref in zip(horizon_ops, exact):
            out[i] = _rel_check([a_c, a_from_tau], [a_ref, a_ref])
    return out


def _ratio_check(got, exact) -> tuple[str, float]:
    err = float(np.max(np.abs(np.asarray(got) - exact)))
    return ("ok" if err <= ref.RATIO_TOL else "wrong"), err


def _rel_check(got, truth) -> tuple[str, float]:
    err = float(np.max(np.abs(np.asarray(got) / np.asarray(truth) - 1.0)))
    return ("ok" if err <= ref.PARAM_TOL else "wrong"), err


def _check_library(spec, rec) -> tuple[str, float | None]:
    cls = spec["cls"]
    if "kind" in spec:
        tau = np.linspace(0.0, spec["t_max"], spec["n"])
        exact = ref.spectral_ratio(spec["kind"], spec["mean_s"], spec["width"], spec["mean_lo"], spec["width"], tau)
        return _ratio_check(rec["ratios"], exact)
    if cls.startswith(("tv", "tt", "mc_")):
        if cls.startswith("mc_"):
            a = np.asarray(spec["a"])
        else:
            a = _thermal_a(spec)
            if cls.endswith("_big"):
                a = a[_big_subsample(spec)]
        if cls.startswith(("tt", "mc_thermal")):
            exact = ref.thermal_thermal(a, spec["t1_over_t0"])
        else:
            exact = ref.thermal_vacuum(a, 1 if cls.startswith("tv1") else 3)
        if cls.startswith("mc_"):
            z = float(np.max(np.abs(rec["ratios"] - exact) / rec["stderrs"]))
            return ("ok" if z <= ref.MC_SIGMAS else "wrong"), None
        return _ratio_check(rec["ratios"], exact)
    if cls == "discriminate":
        want = "fock-like" if spec["model"] == "fock_fock" else "coherent-like"
        status, err = _rel_check(rec["estimates"], spec["truth"])
        return (status if rec["label"] == want else "wrong"), err
    # fits: noise-free against the truth, noisy against the least-squares minimum
    if spec["noise_seed"] is None:
        return _rel_check(rec["estimates"], spec["truth"])
    tau, data, sigma = fit_data(spec)
    est = np.asarray(rec["estimates"])
    step = ref.gauss_newton_step(spec["model"], tau, data, sigma, est, spec["fixed"])
    err = float(np.max(np.abs(step / est)))
    near_truth = bool(np.all(np.abs(est / spec["truth"] - 1.0) <= NOISY_FIT_SPREAD))
    return ("ok" if err <= ref.PARAM_TOL and near_truth else "wrong"), err


def _read_csv(text: str) -> np.ndarray:
    lines = text.strip().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _check_cli(spec, rec) -> tuple[str, float | None]:
    cls = spec["cls"]
    if rec["code"] != expected_exit(spec):
        return ("wrong" if rec["code"] == 0 else "raised"), None
    if cls.startswith("simulate"):
        cols = _read_csv(rec.get("csv", "a,ratio\n"))
        if cols.shape[0] != spec["n"]:
            return "wrong", None
        if cls == "simulate_tt":
            exact = ref.thermal_thermal(np.linspace(0.0, 3.0, spec["n"]), spec["t1_over_t0"])
        elif cls == "simulate_opv":
            tau = np.linspace(0.0, 6.0 / spec["width"], spec["n"])
            exact = ref.one_photon_vacuum_closed(spec["mean"], spec["width"], tau)
        else:
            exact = ref.thermal_vacuum(np.linspace(0.01, 6.0, spec["n"]), 3)
        return _ratio_check(cols[:, 1:], exact[:, None])
    if cls in ("fit_tt", "fit_opv"):
        estimates = json.loads(rec["stdout"])["estimates"]
        sim = spec["sim"]
        if cls == "fit_tt":
            return _rel_check([estimates["theta_ratio"]], [sim["t1_over_t0"]])
        return _rel_check([estimates["mean_freq"], estimates["width"]], [sim["mean"], sim["width"]])
    # verify and the error paths: the exit code is the whole promise;
    # coherence is checked against the horizon by the caller
    return "ok", None


_BLOCKS = {
    "spectral": _spectral_block,
    "thermal": _thermal_block,
    "inverse": _inverse_block,
    "cli": _cli_block,
}
