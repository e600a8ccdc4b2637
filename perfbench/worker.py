"""Child process that runs one workload against the checkout's `src/mmi`.

    worker.py probe <workload>
        fresh-interpreter set-up: import mmi, one warm-up call of each entry
        point; prints the monotonic clock when done and the seconds spent in
        benchmark code, which the parent excludes.
    worker.py run <workload> <seed> <seconds> <out.pkl>
        untraced closed loop over a fixed number of whole blocks of ops,
        about <seconds> of op time on the reference host.
    worker.py trace <workload> <seed> <out.pkl>
        the workload's fixed op prefix, untraced and then traced.

Only this process and its `python -m mmi` children count towards
``peak_rss_mb``; the references and checks run in the parent.
"""

from __future__ import annotations

import itertools
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One calibration per this many seconds of op time: the in-process kernel for
# the library workloads, a bare interpreter start for `cli`.
CALIBRATE_EVERY_S = {"cli": 3.0}
CALIBRATE_EVERY_DEFAULT_S = 0.5
# Median calibration times on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6); times are reported at its speed.
CALIBRATION_REFERENCE_S = {"kernel": 0.012, "interpreter": 0.225}
# A run stops early, at a block end, only after this many times --seconds of
# op time: a safety net that keeps a much slower host within the time limit.
MAX_STRETCH = 4.0


def calibration_kind(workload: str) -> str:
    return "interpreter" if workload == "cli" else "kernel"


def slowness(kind: str, samples) -> float:
    """Host slowness relative to the reference host (>1: slower), from calibration samples."""
    return statistics.median(samples) / CALIBRATION_REFERENCE_S[kind]


def op_slowness(kind: str, calib: list[float], ops: list[dict]) -> list[float]:
    """Host slowness at each op: the median of the calibration taken last
    before it and its two neighbours.  The host's speed drifts within
    seconds, so a run-wide median would misjudge part of the ops."""
    return [slowness(kind, calib[max(0, op["cal"] - 1): op["cal"] + 2]) for op in ops]


def _import_mmi():
    sys.path.insert(0, str(SRC))
    import mmi

    if Path(mmi.__file__).resolve().parent != SRC / "mmi":
        raise SystemExit(f"mmi imported from {mmi.__file__}, not from {SRC}")
    return mmi


def _bench_modules():
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def probe(workload: str) -> None:
    _import_mmi()
    if workload == "cli":
        import mmi.cli

        mmi.cli.build_parser().parse_args(["coherence"])
        print(json.dumps({"done": time.monotonic(), "excluded": 0.0}))
        return
    t0 = time.monotonic()
    wl = _bench_modules()
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        calls = [wl.prepare(spec, Path(tmp)) for spec in wl.warmup_specs(workload)]
        excluded = time.monotonic() - t0
        for call, _ in calls:
            call()
        print(json.dumps({"done": time.monotonic(), "excluded": excluded}))


def _run_op(wl, spec, workdir: Path):
    call, finish = wl.prepare(spec, workdir)
    t0 = time.perf_counter()
    try:
        raw = call()
        err = None
    except Exception as exc:  # a raising op is a failed op, counted by the parent
        raw, err = None, f"{type(exc).__name__}: {exc}"[:300]
    dt = time.perf_counter() - t0
    return dt, err, (finish(raw) if err is None else None)


def calibrate(kind: str) -> float:
    """Seconds of a fixed job that does not involve mmi, as a measure of host speed.

    A shared host's speed drifts by a quarter or more within seconds; `run.py`
    scales a run's times by the median of these samples.  The `cli` workload
    is timed against a bare interpreter start ("interpreter"), the others
    against a mix of interpreter and small-array numpy work in this process
    ("kernel").
    """
    if kind == "interpreter":
        return interpreter_start_s()
    import math

    import numpy as np

    x = np.linspace(0.0, 1.0, 2048)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200):
        acc += float((np.exp(-x * (1.0 + 1e-3 * i)) * np.cos(x * i)).sum())
        for j in range(30):
            acc += math.sin(0.1 * j)
    return time.perf_counter() - t0


def _warm_up(wl, workload: str, workdir: Path) -> None:
    for spec in wl.warmup_specs(workload):
        call, _ = wl.prepare(spec, workdir)
        call()


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: str, seed: int, seconds: float, out: Path) -> None:
    _import_mmi()
    wl = _bench_modules()
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        _warm_up(wl, workload, workdir)
        # A fixed number of whole blocks, so that every run holds the same
        # mix of op classes and the same count of ops; calibrations run
        # between ops, outside the op timings.
        every = CALIBRATE_EVERY_S.get(workload, CALIBRATE_EVERY_DEFAULT_S)
        kind = calibration_kind(workload)
        ops, busy, calib, next_cal = [], 0.0, [], 0.0
        for block in itertools.islice(wl.blocks(workload, seed), wl.blocks_per_run(workload, seconds)):
            for spec in block:
                if busy >= next_cal:
                    calib.append(calibrate(kind))
                    next_cal += every
                dt, err, record = _run_op(wl, spec, workdir)
                busy += dt
                ops.append({"spec": spec, "latency": dt, "error": err, "record": record, "cal": len(calib) - 1})
            if busy >= MAX_STRETCH * seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"ops": ops, "busy_s": busy, "peak_rss_mb": _peak_rss_mb(workload), "calib": calib}
    out.write_bytes(pickle.dumps(payload))


def trace(workload: str, seed: int, out: Path) -> None:
    _import_mmi()
    wl = _bench_modules()
    import tracer as tracing

    specs = []
    for block in wl.blocks(workload, seed):
        specs += block
        if len(specs) >= wl.TRACE_OPS[workload]:
            break
    passes = {}
    tr = tracing.Tracer()
    missing = []
    for mode in ("untraced", "traced"):
        workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
        try:
            _warm_up(wl, workload, workdir)
            if mode == "traced":
                missing = tr.install()
            ops = []
            t0 = time.perf_counter()
            for i, spec in enumerate(specs):
                tr.op_id = i
                span = tr.begin("op") if mode == "traced" else None
                dt, err, record = _run_op(wl, spec, workdir)
                if span is not None:
                    tr.finish(span)
                ops.append({"spec": spec, "latency": dt, "error": err, "record": record})
            wall = time.perf_counter() - t0
        finally:
            tr.restore()
            shutil.rmtree(workdir, ignore_errors=True)
        passes[mode] = {"ops": ops, "wall": wall}

    layer = tr.layer_metrics()
    traced, untraced = passes["traced"], passes["untraced"]
    digests = [[wl.record_digest(op["record"] or {"error": op["error"]}) for op in p["ops"]] for p in (untraced, traced)]
    cli_ops = traced["ops"] if workload == "cli" else []
    layer.update({
        "cli.process_s": sum(op["latency"] for op in cli_ops),
        "cli.baseline_interpreter_s": (
            statistics.median(interpreter_start_s() for _ in range(3)) if workload == "cli" else 0.0
        ),
        "cli.bytes_written": sum(op["record"]["bytes"] for op in cli_ops if op["record"]),
        "cli.exit_code_mismatches": sum(
            1 for op in cli_ops if op["record"] is None or op["record"]["code"] != wl.expected_exit(op["spec"])
        ),
        "trace.overhead_frac": traced["wall"] / untraced["wall"] - 1.0,
    })
    spans = tr.arrays()
    import numpy as np

    np.savez(HERE / "_work" / f"trace_{workload}.npz", **spans)
    payload = {
        "ops": untraced["ops"],
        "layer": layer,
        "transparent": digests[0] == digests[1],
        "missing_hooks": missing,
        "spans": int(spans["start"].size),
    }
    out.write_bytes(pickle.dumps(payload))


def interpreter_start_s() -> float:
    """Wall time of `python -c "import numpy"`: the start-up floor that is not mmi's."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def main(argv: list[str]) -> None:
    mode, workload = argv[0], argv[1]
    if mode == "probe":
        probe(workload)
    elif mode == "run":
        run(workload, int(argv[2]), float(argv[3]), Path(argv[4]))
    elif mode == "trace":
        trace(workload, int(argv[2]), Path(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
