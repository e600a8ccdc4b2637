"""Benchmark of mmi: four closed-loop workloads, one caller, driven by a seed.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced, as a fixed number of whole
blocks of ops that takes about ``--seconds`` seconds on the reference host,
and the end-to-end metrics are printed.  Each op's time is scaled to the
reference host's speed by the calibrations taken next to it, between the ops,
because a shared host's speed drifts within seconds.
With ``--trace 1`` a fixed prefix of the same op stream runs once untraced
and once under the tracer, and the per-layer metrics are printed.  Every
output is checked against the exact references of ``references.py``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in a child process (``worker.py``) that loads only mmi and
numpy, so its peak memory is the workload's; this process loads scipy and
mpmath for the references.  Everything it writes stays under
``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (stdlib-only at import)

SETUP_STARTS = 5  # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 170.0
ACCURACY_FLOOR = 1e-16  # a deviation below float64 resolution reads as 16 digits


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def setup_seconds(workload: str) -> tuple[float, float]:
    """Median over fresh interpreters of start -> `import mmi` -> warm-up calls done,
    and the host's slowness relative to the reference, from bare interpreter
    starts between them."""
    times, calib = [], []
    for _ in range(SETUP_STARTS):
        calib.append(worker.interpreter_start_s())
        start = time.monotonic()
        proc = _child(["probe", workload])
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(report["done"] - start - report["excluded"])
    return statistics.median(times), worker.slowness("interpreter", calib)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _load(args: list[str], out: Path) -> dict:
    proc = _child(args)
    if proc.returncode != 0 or not out.exists():
        _fail(f"worker {' '.join(args[:2])} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return pickle.loads(out.read_bytes())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["spectral", "thermal", "inverse", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mmi" / "__init__.py").is_file():
        _fail(f"no mmi package under {ROOT / 'src'}; run from a checkout of the repository")
    import references
    import workloads

    (HERE / "_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        out = scratch / "result.pkl"
        if args.trace:
            setup = None
            payload = _load(["trace", args.workload, str(args.seed), str(out)], out)
        else:
            setup, slow_setup = setup_seconds(args.workload)
            payload = _load(["run", args.workload, str(args.seed), str(args.seconds), str(out)], out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = payload["ops"]
    verdicts = workloads.check(args.workload, [op["spec"] for op in ops], [op["record"] for op in ops])
    ok = [status == "ok" for status, _ in verdicts]
    deviations = [dev for status, dev in verdicts if status == "ok" and dev is not None]
    attempted = len(ops)
    failed = attempted - sum(ok)
    self_checks = {
        "references_vs_mpmath": references.self_check() <= 1e-13,
        "no_silent_wrong_answers": all(status != "wrong" for status, _ in verdicts),
    }
    if args.trace:
        self_checks["tracer_transparent"] = payload["transparent"]

    for op, (status, _) in zip(ops, verdicts):
        if status != "ok":
            detail = op["error"] or ("unexpected exit code" if status == "raised" else "output outside tolerance")
            print(f"failed op {op['spec']['cls']} (block {op['spec']['block']}): {detail}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = payload["layer"]
        print(f"tracer: {payload['spans']} spans; overhead {payload['layer']['trace.overhead_frac']:.1%}"
              f"; hooks missing: {payload['missing_hooks'] or 'none'}")
    else:
        raw_latencies = [op["latency"] for op, g in zip(ops, ok) if g]
        if not raw_latencies:
            _fail("no op succeeded")
        worst = max(deviations, default=0.0)
        slows = worker.op_slowness(worker.calibration_kind(args.workload), payload["calib"], ops)
        good_latencies = [op["latency"] / s for op, s, g in zip(ops, slows, ok) if g]
        busy = sum(op["latency"] / s for op, s in zip(ops, slows))
        slow = payload["busy_s"] / busy
        values = {
            "setup_s": setup / slow_setup,
            "latency_p50_ms": 1e3 * statistics.median(good_latencies),
            "latency_p90_ms": 1e3 * _percentile(good_latencies, 90),
            "ops_per_s": len(good_latencies) / busy,
            "success_frac": len(good_latencies) / attempted,
            "accuracy_digits": -math.log10(max(worst, ACCURACY_FLOOR)),
            "peak_rss_mb": payload["peak_rss_mb"],
        }
        print(f"{args.workload}: {attempted} ops, {failed} failed, {len(good_latencies)} timed latencies;"
              f" worst deviation {worst:.3e}")
        print(f"host slowness: {slow:.3f} x reference during the loop, {slow_setup:.3f} x during set-up;"
              f" raw p50 {1e3 * statistics.median(raw_latencies):.4g} ms, raw set-up {setup:.4g} s")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        _fail(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    for name, ok_flag in self_checks.items():
        print(f"self-check {name}: {'pass' if ok_flag else 'FAIL'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>16.6g} {unit}")
    result = {
        "correct": all(self_checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
