"""Check that every per-layer count repeats exactly for a seed.

    python3 perfbench/determinism.py --seed 7 [--workload spectral ...]

Runs the traced run twice per workload and compares every metric whose
unit is ``count``; exits 1 on any difference or on a run that is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> tuple[bool, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    return result["correct"], counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", nargs="*", default=["spectral", "thermal", "inverse", "cli"])
    args = parser.parse_args()
    clean = True
    for workload in args.workload:
        (ok1, first), (ok2, second) = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        clean &= ok1 and ok2 and not differ
        nonzero = {k: v for k, v in first.items() if v}
        print(f"{workload}: correct={ok1 and ok2} counts differing: {differ or 'none'}")
        print("  " + json.dumps(nonzero, sort_keys=True))
    sys.exit(0 if clean else 1)


if __name__ == "__main__":
    main()
