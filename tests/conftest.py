import math
import os
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mmi.quadrature import QuadratureResult, integrate  # noqa: E402  (bound here: tests may monkeypatch the module's name)


def subprocess_env():
    """Environment for CLI subprocess tests: the package importable from src."""
    env = os.environ.copy()
    extra = str(SRC)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{extra}{os.pathsep}{existing}" if existing else extra
    return env


def integrate_by_quarter_periods(f, lo, hi, rate, **tolerances):
    """``integrate`` of a plain integrand that oscillates at angular rate ``rate``, as a
    reference route: [lo, hi] is cut into equal pieces of at most eight quarter periods
    (4π/rate), so that every first-pass panel spans at most a quarter period, and the
    pieces' values, errors, panels and evaluations are summed."""
    pieces = max(1, math.ceil((hi - lo) * rate / (4.0 * math.pi)))
    edges = np.linspace(lo, hi, pieces + 1)
    parts = [integrate(f, a, b, **tolerances) for a, b in zip(edges[:-1], edges[1:])]
    return QuadratureResult(
        sum(p.value for p in parts), sum(p.error for p in parts), sum(p.panels for p in parts), sum(p.evaluations for p in parts)
    )
