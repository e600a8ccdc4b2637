"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quick tour", "exec"), namespace)
    assert abs(namespace["result"].estimates["theta_ratio"] - 1.01) < 1e-9
    assert abs(namespace["report"].a_c - 1.5) < 1e-8
