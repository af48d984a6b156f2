"""Regenerate ``reference.json``: outputs of the unjittered reference instances.

    python3 perfbench/reference.py

Rewrite the file only when the solver is meant to change its results.
Then say why in the change that rewrites it: the benchmark compares every
run's instance 0 of solve-4096 and verify-1024 with this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, clear_caches, execute  # noqa: E402


def main() -> None:
    out = {}
    for name in ("solve-4096", "verify-1024"):
        wl = WORKLOADS[name]
        params = wl.params(None)
        clear_caches()
        jobs = wl.setup(params)
        out[name] = wl.reference(jobs, execute(jobs))
    with open(HERE / "reference.json", "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
