"""epasim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload solve-4096 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds ``src/epasim``. The run
repeats problem instances generated from ``--seed`` for about ``--seconds``
seconds and checks every output. With ``--trace 0`` it reports the
end-to-end metrics, medians over the repetitions; the run times in them are
scaled to the host's typical speed by a reference loop timed around each
repetition (see ``harness.REFERENCE_LOOP_S``). With ``--trace 1`` it
alternates untraced and traced repetitions, reports the per-layer metrics
derived from the spans, and writes the spans to ``perfbench/out/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
environment and name every metric with its unit, plus the fraction of
output checks that failed.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1707


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "epasim").is_dir():
        print(f"error: no epasim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import environment, measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    metrics, checks, info = measure(workload, args.seed, args.seconds,
                                    reference.get(workload.name),
                                    HERE / "out" if args.trace else None)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("# env " + json.dumps(environment()))
    print("# run " + json.dumps({"workload": workload.name, "seed": args.seed, **info}))
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    failed = len(checks.failures)
    print(f"{workload.name} fail_frac {failed / checks.attempted:.6g} 1 "
          f"({failed} of {checks.attempted} checks failed)")
    for reason in checks.failures:
        print(f"# FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
