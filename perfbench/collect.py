"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/collect.py --runs 10 --trace-runs 3 --out perfbench/BENCH_baseline.json

Each run is a separate ``run.py`` process. Seeds run in the outer loop and
workloads in the inner one, so slow spells of the machine fall on every
workload alike. For each metric the table gives the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the bound that BENCHMARK.json fixes. The run length
and the workloads always come from BENCHMARK.json, so two collections on
different commits measure the same thing. With ``--runs 1``
it is the one command that prints every end-to-end metric of every
workload with its unit, plus the fraction of failed output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")),
                         None)
    for line in lines:
        if line.startswith("# FAILED"):
            print(f"{workload} seed {seed}: {line[2:]}", file=sys.stderr)
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--trace-runs", type=int, default=0, help="traced runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    ap.add_argument("--out", help="append the summary to this JSON file")
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + max(args.runs, args.trace_runs)))
    plain = {w: [] for w in names}
    traced = {w: [] for w in names}
    env = None
    for i, seed in enumerate(seeds):
        for w in names:
            for trace, store, count in ((0, plain, args.runs), (1, traced, args.trace_runs)):
                if i < count:
                    r = run_once(w, seed, seconds, trace)
                    env = env or r.pop("env")
                    store[w].append(r)

    summary = {"label": args.label, "env": env, "run_seconds": seconds,
               "seeds": seeds, "workloads": {}}
    print(f"{'workload':12} {'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in names:
        attempted = sum(r["attempted"] for r in plain[w] + traced[w])
        failed = sum(r["failed"] for r in plain[w] + traced[w])
        entry = {"attempted": attempted, "failed": failed,
                 "fail_frac": failed / attempted if attempted else 0.0}
        for key, results in (("end_to_end", plain[w]), ("per_layer", traced[w])):
            if not results:
                continue
            entry[key] = summarise(results)
            for name, s in entry[key].items():
                bound = f"{bounds[name]:.2f}" if name in bounds else ""
                print(f"{w:12} {name:32} {s['unit']:6} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:7.3f} {bound:>6}")
        print(f"{w:12} {'fail_frac':32} {'1':6} {entry['fail_frac']:12.6g}   "
              f"({failed} of {attempted} checks failed)")
        summary["workloads"][w] = entry
    if args.out:
        # the file is a list of entries, oldest first; a new summary is appended
        out = Path(args.out)
        entries = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
        entries.append(summary)
        out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0 if all(e["failed"] == 0 for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
