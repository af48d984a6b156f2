"""Repetition loop of one benchmark run, untraced or traced."""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import Totals, Tracer, layer_metrics
from workloads import Checks, Execution, clear_caches, execute, instances

# Each repetition sets its instance up this many times, from empty caches,
# so that the set-up median rests on enough samples.
SETUP_REPEATS = 10

# Host speed. Other tenants share the cores of the 2-core host this benchmark
# was tuned on, and its speed drifts by +-20 % over minutes, which no median
# inside one run removes. So a fixed reference loop that runs no epasim code
# is timed before and after each repetition, and the repetition's times,
# set-up included, are scaled by REFERENCE_LOOP_S[n] / (mean of those two
# loop times): they are seconds at the host's typical speed. The raw medians
# are printed as well.
REFERENCE_LOOP_S = {256: 3.5e-5, 1024: 4.7e-5, 4096: 1.3e-4}
REFERENCE_LOOP_BUDGET_S = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if hasattr(np.fft, "_pocketfft_umath") else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v, "") for v in THREAD_VARS},
    }


def fft_floor_us(n: int, pairs: int = 200, batches: int = 15) -> float:
    """Median time of one bare rfft + irfft pair at size n."""
    x = np.cos(2 * np.pi * np.arange(n) / n) + 0.1 * np.sin(6 * np.pi * np.arange(n) / n)
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(pairs):
            np.fft.irfft(np.fft.rfft(x), n=n)
        times.append((time.perf_counter() - t0) / pairs)
    return statistics.median(times) * 1e6


def reference_loop_s(n: int) -> float:
    """Mean time of one pass of a fixed FFT and small-array loop at size n."""
    x = np.cos(2 * np.pi * np.arange(n) / n)
    mult = 1j * np.arange(n // 2 + 1)
    passes = 0
    t0 = time.perf_counter()
    while True:
        for _ in range(10):
            y = np.fft.irfft(np.fft.rfft(x) * mult, n=n)
            float(np.max(np.abs(y - np.roll(y, 3))))
        passes += 10
        elapsed = time.perf_counter() - t0
        if elapsed >= REFERENCE_LOOP_BUDGET_S:
            return elapsed / passes


def peak_mem_mb(workload, params: dict) -> float:
    """Peak memory of one instance's run, in MB, counting what set-up left.

    Taken with tracemalloc, which sees every numpy array and Python object
    the workload makes but not the interpreter's or numpy's own footprint.
    It slows the code down, so this pass is separate from the timed ones.
    The set-up's own transient peak is left out: on verify-1024 it is the
    7 MB probe array of kernels.kernel_min, fixed by the kernel, which would
    hide any growth of the run below it.
    """
    clear_caches()
    tracemalloc.start()
    try:
        jobs = workload.setup(params)
        tracemalloc.reset_peak()
        execute(jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def set_up_and_run(workload, params: dict, ref: dict | None, checks: Checks,
                   tracer: Tracer | None = None) -> tuple[list[float], Execution]:
    """Set the instance up SETUP_REPEATS times, run the last set-up, check it."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t0 = time.perf_counter()
        with _span(tracer, "setup"):
            jobs = workload.setup(params)
        setup_s.append(time.perf_counter() - t0)
    with _span(tracer, "run"):
        ex = execute(jobs)
    workload.check(jobs, ex, ref, checks)
    return setup_s, ex


def measure(workload, seed: int, seconds: float, reference: dict | None,
            trace_dir: Path | None = None):
    """Repeat instances for about ``seconds``; return (metrics, checks, info).

    With a ``trace_dir`` the run alternates untraced and traced passes,
    returns the per-layer metrics, and writes to ``trace_dir`` every span of
    the first traced pass plus per-name totals over all of them.
    """
    trace = trace_dir is not None
    checks = Checks()
    tracer = Tracer() if trace else None
    floor = fft_floor_us(workload.n) if trace else 0.0
    setups, walls, p50s, p95s, overheads = [], [], [], [], []
    start = last = time.perf_counter()
    if not trace:
        # the first jittered instance, so that the figure follows the seed;
        # one plain run first, as the first calls pay one-off costs
        mem_params = next(itertools.islice(instances(workload, seed), 1, None))
        execute(workload.setup(mem_params))
        peak_mb = peak_mem_mb(workload, mem_params)
    loops = [] if trace else [reference_loop_s(workload.n)]
    steps_timed = traced_steps = first_spans = 0
    first_steps = None
    index = 0
    for params in instances(workload, seed):
        # start a repetition only if one as long as the last still fits
        now = time.perf_counter()
        if index > 0 and now + (now - last) - start > seconds:
            break
        last = now
        ref = reference if index == 0 else None
        if not trace:
            setup_s, ex = set_up_and_run(workload, params, ref, checks)
            loops.append(reference_loop_s(workload.n))
            setups.append(setup_s)
            walls.append(ex.wall_s)
            q = statistics.quantiles(ex.step_s, n=100, method="inclusive")
            p50s.append(q[49])
            p95s.append(q[94])
            steps_timed += len(ex.step_s)
        else:
            # alternate which side goes first, so drift charges both alike
            plain_first = index % 2 == 0
            if plain_first:
                plain = set_up_and_run(workload, params, ref, checks)[1]
            with tracer.installed():
                traced = set_up_and_run(workload, params, ref, checks, tracer)[1]
            if not plain_first:
                plain = set_up_and_run(workload, params, ref, checks)[1]
            steps = sum(o.steps for o in traced.outcomes)
            traced_steps += steps
            if first_steps is None:
                first_steps, first_spans = steps, len(tracer.spans)
            overheads.append(traced.wall_s / plain.wall_s - 1.0)
        index += 1

    info = {"repetitions": index, "steps": traced_steps if trace else steps_timed}
    if trace:
        totals = Totals(tracer.spans)
        metrics = layer_metrics(totals, traced_steps, first_steps, floor,
                                statistics.median(overheads))
        trace_dir.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{seed}"
        tracer.write(trace_dir / f"spans-{stem}.csv.gz", first_spans)
        (trace_dir / f"totals-{stem}.json").write_text(json.dumps(totals.table(), indent=1))
        return metrics, checks, info
    # Step percentiles are taken per repetition and their median reported,
    # so a repetition hit by a burst of load on the host moves them little.
    speed = [2.0 * REFERENCE_LOOP_S[workload.n] / (a + b) for a, b in zip(loops, loops[1:])]
    info.update({"raw_setup_s": statistics.median(itertools.chain(*setups)),
                 "raw_wall_s": statistics.median(walls),
                 "raw_step_ms.p50": statistics.median(p50s) * 1e3,
                 "raw_step_ms.p95": statistics.median(p95s) * 1e3,
                 "host_speed": statistics.median(speed)})
    metrics = {
        "setup_s": statistics.median(v * f for vs, f in zip(setups, speed) for v in vs),
        "wall_s": statistics.median(w * f for w, f in zip(walls, speed)),
        "step_ms.p50": statistics.median(v * f for v, f in zip(p50s, speed)) * 1e3,
        "step_ms.p95": statistics.median(v * f for v, f in zip(p95s, speed)) * 1e3,
        "peak_mem_mb": peak_mb,
    }
    return metrics, checks, info
