"""Span tracing of epasim's layers, installed from outside the package.

The tracer replaces the module-level names that callers use (for example
``epasim.integrator.rhs``) with wrappers that record a span per call. A
name is wrapped once per importing module, so each call is charged to the
layer that made it: ``recover_velocity`` from ``rhs`` counts for the model,
from ``_raw_dt`` for the integrator, from the recorder for diagnostics.
Spans are (name, start, end, parent index) tuples kept in memory; self
times are derived from them afterwards.
"""

from __future__ import annotations

import contextlib
import gzip
import time

import numpy as np

from epasim import diagnostics, integrator, model

# (span name, owner, attribute)
TARGETS = (
    ("spectral.rfft", np.fft, "rfft"),
    ("spectral.irfft", np.fft, "irfft"),
    ("model.rhs", integrator, "rhs"),
    ("model.recover_velocity", model, "recover_velocity"),
    ("model.validate", model.SimState, "validate"),
    ("kernels.g_source", model, "g_source"),
    ("kernels.kernel_min", diagnostics, "kernel_min"),
    ("integrator.step", integrator, "step_ssprk3"),
    ("integrator.dt", integrator, "_raw_dt"),
    ("integrator.recover_velocity", integrator, "recover_velocity"),
    ("integrator.detect", integrator, "derivative"),
    ("diagnostics.bound_constants", diagnostics, "bound_constants"),
    ("diagnostics.row", diagnostics.DiagnosticsRecorder, "__call__"),
    ("diagnostics.recover_velocity", diagnostics, "recover_velocity"),
    ("diagnostics.moc_check", diagnostics, "moc_check"),
    ("diagnostics.moc_min_b", diagnostics, "moc_min_b"),
)

FFT_NAMES = ("spectral.rfft", "spectral.irfft")


class Tracer:
    """In-memory span recorder; ``installed()`` wraps every target."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark itself, such as one run."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, vars(owner)[attr]) for _, owner, attr in TARGETS]
        try:
            for (name, owner, attr), (_, _, orig) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def write(self, path, upto: int) -> None:
        """Write the first ``upto`` spans as gzipped CSV, times in microseconds."""
        spans = self.spans[:upto]
        base = spans[0][1] if spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index,name,start_us,end_us,parent\n")
            for i, (name, t0, t1, parent) in enumerate(spans):
                out.write(f"{i},{name},{(t0 - base) * 1e6:.3f},{(t1 - base) * 1e6:.3f},{parent}\n")


class Totals:
    """Per-name call counts, inclusive and self time, under a given root span."""

    def __init__(self, spans) -> None:
        child = [0.0] * len(spans)
        root = [""] * len(spans)
        for i, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = name
        self.calls: dict[tuple[str, str], int] = {}
        self.incl: dict[tuple[str, str], float] = {}
        self.self_: dict[tuple[str, str], float] = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            key = (root[i], name)
            self.calls[key] = self.calls.get(key, 0) + 1
            self.incl[key] = self.incl.get(key, 0.0) + (t1 - t0)
            self.self_[key] = self.self_.get(key, 0.0) + (t1 - t0 - child[i])
        # recorder rows that ran the modulus check, directly or via moc_min_b
        moc_rows = set()
        for name, _, _, parent in spans:
            if name != "diagnostics.moc_check":
                continue
            while parent >= 0 and spans[parent][0] != "diagnostics.row":
                parent = spans[parent][3]
            moc_rows.add(parent)
        moc_rows.discard(-1)
        self.moc_rows = len(moc_rows)

    def table(self) -> list[dict]:
        """Calls, inclusive and self seconds per (root span, name)."""
        return [{"root": root, "name": name, "calls": calls, "incl_s": self.incl[(root, name)],
                 "self_s": self.self_[(root, name)]}
                for (root, name), calls in sorted(self.calls.items())]

    def count(self, root: str, *names: str) -> int:
        return sum(self.calls.get((root, n), 0) for n in names)

    def total(self, root: str, *names: str) -> float:
        return sum(self.incl.get((root, n), 0.0) for n in names)

    def self_total(self, root: str, *names: str) -> float:
        return sum(self.self_.get((root, n), 0.0) for n in names)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Totals, steps: int, first_steps: int, fft_floor_us: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics from the span totals of every traced repetition.

    ``steps`` is the number of accepted steps over all traced runs and
    ``first_steps`` that of the first traced instance alone. A layer that
    the workload never calls reports 0 for its counts and times. Times
    ending in ``_us`` are inclusive means per call.

    What each group should move, and where:
    - spectral.*: wall_s and step_ms.p50 on solve-4096; fft_floor_us is the
      bare rfft + irfft pair at the workload's n, the floor for the others.
    - model.*: wall_s on solve-4096 and sweep-256.
    - kernels.g_source_*: solve-4096 only (sweep-256 has no potential);
      kernels.kernel_min_s: setup_s on verify-1024.
    - integrator.*: step_ms.p50 on sweep-256 and solve-4096; steps is exact.
    - diagnostics.*: wall_s and step_ms.p95 on verify-1024, nothing
      elsewhere; diagnostics.setup_s: setup_s on verify-1024.
    - trace.overhead: traced over untraced wall time, minus 1.
    """
    run_s = t.total("run", "run")
    setups = t.count("setup", "setup")
    fft_calls = t.count("run", *FFT_NAMES)
    rhs = t.count("run", "model.rhs")
    rv = t.count("run", "model.recover_velocity")
    val = t.count("run", "model.validate")
    gs = t.count("run", "kernels.g_source")
    km = t.count("setup", "kernels.kernel_min")
    st = t.count("run", "integrator.step")
    dt = t.count("run", "integrator.dt")
    det = t.count("run", "integrator.detect")
    rows = t.count("run", "diagnostics.row")
    moc = t.count("run", "diagnostics.moc_check")
    mb = t.count("run", "diagnostics.moc_min_b")
    us = 1e6
    return {
        "spectral.fft_per_step": _ratio(fft_calls, steps),
        "spectral.fft_us": _ratio(t.total("run", *FFT_NAMES), fft_calls) * us,
        "spectral.fft_share": _ratio(t.total("run", *FFT_NAMES), run_s),
        "spectral.fft_floor_us": fft_floor_us,
        "model.rhs_per_step": _ratio(rhs, steps),
        "model.rhs_us": _ratio(t.total("run", "model.rhs"), rhs) * us,
        "model.recover_velocity_per_step": _ratio(rv, steps),
        "model.recover_velocity_us": _ratio(t.total("run", "model.recover_velocity"), rv) * us,
        "model.validate_us": _ratio(t.total("run", "model.validate"), val) * us,
        "kernels.g_source_per_step": _ratio(gs, steps),
        "kernels.g_source_us": _ratio(t.total("run", "kernels.g_source"), gs) * us,
        "kernels.kernel_min_s": _ratio(t.total("setup", "kernels.kernel_min"), km),
        "integrator.steps": float(first_steps),
        "integrator.step_us": _ratio(t.total("run", "integrator.step"), st) * us,
        "integrator.step_self_us": _ratio(t.self_total("run", "integrator.step"), st) * us,
        "integrator.dt_us": _ratio(t.total("run", "integrator.dt"), dt) * us,
        "integrator.detect_us": _ratio(t.total("run", "integrator.detect"), det) * us,
        "diagnostics.row_us": _ratio(t.total("run", "diagnostics.row"), rows) * us,
        "diagnostics.moc_check_per_row": _ratio(moc, t.moc_rows),
        "diagnostics.moc_check_us": _ratio(t.total("run", "diagnostics.moc_check"), moc) * us,
        "diagnostics.moc_min_b_us": _ratio(t.total("run", "diagnostics.moc_min_b"), mb) * us,
        "diagnostics.recorder_share": _ratio(t.total("run", "diagnostics.row"), run_s),
        "diagnostics.setup_s": _ratio(t.total("setup", "diagnostics.bound_constants"), setups),
        "trace.overhead": overhead,
    }

