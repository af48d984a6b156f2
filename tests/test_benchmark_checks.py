import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from epasim import integrator, kernels, model, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads() -> types.ModuleType:
    # compiled from its source, so nothing is written next to it; registered
    # before it runs, because its dataclasses look their module up by name
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


workloads = load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_instance_0_passes_its_output_checks(name):
    # instance 0 is the unjittered problem; for solve-4096 and verify-1024
    # its outputs are also held against the stored reference
    workload = workloads.WORKLOADS[name]
    jobs = workload.setup(workload.params(None))
    checks = workloads.Checks()
    workload.check(jobs, workloads.execute(jobs), REFERENCE.get(name), checks)
    assert checks.attempted > 0
    assert checks.failures == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_set_up_makes_one_fft_and_reads_no_grid_point(name, monkeypatch):
    # the set-up that setup_s times, counted instead: from cleared memo
    # tables each problem's make_initial makes 1 FFT call (solve-4096 1,
    # verify-1024 1, sweep-256 8), as every initial preset of the benchmark,
    # kernel and potential gives its band without being sampled on a grid
    workload = workloads.WORKLOADS[name]
    params = workload.params(None)
    workloads.clear_caches()
    ffts, samples, points = [], [], []
    for fn_name in ("rfft", "irfft"):
        fn = getattr(spectral, fn_name)
        monkeypatch.setattr(spectral, fn_name,
                            lambda *a, _fn=fn, **k: ffts.append(1) or _fn(*a, **k))
    for cls in (kernels.LipschitzKernel, kernels.RegularPotential):
        call = cls.__call__
        monkeypatch.setattr(cls, "__call__",
                            lambda preset, x, _call=call: samples.append(preset) or _call(preset, x))
    x = spectral.Grid.x
    monkeypatch.setattr(spectral.Grid, "x",
                        property(lambda grid: points.append(grid) or x.fget(grid)))
    jobs = workload.setup(params)
    want = {"solve-4096": 1, "verify-1024": 1, "sweep-256": 8}[name]
    assert len(ffts) == len(jobs) == want
    assert samples == [] and points == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_instance_0_transforms_per_step(name, monkeypatch):
    # calls of spectral.rfft / irfft and transforms, one per row of a call,
    # inside integrator.run on instance 0. A step makes 9 calls over 15
    # transforms, 16 when its first stage carries -d rho/dx: solve-4096's
    # never do, verify-1024's always do, as its recorder reads every state's
    # drho_inf, and sweep-256's do once the band's bound passes its
    # grad_rho_max of 1e3. Per run: 1 call over 2 transforms for the
    # initial rfft and 1 over 1 for each of at most 2 density rows read off
    # a band (see integrator), and for a run that a detector stops, the
    # first stage of the step it does not take, 2 calls
    workload = workloads.WORKLOADS[name]
    jobs = workload.setup(workload.params(None))
    rows = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            rows.append(1 if a.ndim == 1 else len(a))
            return fn(a, *args, **kwargs)
        return wrapper

    for fn_name in ("rfft", "irfft"):
        monkeypatch.setattr(spectral, fn_name, counting(getattr(spectral, fn_name)))
    outcomes = workloads.execute(jobs).outcomes
    calls, transforms = len(rows), sum(rows)
    steps, runs = sum(out.steps for out in outcomes), len(outcomes)
    if name == "solve-4096":
        assert (calls, transforms) == (9 * steps + 3, 15 * steps + 4)
    elif name == "verify-1024":
        assert (calls, transforms) == (9 * steps + 2, 16 * steps + 3)
    else:
        assert 9 * steps + runs <= calls <= 9 * steps + 4 * runs
        assert 15 * steps + 2 * runs <= transforms <= 16 * steps + 4 * runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_drho_bound_holds_on_every_accepted_state_of_instance_0(name):
    # the run loop skips the row when the band's bound certifies that no
    # detector can fire: the bound must hold on every state a run accepts
    workload = workloads.WORKLOADS[name]
    seen = []

    def check(step, state):
        spec = state.spec if step else spectral.rfft(state.x)[:, :state.grid.band]
        seen.append(model.drho_bound(spec, state.problem) >= model.drho_sup(spec, state.problem))

    for job in workload.setup(workload.params(None)):
        monitors = (job.recorder, check) if job.recorder is not None else (check,)
        integrator.run(job.state, job.ctl, monitors, job.detection)
    assert len(seen) > 100 and all(seen)


def test_sweep_runs_are_the_same_with_the_row_on_every_step():
    # a finite bkm_cap makes every first stage carry -d rho/dx; the eight
    # runs of sweep-256's instance 0 end as they do when the loop skips the
    # row wherever the band's bound stays below grad_rho_max, bit for bit
    workload = workloads.WORKLOADS["sweep-256"]
    params = workload.params(None)
    forced = integrator.DetectionThresholds(grad_rho_max=workloads.SWEEP_GRAD_MAX, bkm_cap=1e300)
    plain = workloads.execute(workload.setup(params)).outcomes
    jobs = workload.setup(params)
    for job in jobs:
        job.detection = forced
    rowed = workloads.execute(jobs).outcomes
    assert {out.status for out in plain} == {integrator.RunStatus.COMPLETED,
                                            integrator.RunStatus.BLOWUP}
    for a, b in zip(plain, rowed, strict=True):
        assert (a.status, a.steps, a.t_final, a.detail) == (b.status, b.steps, b.t_final, b.detail)
        assert np.array_equal(a.state.x, b.state.x)
