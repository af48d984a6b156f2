import json
import sys
import types
from pathlib import Path

import pytest

from epasim import kernels, spectral

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
