import json
import sys
import types
from pathlib import Path

import pytest

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
