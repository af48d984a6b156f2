import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    # the traced benchmark wraps each (owner, attribute) by name and raises
    # KeyError on a missing one; the module is compiled from its source, so
    # nothing is written next to it
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    missing = [name for name, owner, attr in tracer.TARGETS if attr not in vars(owner)]
    assert missing == []
