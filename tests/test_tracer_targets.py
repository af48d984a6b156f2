import ast
import types
from pathlib import Path

from epasim import diagnostics, integrator, kernels, model, spectral

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    # the module is compiled from its source, so nothing is written next to it
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer.__dict__)
    return tracer


def test_every_tracer_target_resolves():
    # the traced benchmark wraps each (owner, attribute) by name and raises
    # KeyError on a missing one
    missing = [name for name, owner, attr in load_tracer().TARGETS if attr not in vars(owner)]
    assert missing == []


def test_every_unused_import_is_a_tracer_target():
    # an import marked "noqa: F401" exists only so that the tracer has
    # something to wrap on that module: each of its names is a TARGETS
    # entry on the module, so no other unused import hides behind the mark
    targets = load_tracer().TARGETS
    for mod in (diagnostics, integrator, kernels, model, spectral):
        path = Path(mod.__file__)
        lines = path.read_text(encoding="utf-8").splitlines()
        wrapped = {attr for _, owner, attr in targets if owner is mod}
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if "noqa: F401" in lines[node.lineno - 1]:
                    names = {a.asname or a.name for a in node.names}
                    assert names <= wrapped, (path.name, sorted(names - wrapped))
