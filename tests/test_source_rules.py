import ast
import sys
from pathlib import Path

from epasim import spectral

SRC = Path(spectral.__file__).resolve().parent  # the epasim package directory


def dotted(node):
    # "np.fft.rfft" for that attribute chain, None for anything else
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_no_np_fft_call_in_src():
    # every transform goes through spectral.rfft / irfft, which call
    # pocketfft's gufuncs without numpy's per-call wrapper; a call of
    # np.fft, or a name imported from it, would bring the wrapper back
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = dotted(node.func) or ""
                if name.startswith(("np.fft.", "numpy.fft.")):
                    found.append((path.name, node.lineno, name))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                names = [a.name for a in node.names if a.name != "_pocketfft_umath"]
                found += [(path.name, node.lineno, name) for name in names]
    assert found == []


PERFBENCH = SRC.parent.parent / "perfbench"
# the CSV round trip of a log waits on a caller in the command-line entry point
TEST_ONLY_ALLOWED = {"to_csv", "from_csv"}


def test_no_src_name_is_used_only_by_tests():
    # every function, class and method of epasim is referenced from epasim
    # or perfbench by name, attribute or import; in perfbench an exact
    # string counts too, as the tracer names the attributes it wraps so.
    # Dunder methods are called by the language and are left out.
    defined, used = [], set()
    for root in (SRC, PERFBENCH):
        for path in sorted(root.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if root == SRC and not node.name.startswith("__"):
                        defined.append((path.name, node.lineno, node.name))
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(a.name for a in node.names)
                elif root == PERFBENCH and isinstance(node, ast.Constant):
                    if isinstance(node.value, str):
                        used.add(node.value)
    assert [d for d in defined if d[2] not in used | TEST_ONLY_ALLOWED] == []


def test_src_imports_only_numpy_and_the_standard_library():
    # the package depends on numpy alone; scipy and the rest of the test
    # extra are oracles, so an import of theirs from src is refused
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    found.append((path.name, node.lineno, name))
    assert found == []


# the lines of src/epasim/*.py by wc -l, which no change may raise: each
# change that takes lines out lowers it, towards 1600
SRC_LINE_BUDGET = 1985


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET
