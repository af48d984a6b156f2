import ast
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
