"""invforge needs only the standard library: every module under
``src/invforge`` imports nothing but standard-library modules and the
package's own."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "invforge"
ALLOWED = sys.stdlib_module_names | {"invforge"}


def outside_imports(source):
    """The top-level names of the modules ``source`` imports that are
    neither in the standard library nor invforge; a relative import is the
    package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in ALLOWED]


def test_the_guard_finds_an_import_from_outside():
    source = ("import math, numpy.linalg\nfrom .dual import Dual\n"
              "from invforge import liealg\nfrom scipy import sparse\n"
              "def f():\n    import sympy\n")
    assert outside_imports(source) == ["numpy.linalg", "scipy", "sympy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_a_module_imports_only_the_standard_library(path):
    assert outside_imports(path.read_text(encoding="utf-8")) == []
