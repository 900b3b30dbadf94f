"""Static guards over the package source: it imports nothing outside the
standard library and itself, and every error class in ``errors.py`` is
raised or subclassed somewhere, so none is left behind as dead code."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leibniz_engel"


def _foreign_imports(path: Path) -> list:
    """Top-level names of the absolute imports in one module that are
    neither standard library modules nor the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_package_is_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: _foreign_imports(path) for path in modules}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_guard_flags_third_party_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport numpy as np\n"
                      "from gmpy2 import mpz\nfrom . import linalg\n"
                      "from leibniz_engel.fields import QQ\n")
    assert _foreign_imports(module) == ["numpy", "gmpy2"]


def _raised_or_subclassed(paths) -> set:
    """Names raised (``raise X`` or ``raise X(...)``) or used as a class
    base in the modules."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)

    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                names.add(name(exc.func if isinstance(exc, ast.Call) else exc))
            elif isinstance(node, ast.ClassDef):
                names.update(map(name, node.bases))
    return names


def test_every_error_class_is_raised_or_subclassed():
    from leibniz_engel import errors
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.LeibnizError)
               and obj is not errors.LeibnizError}
    assert len(classes) > 5
    used = _raised_or_subclassed(sorted(PACKAGE.glob("*.py")))
    assert sorted(classes - used) == []


def test_error_guard_reads_raises_and_bases(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class A(errors.Base):\n    pass\n"
                      "def f():\n    raise B('x')\n"
                      "def g():\n    raise C\n"
                      "def h():\n    try:\n        f()\n"
                      "    except D:\n        raise\n")
    assert _raised_or_subclassed([module]) == {"Base", "B", "C"}
