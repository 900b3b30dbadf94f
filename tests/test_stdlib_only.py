"""The package imports nothing outside the standard library and itself."""

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
