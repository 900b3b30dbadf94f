"""Static guards over the package source: it imports nothing outside the
standard library and itself, every error class in ``errors.py`` is raised
or subclassed somewhere, so none is left behind as dead code, the cold
start stays lean: no module imports ``dataclasses``, and importing the
command line loads none of the introspection modules it would pull in,
and equality, hash, repr and pickling are written once, in the two
value-class bases of ``fields.py``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leibniz_engel"
# modules that ``dataclasses`` loads and the package has no use for
COLD_START_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _absolute_imports(path: Path) -> list:
    """The module names of the absolute imports in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def _foreign_imports(path: Path) -> list:
    """Top-level names of the absolute imports in one module that are
    neither standard library modules nor the package."""
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    return [name for name in _absolute_imports(path)
            if name.split(".")[0] not in allowed]


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


def _imports_dataclasses(path: Path) -> bool:
    return any(name.split(".")[0] == "dataclasses"
               for name in _absolute_imports(path))


def test_no_module_imports_dataclasses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [p.name for p in modules if _imports_dataclasses(p)] == []


def test_dataclasses_guard_flags_both_import_forms(tmp_path):
    plain, named, other = (tmp_path / f"{n}.py" for n in "abc")
    plain.write_text("import dataclasses\n")
    named.write_text("from dataclasses import dataclass, field\n")
    other.write_text("import dataclassy\nfrom .dataclasses import x\n")
    assert [_imports_dataclasses(p) for p in (plain, named, other)] == \
        [True, True, False]


def _added_modules(statement: str) -> list:
    """The modules of ``COLD_START_EXCLUDED`` that a fresh interpreter with
    the package on its path loads while running ``statement``, beyond those
    it had loaded at startup."""
    probe = (f"import sys\nbefore = set(sys.modules)\n{statement}\n"
             f"print(' '.join(m for m in {COLD_START_EXCLUDED!r}\n"
             f"               if m in sys.modules and m not in before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_loads_no_introspection_modules():
    assert _added_modules("import leibniz_engel.cli") == []


def test_cold_start_guard_sees_an_import_of_dataclasses():
    found = _added_modules("import dataclasses")
    assert "dataclasses" in found and "inspect" in found


VALUE_METHODS = {"__eq__", "__hash__", "__repr__", "__reduce__"}
VALUE_BASES = {("fields.py", "Record"), ("fields.py", "Frozen")}


def _value_methods_outside_bases(paths) -> list:
    """(module, class, name) for each class other than the two value-class
    bases that defines one of ``VALUE_METHODS``, by ``def`` or by
    assignment."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or \
                    (path.name, node.name) in VALUE_BASES:
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) \
                        else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [(path.name, node.name, name) for name in names
                          if name in VALUE_METHODS]
    return found


def test_only_the_value_bases_define_eq_hash_repr_and_reduce():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert _value_methods_outside_bases(modules) == []


def test_value_method_guard_flags_defs_and_assignments(tmp_path):
    fields, other = tmp_path / "fields.py", tmp_path / "other.py"
    fields.write_text("class Record:\n    __hash__ = None\n"
                      "    def __eq__(self, other):\n        return True\n"
                      "class Frozen(Record):\n"
                      "    def __reduce__(self):\n        return ()\n"
                      "class Matrix(Frozen):\n"
                      "    def __repr__(self):\n        return ''\n")
    other.write_text("class Frozen:\n    __hash__ = object.__hash__\n"
                     "class Check:\n    __eq__: object = None\n"
                     "    def __str__(self):\n        return ''\n"
                     "    def helper(self):\n"
                     "        class Inner:\n"
                     "            def __reduce__(self):\n"
                     "                return ()\n")
    assert _value_methods_outside_bases([fields, other]) == [
        ("fields.py", "Matrix", "__repr__"),
        ("other.py", "Frozen", "__hash__"),
        ("other.py", "Check", "__eq__"),
        ("other.py", "Inner", "__reduce__")]
