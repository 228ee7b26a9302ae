"""crowdvol defines six exception types, and the exit code of each follows
from one rule in `cli.main`: 2 unless its `exit_code` says otherwise.

The scan reads the source the way tests/test_no_dead_code.py does, so a new
exception class fails here until it joins ERROR_TYPES and README's list.
"""
import ast
import builtins
import importlib
from pathlib import Path

import crowdvol

# Each type, with the exit code that `crowdvol` exits with when it escapes a command.
ERROR_TYPES = {
    "datamodel.ParseError": 2,
    "datamodel.ValidationError": 2,
    "meshvol.MeshError": 2,
    "meshvol.PlaneFitError": 2,
    "meshvol.NonWatertightError": 4,
    "scenegen.PlacementError": 3,
}
README = Path(__file__).resolve().parents[1] / "README.md"


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _exception_classes() -> set[str]:
    """`module.Class` of every class in crowdvol whose bases lead to a
    built-in exception, nested classes included."""
    classes = {}
    for path in sorted(Path(crowdvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))}
                classes[f"{path.stem}.{node.name}"] = (node.name, bases)
    found: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for key, (name, bases) in classes.items():
            if key not in found and any(b in found.values() or _is_builtin_exception(b) for b in bases):
                found[key] = name
                changed = True
    return set(found)


def test_crowdvol_defines_exactly_the_six_error_types():
    assert _exception_classes() == set(ERROR_TYPES)


def test_each_error_type_is_caught_by_main_with_its_exit_code():
    for key, code in ERROR_TYPES.items():
        module, name = key.split(".")
        cls = getattr(importlib.import_module(f"crowdvol.{module}"), name)
        assert issubclass(cls, ValueError), key
        assert getattr(cls, "exit_code", 2) == code, key


def test_readme_lists_every_error_type():
    library_use = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    missing = [key for key in ERROR_TYPES if f"`{key}`" not in library_use]
    assert not missing, "README's Library use does not list: " + ", ".join(missing)
