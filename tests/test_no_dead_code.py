"""Every function, class, method and module constant in crowdvol is reached
from code that runs, not only from tests.

A definition is reached when its name is loaded (an `ast.Name` read, or any
`ast.Attribute`) by module-level code or by the body of a definition that is
itself reached, so code used only by other dead code is dead too. Names
match by spelling alone, and a name loaded anywhere keeps every definition
of that spelling alive.
"""
import ast
from pathlib import Path

import crowdvol

# Definitions no command reaches that stay on purpose.
ALLOWED = {
    # mesh scaling and the samples file, waiting for a `stats` flow to call them
    "anthro.scaling_from_config",
    "anthro.scale_samples",
    "anthro.write_samples_csv",
}


def _loads(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """({key: (name, names its body loads, key of its class or None)}, names
    loaded outside every definition)."""
    defs, roots = {}, set()
    for path in sorted(Path(crowdvol.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{node.name}"] = (node.name, _loads(node), None)
            elif isinstance(node, ast.ClassDef):
                key, body = f"{path.stem}.{node.name}", set()
                for item in [*node.bases, *node.decorator_list, *node.body]:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                        defs[f"{key}.{item.name}"] = (item.name, _loads(item), key)
                    else:
                        body |= _loads(item)
                defs[key] = (node.name, body, None)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and not _is_dunder(t.id)]
                for name in names:
                    defs[f"{path.stem}.{name}"] = (name, _loads(node.value) if node.value else set(), None)
                if not names:
                    roots |= _loads(node)
            else:
                roots |= _loads(node)
    return defs, roots


def _unreached(allowed) -> list[str]:
    defs, used = _definitions()
    live: set[str] = set()
    changed = True
    while changed:
        changed = False
        for key, (name, loads, owner) in defs.items():
            if key not in live and (key in allowed or name in used) and (owner is None or owner in live):
                live.add(key)
                used |= loads
                changed = True
    return sorted(set(defs) - live)


def test_every_definition_is_reached():
    unreached = _unreached(ALLOWED)
    assert not unreached, "no command reaches: " + ", ".join(unreached)


def test_allowed_names_exist_and_are_otherwise_unreached():
    unreached = set(_unreached(()))
    stale = sorted(ALLOWED - unreached)
    assert not stale, "reached or not defined, drop from ALLOWED: " + ", ".join(stale)
