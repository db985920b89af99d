"""Every public name is something the package itself uses.

A helper that only the tests call belongs in `tests/`, not in `src/`.
The check reads the package source with `ast`: a name counts as used when
some module other than `__init__` loads it, imports it or reads it as an
attribute, outside the name's own top-level definition.  The rebuilt-graph
oracle is the one exception: it exists to cross-check the library.
"""

import ast
from pathlib import Path
from types import ModuleType

import resfault

SRC = Path(resfault.__file__).parent
EXEMPT = {"direct_effective_resistance_oracle"}


def names_used_in_src() -> set[str]:
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(statement, "name", None)  # a def or class does not use itself
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.ImportFrom):
                    name = node.module
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_public_name_is_used_in_src():
    used = names_used_in_src()
    assert sorted(set(resfault.__all__) - used - EXEMPT) == []


def test_the_exemption_is_still_public():
    assert EXEMPT <= set(resfault.__all__)


def test_no_public_name_is_a_module():
    modules = [name for name in resfault.__all__ if isinstance(getattr(resfault, name), ModuleType)]
    assert modules == []
