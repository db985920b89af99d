"""The package's public names: which they are, where they live, and that each is used.

A helper that only the tests call belongs in `tests/`, not in `src/`.
The check reads the package source with `ast`: a name counts as used when
some module other than `__init__` loads it, imports it or reads it as an
attribute, outside the name's own top-level definition.  The rebuilt-graph
oracle is the one exception: it exists to cross-check the library.

The package loads its submodules on first use, so each public name is
checked against the attribute of the module that defines it.  The
runtime stays stdlib-only: every import in the package, function-level
ones too, names the standard library or the package itself.
"""

import ast
import sys
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import resfault
from fresh import LOADED, fresh_python

SRC = Path(resfault.__file__).parent
EXEMPT = {"direct_effective_resistance_oracle"}
HOMES = {
    "bounds": ["BoundReport", "best_bound", "bipartite_bound", "complete_bound",
               "kpartite_bound", "tripartite_bound", "val"],
    "closed_forms": ["CompleteCase", "KPartiteCase", "KPartiteColumn", "complete_delta",
                     "kpartite_delta"],
    "families": ["KPartiteShape", "complete_network", "kpartite_network"],
    "network": ["INFINITE", "Edge", "FaultMode", "InfiniteResistance", "Measurement",
                "MeasurementPlan", "Network", "Resistance",
                "direct_effective_resistance_oracle", "effective_resistance",
                "perturbed_effective_resistance"],
    "signatures": ["equivalence_classes", "is_distinguishing", "undistinguished_pairs"],
    "solver": ["ExactSolution", "Infeasible", "MeasurementGraphReport", "TimedOut",
               "analyze_measurement_graph", "solve_exact", "solve_greedy"],
    "strategies": ["bipartite_strategy", "complete_strategy", "kpartite_strategy",
                   "tripartite_strategy"],
}


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


def test_all_lists_every_public_name_in_order():
    assert resfault.__all__ == sorted(name for names in HOMES.values() for name in names)


@pytest.mark.parametrize("module", HOMES)
def test_each_name_is_its_home_modules_object(module):
    home = import_module(f"resfault.{module}")
    for name in HOMES[module]:
        assert getattr(resfault, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from resfault import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == resfault.__all__


def test_dir_lists_every_public_name():
    assert set(resfault.__all__) <= set(dir(resfault))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        resfault.no_such_name


def test_bare_import_loads_no_submodule():
    assert fresh_python("-c", f"import sys, resfault\n{LOADED}").stdout.split() == ["resfault"]


def test_submodule_resolves_after_a_bare_import():
    done = fresh_python("-c", "import resfault\nprint(resfault.solver.solve_exact.__module__)")
    assert done.stdout == "resfault.solver\n", done.stderr


def test_the_runtime_imports_only_the_standard_library():
    allowed = {"__future__", "resfault", *sys.stdlib_module_names}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: the package
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
