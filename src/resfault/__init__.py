"""Faulty-edge detection in resistive electrical networks.

Exact effective-resistance computation under single-edge faults,
closed-form change tables for complete and complete k-partite graphs,
measurement strategies with proven sizes, bound formulas, and an exact
minimum-measurement solver.

Submodules load on first use (PEP 562): `import resfault` loads none of
them, and a public name loads only its home module.
"""

from importlib import import_module as _import_module

_HOMES = {  # home module -> the public names it defines
    "bounds": (
        "BoundReport", "best_bound", "bipartite_bound", "complete_bound", "kpartite_bound",
        "tripartite_bound", "val",
    ),
    "closed_forms": (
        "CompleteCase", "KPartiteCase", "KPartiteColumn", "complete_delta", "kpartite_delta",
    ),
    "families": ("KPartiteShape", "complete_network", "kpartite_network"),
    "network": (
        "INFINITE", "Edge", "FaultMode", "InfiniteResistance", "Measurement", "MeasurementPlan",
        "Network", "Resistance", "direct_effective_resistance_oracle", "effective_resistance",
        "perturbed_effective_resistance",
    ),
    "signatures": ("equivalence_classes", "is_distinguishing", "undistinguished_pairs"),
    "solver": (
        "ExactSolution", "Infeasible", "MeasurementGraphReport", "TimedOut",
        "analyze_measurement_graph", "solve_exact", "solve_greedy",
    ),
    "strategies": (
        "bipartite_strategy", "complete_strategy", "kpartite_strategy", "tripartite_strategy",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {*_HOMES, "cli", "fileio", "linalg"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)  # the import binds it here as well
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *__all__]  # dir() sorts it
