"""Faulty-edge detection in resistive electrical networks.

Exact effective-resistance computation under single-edge faults,
closed-form change tables for complete and complete k-partite graphs,
measurement strategies with proven sizes, bound formulas, and an exact
minimum-measurement solver.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    best_bound,
    bipartite_bound,
    complete_bound,
    kpartite_bound,
    tripartite_bound,
    val,
)
from .closed_forms import (
    CompleteCase,
    KPartiteCase,
    KPartiteColumn,
    c_coefficient,
    complete_delta,
    kpartite_delta,
)
from .families import KPartiteShape, complete_network, kpartite_network
from .network import (
    INFINITE,
    Edge,
    FaultMode,
    InfiniteResistance,
    Measurement,
    Network,
    Resistance,
    direct_effective_resistance_oracle,
    effective_resistance,
    perturbed_effective_resistance,
)
from .signatures import equivalence_classes, is_distinguishing, undistinguished_pairs
from .solver import (
    ExactSolution,
    Infeasible,
    MeasurementGraphReport,
    TimedOut,
    analyze_measurement_graph,
    solve_exact,
    solve_greedy,
)
from .strategies import (
    MeasurementPlan,
    bipartite_strategy,
    complete_strategy,
    kpartite_strategy,
    tripartite_strategy,
)

__all__ = [  # the imported names, not the submodules the imports also bind
    name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))
]
__version__ = "0.1.0"
