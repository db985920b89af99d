"""Span tracing from outside the library.

`Tracer.install` replaces public functions with timing wrappers at the
module attributes where callers look them up (for example
`resfault.solver.build_signature`, the name `solve_exact` calls), so the
library itself is untouched.  Each call records one span: layer, start,
end, parent span and op id.  Spans are kept in flat arrays in memory and
written out with `dump` when the traced process ends.

A layer's self time is its spans' durations minus the time their direct
child spans cover; summed over all spans this telescopes to the root
spans' total, so self times plus unattributed time give the wall time.
A layer none of whose names exist any more is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array


def _invert_ops(args, kwargs, result) -> int:
    return 2 * len(args[0]) ** 3  # Gauss-Jordan on an augmented d x 2d matrix


def _signature_cells(args, kwargs, result) -> int:
    return len(result.measurements) * len(result.edges)


def _greedy_steps(args, kwargs, result) -> int:
    return len(result.measurements) if hasattr(result, "measurements") else 0  # not Infeasible


# layer -> (module:attribute names callers look up, work count per call or None)
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "linalg.invert": (("resfault.network:fraction_free_invert",), _invert_ops),
    "network.reading": (
        (
            "resfault.signatures:perturbed_effective_resistance",
            "resfault.cli:perturbed_effective_resistance",
        ),
        None,
    ),
    "network.base": (
        (
            "resfault.network:effective_resistance",
            "resfault.signatures:effective_resistance",
            "resfault.cli:effective_resistance",
        ),
        None,
    ),
    "network.oracle": (("resfault.network:direct_effective_resistance_oracle",), None),
    "signatures.build": (
        ("resfault.signatures:build_signature", "resfault.solver:build_signature"),
        _signature_cells,
    ),
    "signatures.distinguish": (("resfault.signatures:is_distinguishing",), None),
    "solver.exact": (("resfault.solver:solve_exact",), None),
    "solver.greedy": (("resfault.solver:solve_greedy",), _greedy_steps),
    "strategies.plan": (
        (
            "resfault.strategies:complete_strategy",
            "resfault.strategies:bipartite_strategy",
            "resfault.strategies:tripartite_strategy",
            "resfault.strategies:kpartite_strategy",
        ),
        None,
    ),
    "fileio.load": (("resfault.cli:load_network", "resfault.cli:load_plan"), None),
    "cli.main": (("resfault.cli:main",), None),
}

_COLUMNS = (("layer", "h"), ("parent", "q"), ("op", "q"), ("start", "d"), ("end", "d"), ("work", "q"))


class SpanLog:
    """Flat columns of spans; row i is one call, parent -1 marks a root."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.absent: list[str] = []
        for name, code in _COLUMNS:
            setattr(self, name, array(code))

    def __len__(self):
        return len(self.layer)

    def dump(self, path: str):
        header = {"layers": self.layers, "absent": self.absent, "count": len(self)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in _COLUMNS:
                getattr(self, name).tofile(fh)

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            log = cls(header["layers"])
            log.absent = header["absent"]
            for name, _ in _COLUMNS:
                getattr(log, name).fromfile(fh, header["count"])
        return log


class Tracer:
    """Installs wrappers for `layers` and records their spans into `log`."""

    def __init__(self, layers=None, clock=time.perf_counter):
        self.spec = LAYERS if layers is None else layers
        self.log = SpanLog(self.spec)
        self.clock = clock
        self.op = 0
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def install(self):
        for layer_id, (layer, (targets, work)) in enumerate(self.spec.items()):
            found = False
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, layer_id, work))
                found = True
            if not found:
                self.log.absent.append(layer)
        return self

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, layer_id: int, work):
        stack, clock = self._stack, self.clock
        layers, parents, ops = self.log.layer, self.log.parent, self.log.op
        starts, ends, works = self.log.start, self.log.end, self.log.work

        def wrapper(*args, **kwargs):
            # Hot path (up to ~10^6 calls a run): append to the columns inline.
            idx = len(layers)
            layers.append(layer_id)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            works.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def summarize(log: SpanLog) -> tuple[dict[str, dict[str, float]], float]:
    """Per layer: calls, self seconds and work total; and the root spans' total."""
    n = len(log)
    duration = [log.end[i] - log.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        parent = log.parent[i]
        if parent >= 0:
            child[parent] += duration[i]
    out = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in log.layers}
    root_s = 0.0
    for i in range(n):
        row = out[log.layers[log.layer[i]]]
        row["calls"] += 1
        row["self_s"] += duration[i] - child[i]
        row["work"] += log.work[i]
        if log.parent[i] < 0:
            root_s += duration[i]
    return out, root_s


def nested_calls(log: SpanLog, inner: str, outer: str) -> int:
    """How many `inner` spans run inside some `outer` span."""
    inner_id, outer_id = log.layers.index(inner), log.layers.index(outer)
    count = 0
    for i in range(len(log)):
        if log.layer[i] != inner_id:
            continue
        p = log.parent[i]
        while p >= 0 and log.layer[p] != outer_id:
            p = log.parent[p]
        count += p >= 0
    return count
