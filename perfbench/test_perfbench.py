"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import itertools
import json
import sys
import types
from fractions import Fraction

import pytest

import run

run.use_checkout_source()

import netgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from resfault.network import Network  # noqa: E402


@pytest.fixture
def fake_module():
    """A module whose `outer` calls `inner` twice through the module attribute."""
    mod = types.ModuleType("perfbench_fake")
    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + mod.inner()
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _add_span(log, layer, parent, start, end):
    for column, value in (("layer", layer), ("parent", parent), ("op", 0), ("start", start),
                          ("end", end), ("work", 0)):
        getattr(log, column).append(value)
    return len(log) - 1


def _is_connected(n, edges):
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for u, v, _ in edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == n


def test_self_time_subtracts_direct_children_only():
    log = tracing.SpanLog(["a", "b", "c"])
    root = _add_span(log, 0, -1, 0.0, 10.0)
    child = _add_span(log, 1, root, 1.0, 4.0)
    _add_span(log, 2, child, 2.0, 3.0)
    _add_span(log, 1, root, 5.0, 9.0)
    layers, root_s = tracing.summarize(log)
    assert layers["a"] == {"calls": 1, "self_s": 3.0, "work": 0}
    assert layers["b"] == {"calls": 2, "self_s": 6.0, "work": 0}
    assert layers["c"]["self_s"] == 1.0
    assert root_s == 10.0 == sum(row["self_s"] for row in layers.values())
    assert tracing.nested_calls(log, "c", "a") == 1
    assert tracing.nested_calls(log, "a", "c") == 0


def test_tracer_records_nested_spans(fake_module, tmp_path):
    ticks = itertools.count()
    spec = {"outer": (("perfbench_fake:outer",), None), "inner": (("perfbench_fake:inner",), None)}
    tracer = tracing.Tracer(spec, clock=lambda: float(next(ticks))).install()
    tracer.op = 7
    assert fake_module.outer() == 2
    tracer.uninstall()
    assert fake_module.outer() == 2 and len(tracer.log) == 3  # unwrapped again
    # outer runs 0..5; the inner calls run 1..2 and 3..4.
    assert list(tracer.log.parent) == [-1, 0, 0]
    assert list(tracer.log.op) == [7, 7, 7]
    path = tmp_path / "spans.bin"
    tracer.log.dump(str(path))
    layers, root_s = tracing.summarize(tracing.SpanLog.load(str(path)))
    assert layers["outer"]["self_s"] == 3.0
    assert layers["inner"] == {"calls": 2, "self_s": 2.0, "work": 0}
    assert root_s == 5.0


def test_missing_wrapped_name_is_reported_absent(fake_module):
    spec = {
        "present": (("perfbench_fake:outer",), None),
        "gone": (("perfbench_fake:no_such_function", "no_such_module:f"), None),
    }
    tracer = tracing.Tracer(spec).install()
    try:
        assert tracer.log.absent == ["gone"]
        assert fake_module.outer() == 2
    finally:
        tracer.uninstall()
    assert tracing.summarize(tracer.log)[0]["gone"]["calls"] == 0


def test_every_layer_name_exists_today():
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.log.absent == []


@pytest.mark.parametrize("n", [10, 14, 20, 36])
def test_generator_is_deterministic_and_connected(n):
    for seed in range(40):
        edges, bridges = netgen.weighted_network(seed, n)
        assert netgen.weighted_network(seed, n) == (edges, bridges)
        assert _is_connected(n, edges)
        Network.from_edge_list(n, edges)  # validates simplicity and connectivity
        assert len(edges) == round(netgen.EDGES_PER_VERTEX * n)
        for _, _, w in edges:
            assert Fraction(1, 9) <= w <= 9
        removal_disconnects = sum(
            not _is_connected(n, edges[:i] + edges[i + 1 :]) for i in range(len(edges))
        )
        assert bridges == removal_disconnects >= netgen.PENDANTS
    assert netgen.weighted_network(0, n) != netgen.weighted_network(1, n)


def test_every_seed_selects_only_referenced_ops(tmp_path):
    refs = workloads.load_refs()
    for workload in workloads.WORKLOADS:
        for seed in range(100):
            keys = [op.key for op in workloads.batch(workload, seed, tmp_path)]
            assert keys == [op.key for op in workloads.batch(workload, seed, tmp_path)]
            assert set(keys) <= refs.keys()


def _outcomes(op, refs, tmp_path):
    runner = workloads.Runner(refs, tmp_path, deadline=float("inf"))
    return runner.run([op])


@pytest.mark.parametrize(
    "op",
    [
        workloads.Op("exact K6", run=workloads._exact_op((6,)).run, size=4),
        workloads.Op("cli resistance K4", argv=["resistance", "--network", "K4", "--pair", "0", "1"]),
    ],
    ids=["in-process", "cli"],
)
def test_altered_reference_makes_fail_ratio_positive(op, tmp_path):
    runner = workloads.Runner({}, tmp_path, deadline=float("inf"))
    runner.record = {}
    runner.run([op])
    good = {op.key: workloads.digest(runner.record[op.key])}
    assert run.result(_outcomes(op, good, tmp_path), {})["failed"] == 0

    altered = {op.key: workloads.digest(runner.record[op.key] + " ")}
    line = run.result(_outcomes(op, altered, tmp_path), {})
    assert line["failed"] / line["attempted"] > 0 and not line["correct"]


def test_wrong_exact_size_fails_even_with_matching_digest(tmp_path):
    op = workloads._exact_op((6,))
    op.size = 5
    runner = workloads.Runner({}, tmp_path, deadline=float("inf"))
    runner.record = {}
    runner.run([op])
    refs = {op.key: workloads.digest(runner.record[op.key])}
    (outcome,) = _outcomes(op, refs, tmp_path)
    assert "proven optimum 5" in outcome.error


@pytest.mark.parametrize("seed", [1000, 1001])
def test_unused_seed_runs_clean(seed):
    from make_refs import oracle_distinguishes
    from resfault.network import FaultMode
    from resfault.solver import solve_greedy

    n = 12
    edges, _ = netgen.weighted_network(seed, n)
    for mode in FaultMode:
        plan = solve_greedy(Network.from_edge_list(n, edges), mode=mode)
        assert oracle_distinguishes(n, edges, json.loads(workloads.plan_text(plan)))
