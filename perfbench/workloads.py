"""The three workloads: op catalogues, seeded batches, execution and checks.

Every op the benchmark can run comes from a fixed catalogue with a
committed reference (`refs.json`, written by `make_refs.py`); `--seed`
sets the order ops run in and picks the CLI pool networks.  Each
op builds its network fresh (`Network.from_edge_list`, bypassing the
`complete_network` / `kpartite_network` caches) or is a fresh `resfault`
process, so no op reuses another op's per-network inverse caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Callable

from resfault import families, network, solver
from resfault.network import FaultMode

from netgen import network_document, weighted_network

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS_PATH = HERE / "refs.json"
MODES = (FaultMode.REMOVED, FaultMode.SHORTED)
OP_TIMEOUT_S = 60.0
REFERENCE_KERNEL_S = 0.020  # `speed_sample()` at the reference speed; see README "Speed correction"

# Shapes are (n,) for complete graphs and partition sizes for k-partite ones.
# Proven optima stated in the README (and re-proved by the exact solver).
EXACT_OPTIMA = {
    (6,): 4, (7,): 5, (8,): 6, (9,): 6, (10,): 7,
    (2, 3): 3, (2, 4): 4, (2, 3, 6): 5, (3, 4, 5): 5, (2, 3, 4, 5): 5,
}
GREEDY_SHAPES = ((14,), (4, 5, 6))
WEIGHTED_N = 22
POOL = 16  # generator seeds 0..POOL-1, all with committed references


def weighted_mode(g: int) -> FaultMode:
    """A batch solves every pool network, a quarter of them shorted: the same work for
    every seed, and the median op falls inside the removed-mode cost cluster."""
    return FaultMode.SHORTED if g % 4 == 3 else FaultMode.REMOVED
CLI_SHAPES = (
    (8,), (12,), (16,), (20,), (24,), (32,),
    (5, 6), (3, 4, 5), (4, 6, 8), (2, 3, 4, 5), (3, 4, 5, 6),
)
CLI_NET_N = 14
CLI_NETS_PER_BATCH = 2

WORKLOADS = ("family-solve", "weighted-greedy", "cli-plans")


@dataclass
class Op:
    key: str  # reference key
    run: Callable[[], object] | None = None  # in-process: returns a MeasurementPlan
    argv: list[str] | None = None  # CLI: arguments after `resfault`
    out: str | None = None  # CLI: file the command writes, part of its output
    size: int | None = None  # exact solves: proven optimum
    net: tuple[int, list] | None = None  # weighted ops: (n, edges), for the reference oracle check


@dataclass
class Outcome:
    key: str
    seconds: float
    error: str | None  # None when the output matched its reference
    rss_kb: int = 0  # CLI ops: the child's peak resident memory
    scaled: float = 0.0  # `seconds` at the reference machine speed


def label(shape: tuple[int, ...]) -> str:
    return "K" + ",".join(map(str, shape))


def family_network(shape: tuple[int, ...]) -> network.Network:
    """A fresh family network, equal to the cached one but with empty caches."""
    if len(shape) == 1:
        n = shape[0]
        return network.Network.from_edge_list(
            n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
        )
    starts = [sum(shape[:i]) for i in range(len(shape))]
    blocks = [range(s, s + p) for s, p in zip(starts, shape)]
    edges = [
        (u, v, 1)
        for i, a in enumerate(blocks)
        for b in blocks[i + 1 :]
        for u in a
        for v in b
    ]
    return network.Network.from_edge_list(sum(shape), edges)


def _orbits(shape):
    if len(shape) == 1:
        return families.complete_orbit_representatives(shape[0])
    return families.measurement_orbit_representatives(families.KPartiteShape(shape))


def _exact_op(shape) -> Op:
    def run():
        result = solver.solve_exact(family_network(shape), first_probe_orbits=_orbits(shape))
        if not isinstance(result, solver.ExactSolution):
            raise RuntimeError(f"solve_exact returned {type(result).__name__}")
        return result.plan

    return Op(f"exact {label(shape)}", run=run, size=EXACT_OPTIMA[shape])


def _greedy_op(key: str, build: Callable[[], network.Network], mode: FaultMode) -> Op:
    return Op(f"{key} {mode.value}", run=lambda: solver.solve_greedy(build(), mode=mode))


def _weighted_op(g: int, mode: FaultMode) -> Op:
    n = WEIGHTED_N
    edges, _ = weighted_network(g, n)
    op = _greedy_op(f"greedy w{n}-g{g}", lambda: network.Network.from_edge_list(n, edges), mode)
    op.net = (n, edges)
    return op


def _cli_shape_ops(shape) -> list[Op]:
    name = label(shape)
    family = ["--complete", str(shape[0])] if len(shape) == 1 else ["--k-partite", name[1:]]
    plan = f"plan-{name}.json"
    return [
        Op(f"cli strategy {name}", argv=["strategy", *family, "--out", plan], out=plan),
        Op(f"cli verify {name}", argv=["verify", "--network", name, "--plan", plan]),
    ]


def _cli_net_ops(g: int, work: Path) -> list[Op]:
    """solve --greedy plus resistance/classes queries on one explicit network file."""
    n = CLI_NET_N
    edges, _ = weighted_network(g, n)
    path = f"net-g{g}.json"
    (work / path).write_text(json.dumps(network_document(n, edges)) + "\n")
    rng = random.Random(f"perfbench-queries:{g}")
    r, s = rng.sample(range(n), 2)
    u, v, _ = rng.choice(edges)
    q = rng.sample(range(n), 2)
    net = ["--network", path]
    key = f"cli w{n}-g{g}"
    return [
        Op(f"{key} solve-greedy removed", argv=["solve", *net, "--greedy"], net=(n, edges)),
        Op(f"{key} solve-greedy shorted", argv=["solve", *net, "--greedy", "--mode", "shorted"],
           net=(n, edges)),
        Op(f"{key} resistance", argv=["resistance", *net, "--pair", str(r), str(s), "--json"]),
        Op(
            f"{key} resistance-fault",
            argv=["resistance", *net, "--pair", str(r), str(s), "--fault", str(u), str(v),
                  "--mode", "shorted", "--json"],
        ),
        Op(f"{key} classes", argv=["classes", *net, "--measurement", str(q[0]), str(q[1]), "--json"]),
    ]


def batch(workload: str, seed: int | None, work: Path) -> list[Op]:
    """The seeded batch in run order; seed None gives the whole catalogue.

    Ops are grouped so a CLI `verify` runs right after the `strategy` that
    wrote its plan; the seed shuffles the groups and picks the CLI networks.
    """
    rng = random.Random(f"perfbench-batch:{workload}:{seed}")
    if workload == "family-solve":
        groups = [[_exact_op(shape)] for shape in EXACT_OPTIMA] + [
            [_greedy_op(f"greedy {label(shape)}", lambda s=shape: family_network(s), mode)]
            for shape in GREEDY_SHAPES
            for mode in MODES
        ]
    elif workload == "weighted-greedy":
        groups = [
            [_weighted_op(g, mode)]
            for g in range(POOL)
            for mode in (MODES if seed is None else (weighted_mode(g),))
        ]
    elif workload == "cli-plans":
        work.mkdir(parents=True, exist_ok=True)
        nets = range(POOL) if seed is None else rng.sample(range(POOL), CLI_NETS_PER_BATCH)
        groups = [_cli_shape_ops(shape) for shape in CLI_SHAPES] + [
            _cli_net_ops(g, work) for g in nets
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed is not None:
        rng.shuffle(groups)
    return [op for group in groups for op in group]


def plan_text(plan) -> str:
    """Canonical text of a plan: mode, probes in order, provenance."""
    return json.dumps(
        {
            "mode": plan.mode.value,
            "measurements": [[m.r, m.s] for m in plan.measurements],
            "provenance": list(plan.provenance),
        },
        sort_keys=True,
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _speed_kernel() -> int:
    """Fixed work like the library's, using none of its code: a Bareiss inverse of
    a 22x22 rational matrix, Fraction arithmetic and hashing, big-int bitmasks."""
    n = 22
    rows = [
        [Fraction((i * 7 + j * 13) % 17 + (40 if i == j else 1), (i + j) % 5 + 1) for j in range(n)]
        for i in range(n)
    ]
    scale = lcm(*(x.denominator for row in rows for x in row))
    a = [[int(x * scale) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot, row_k = a[k][k], a[k]
        for i in range(n):
            if i != k:
                row_i, f = a[i], a[i][k]
                for j in range(2 * n):
                    row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot
    inv = [[Fraction(x, prev) for x in row[n:]] for row in a]
    seen = {inv[i][j] - inv[j][(i + 1) % n] * inv[i][i] for i in range(n) for j in range(n)}
    mask = 0
    for i in range(3000):
        mask |= 1 << (i * 37 % 2000)
        mask.bit_count()
    return len(seen)


def speed_sample() -> float:
    """Seconds one run of the speed kernel takes right now."""
    start = time.perf_counter()
    _speed_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: list[float], kernel: list[float]) -> list[float]:
    """Rescale each of `seconds` to the reference speed.

    `kernel[i]` and `kernel[i + 1]` are speed-kernel times taken just before
    and just after `seconds[i]`; each interval is divided by the median of
    the six kernel times nearest it, which follows the machine's speed from
    one op to the next without passing on a single sample's noise.
    """
    return [
        t * REFERENCE_KERNEL_S / statistics.median(kernel[max(0, i - 2) : i + 4])
        for i, t in enumerate(seconds)
    ]


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_child(cmd: list[str], limit: float, **popen_args):
    """Start `cmd` and block in wait4 until it exits: (exit code, wall seconds, rusage).

    The exit code is None if it ran past `limit` seconds and was killed.
    Blocking in wait4 (not Popen.wait, which polls with sleeps of up to
    50 ms when given a timeout) keeps the timing exact.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, **popen_args)
    status = usage = None
    try:
        with time_limit(limit):
            _, status, usage = os.wait4(proc.pid, 0)
    except OpTimeout:
        pass
    seconds = time.perf_counter() - start
    if status is None:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return None, seconds, usage
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


def child_env() -> dict[str, str]:
    """Environment for `resfault` children: this checkout's `src` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs ops one at a time (closed loop, one client) and checks each output."""

    def __init__(self, refs: dict[str, str], work: Path, deadline: float, tracer=None):
        self.refs = refs
        self.work = work
        self.deadline = deadline  # time.monotonic() after which ops fail unrun
        self.tracer = tracer  # in-process Tracer, or None
        self.trace_dir: Path | None = None  # CLI ops write child span logs here
        self.env = child_env()
        self.record: dict[str, str] | None = None  # when set, keeps each op's output text
        self.speed_correct = True  # off in traced runs, whose timings stay raw

    def run(self, ops: list[Op]) -> list[Outcome]:
        """Run ops in order; with `speed_correct`, time the speed kernel between them."""
        if not self.speed_correct:
            return [self.run_op(i, op) for i, op in enumerate(ops)]
        outcomes, kernel = [], [speed_sample()]
        for i, op in enumerate(ops):
            outcomes.append(self.run_op(i, op))
            kernel.append(speed_sample())
        scaled = at_reference_speed([o.seconds for o in outcomes], kernel)
        for outcome, seconds in zip(outcomes, scaled):
            outcome.scaled = seconds
        return outcomes

    def run_op(self, index: int, op: Op) -> Outcome:
        remaining = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if remaining <= 0:
            return Outcome(op.key, 0.0, "not run: the run's deadline passed")
        if op.run is not None:
            return self._in_process(index, op, remaining)
        return self._child(index, op, remaining)

    def _check(self, op: Op, text: str) -> str | None:
        if self.record is not None:
            self.record[op.key] = text
        want = self.refs.get(op.key)
        if want is None:
            return "no reference output"
        if digest(text) != want:
            return "output differs from the reference"
        return None

    def _in_process(self, index: int, op: Op, limit: float) -> Outcome:
        if self.tracer is not None:
            self.tracer.op = index
        start = time.perf_counter()
        try:
            with time_limit(limit):
                plan = op.run()
            seconds = time.perf_counter() - start
            text = plan_text(plan)
        except OpTimeout:
            return Outcome(op.key, time.perf_counter() - start, f"timed out after {limit:.0f} s")
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Outcome(op.key, time.perf_counter() - start, f"raised {exc!r}")
        error = self._check(op, text)
        if error is None and op.size is not None and len(plan.measurements) != op.size:
            error = f"plan size {len(plan.measurements)}, proven optimum {op.size}"
        return Outcome(op.key, seconds, error)

    def _child(self, index: int, op: Op, limit: float) -> Outcome:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "resfault.cli", *op.argv]
        else:
            spans = self.trace_dir / f"op-{index}.spans"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), str(index), *op.argv]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        if op.out is not None:
            (self.work / op.out).unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, seconds, usage = run_child(
                cmd, limit, stdout=out, stderr=err, cwd=self.work, env=self.env
            )
        if code is None:
            return Outcome(op.key, seconds, f"timed out after {limit:.0f} s")
        text = f"exit {code}\n{out_path.read_text()}"
        if op.out is not None:
            written = self.work / op.out
            text += "\n--- " + op.out + "\n" + (written.read_text() if written.exists() else "")
        return Outcome(op.key, seconds, self._check(op, text), usage.ru_maxrss)


def load_refs() -> dict[str, str]:
    return json.loads(REFS_PATH.read_text())["ops"]
