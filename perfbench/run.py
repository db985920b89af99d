"""Layered benchmark for resfault: one workload, one seed, one result line.

    python3 perfbench/run.py --workload family-solve --seed 1 --seconds 30 --trace 0

Run from a checkout: the library is imported from `src/` beside this
directory and the CLI runs as `python3 -m resfault.cli` with the same
`src/` on its path.  With `--trace 0` it prints the end-to-end metrics
(wall_s, op_p50_s, setup_s, peak_rss_mb); with `--trace 1` it runs the
batch once untraced and once traced and prints the per-layer metrics.
The last line of stdout is one JSON object; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
RUN_DEADLINE_S = 165.0  # ops not started by then fail, so a run ends within 180 s


def use_checkout_source():
    """Import `resfault` from this checkout's `src/`, or exit 2."""
    if not (SRC / "resfault" / "__init__.py").is_file():
        sys.exit(f"perfbench: no resfault package under {SRC}")
    sys.path.insert(0, str(SRC))
    import resfault

    if Path(resfault.__file__).resolve().parent != SRC / "resfault":
        sys.exit(f"perfbench: imported resfault from {resfault.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def setup_seconds(args, work: Path) -> tuple[list[float], list[float]]:
    """Fresh processes that only set up, each timed from spawn to exit: (raw, corrected)."""
    from workloads import at_reference_speed, run_child, speed_sample

    raw, kernel = [], [speed_sample()]
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work / f"setup-{k}")]
        code, seconds, _ = run_child(cmd, 60.0)
        if code != 0:
            sys.exit(f"perfbench: set-up process failed with exit code {code}")
        raw.append(seconds)
        kernel.append(speed_sample())
    return raw, at_reference_speed(raw, kernel)


def measure(runner, ops, seconds: float):
    """Run whole passes over the batch while another one fits in `seconds` (at least one)."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(runner.run(ops))
        walls = [sum(o.seconds for o in p) for p in passes]
        if time.perf_counter() - start + median(walls) > seconds:
            return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, work, runner, ops):
    setup_raw, setups = setup_seconds(args, work)
    passes = measure(runner, ops, args.seconds)
    outcomes = [o for p in passes for o in p]
    in_process = ops[0].run is not None
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.rss_kb for o in outcomes)
    raw_walls = [sum(o.seconds for o in p) for p in passes]
    walls = [sum(o.scaled for o in p) for p in passes]

    def listing(values):
        return ", ".join(f"{v:.3f}" for v in values)

    print(f"# {len(passes)} passes; batch wall per pass {listing(walls)} s "
          f"(raw {listing(raw_walls)} s); op_p50_s over {len(outcomes)} op samples "
          f"(raw {median([o.seconds for o in outcomes]):.4f} s)")
    print(f"# setup_s median of {len(setups)} set-ups: {listing(setups)} s (raw {listing(setup_raw)} s)")
    metrics = {
        "wall_s": metric(median(walls), "s"),
        "op_p50_s": metric(median([o.scaled for o in outcomes]), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    return outcomes, metrics


def per_layer(args, work, runner, ops):
    """One untraced pass, then the same pass traced; per-layer metrics from the spans."""
    from tracing import SpanLog, Tracer, nested_calls, summarize

    runner.speed_correct = False
    t0 = time.perf_counter()
    outcomes = runner.run(ops)
    untraced = time.perf_counter() - t0

    in_process = ops[0].run is not None
    tracer = Tracer()
    if in_process:
        runner.tracer = tracer.install()
    else:
        runner.trace_dir = work / "spans"
        runner.trace_dir.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    traced = runner.run(ops)
    wall = time.perf_counter() - t0
    tracer.uninstall()
    outcomes += traced

    if in_process:
        tracer.log.dump(str(work / "spans.bin"))
        logs = [(tracer.log, None)]
    else:
        logs = []
        for i, outcome in enumerate(traced):
            path = runner.trace_dir / f"op-{i}.spans"
            if path.exists():
                logs.append((SpanLog.load(str(path)), outcome.seconds))
    layers = {name: {"calls": 0, "self_s": 0.0, "work": 0} for name in tracer.log.layers}
    absent, builds_in_exact, process_s, self_total = set(), 0, 0.0, 0.0
    for log, child_wall in logs:
        absent.update(log.absent)
        totals, root_s = summarize(log)
        for name, row in totals.items():
            for k in row:
                layers[name][k] += row[k]
        self_total += root_s
        builds_in_exact += nested_calls(log, "signatures.build", "solver.exact")
        if child_wall is not None:
            process_s += child_wall - root_s
    unattributed = wall - self_total - process_s
    print(f"# traced wall {wall:.3f} s = layer self times {self_total:.3f} s"
          f" + CLI process time {process_s:.3f} s + unattributed {unattributed:.3f} s")
    print(f"# tracing overhead: traced {wall:.3f} s - untraced {untraced:.3f} s = {wall - untraced:.3f} s")
    if absent:
        print(f"# absent layers (wrapped names not found, reported as 0): {', '.join(sorted(absent))}")

    def ratio(a, b):
        return a / b if b else 0.0

    L = layers
    metrics = {
        "linalg.invert.calls": metric(L["linalg.invert"]["calls"], "count"),
        "linalg.invert.self_s": metric(L["linalg.invert"]["self_s"], "s"),
        "linalg.invert.ops": metric(L["linalg.invert"]["work"], "count"),
        "network.reading.calls": metric(L["network.reading"]["calls"], "count"),
        "network.reading.self_s": metric(L["network.reading"]["self_s"], "s"),
        "network.base.calls": metric(L["network.base"]["calls"], "count"),
        "network.base.self_s": metric(L["network.base"]["self_s"], "s"),
        "network.readings_per_inversion": metric(
            ratio(L["network.reading"]["calls"], L["linalg.invert"]["calls"]), "ratio"),
        "network.oracle.calls": metric(L["network.oracle"]["calls"], "count"),
        "network.oracle.self_s": metric(L["network.oracle"]["self_s"], "s"),
        "network.bridge_fallback_ratio": metric(
            ratio(L["network.oracle"]["calls"], L["network.reading"]["calls"]), "ratio"),
        "signatures.build.calls": metric(L["signatures.build"]["calls"], "count"),
        "signatures.build.cells": metric(L["signatures.build"]["work"], "count"),
        "signatures.build.self_s": metric(L["signatures.build"]["self_s"], "s"),
        "signatures.distinguish.self_s": metric(L["signatures.distinguish"]["self_s"], "s"),
        "solver.exact.self_s": metric(L["solver.exact"]["self_s"], "s"),
        "solver.builds_per_solve": metric(ratio(builds_in_exact, L["solver.exact"]["calls"]), "ratio"),
        "solver.greedy.self_s": metric(L["solver.greedy"]["self_s"], "s"),
        "solver.greedy.steps": metric(L["solver.greedy"]["work"], "count"),
        "strategies.plan.self_s": metric(L["strategies.plan"]["self_s"], "s"),
        "fileio.load.self_s": metric(L["fileio.load"]["self_s"], "s"),
        "cli.main.self_s": metric(L["cli.main"]["self_s"], "s"),
        "cli.process_s": metric(process_s, "s"),
        "trace.wall_s": metric(wall, "s"),
        "trace.overhead_s": metric(wall - untraced, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
    }
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.monotonic()

    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = Path(args.work) if args.work else WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed)
    refs = workloads.load_refs()
    ops = workloads.batch(args.workload, args.seed, work)
    if args.setup_only:
        return 0

    runner = workloads.Runner(refs, work, started + RUN_DEADLINE_S)
    print(f"# workload {args.workload}: {len(ops)} ops a pass, closed loop, one op at a time")
    print("# env: " + json.dumps(env))
    measure_fn = per_layer if args.trace else end_to_end
    outcomes, metrics = measure_fn(args, work, runner, ops)

    for o in outcomes:
        if o.error is not None:
            print(f"# FAILED {o.key}: {o.error}")
    line = result(outcomes, metrics)
    print(f"# attempted {line['attempted']}, failed {line['failed']}, "
          f"fail_ratio {line['failed'] / line['attempted']:.4f}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    (work / "result.json").write_text(json.dumps({
        "env": env,
        "ops": [{"key": o.key, "seconds": o.seconds, "at_reference_speed": o.scaled,
                 "error": o.error} for o in outcomes],
        "metrics": metrics,
    }, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def result(outcomes, metrics) -> dict:
    """The result line: an op that raised, timed out or differs from its reference failed."""
    failed = sum(o.error is not None for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
