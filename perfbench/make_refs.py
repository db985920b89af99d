"""Regenerate refs.json: the reference output digest of every catalogue op.

    python3 perfbench/make_refs.py

Runs every op any seed can select (all pool networks) once, requires the
exact solves to hit their proven optima, and shows each weighted greedy
plan distinguishing with `direct_effective_resistance_oracle`, the
rebuilt-graph oracle that shares no formula with the update kernel.
Only then are the digests written.  Run it on a commit whose outputs are
trusted; the benchmark then holds later commits to them bit for bit.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from run import WORK, use_checkout_source


def oracle_distinguishes(n: int, edges, plan: dict) -> bool:
    from resfault.network import (
        FaultMode, Measurement, Network, direct_effective_resistance_oracle,
    )

    net = Network.from_edge_list(n, edges)
    mode = FaultMode(plan["mode"])
    probes = [Measurement(r, s) for r, s in plan["measurements"]]
    columns = [
        tuple(direct_effective_resistance_oracle(net, m, e, mode) for m in probes)
        for e in net.edges
    ]
    return len(set(columns)) == len(columns)


def main() -> int:
    use_checkout_source()
    import workloads

    ops_digest: dict[str, str] = {}
    problems = []
    for workload in workloads.WORKLOADS:
        work = WORK / "refs" / workload
        work.mkdir(parents=True, exist_ok=True)
        ops = workloads.batch(workload, None, work)
        runner = workloads.Runner({}, work, time.monotonic() + 1e9)
        runner.record = {}
        start = time.perf_counter()
        for i, op in enumerate(ops):
            outcome = runner.run_op(i, op)
            if outcome.error not in (None, "no reference output"):
                problems.append(f"{op.key}: {outcome.error}")
                continue
            text = runner.record[op.key]
            if op.net is not None:
                plan = json.loads(text if op.run else text.split("\n", 1)[1])
                if not oracle_distinguishes(*op.net, plan):
                    problems.append(f"{op.key}: plan does not distinguish under the oracle")
            ops_digest[op.key] = workloads.digest(text)
        print(f"{workload}: {len(ops)} ops in {time.perf_counter() - start:.1f} s", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {
        "about": "sha256 of each op's canonical output; see perfbench/README.md",
        "python": platform.python_version(),
        "ops": dict(sorted(ops_digest.items())),
    }
    (workloads.REFS_PATH).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(ops_digest)} references to {workloads.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
