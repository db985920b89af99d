"""Command-line interface.

Subcommands: bounds, strategy, verify, solve, resistance, classes, delta.
Networks are given as JSON files or family shorthands (K8, K2,3,4).
Exit codes: 0 success (verify: distinguishing; solve: plan found),
1 verification failed, 2 bad input or out-of-scope family, 3 solver
timeout, 4 infeasible candidate pool.

Each command imports the library modules it runs itself, so a process
loads only those: start-up is most of a short command's time.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import permutations

from .families import KPartiteShape, complete_network
from .fileio import (
    MAX_VERTICES,
    FileFormatError,
    _all_digits,
    _parse_int,
    _parse_size,
    check_vertex_count,
    load_network,
    load_plan,
    plan_to_dict,
    resistance_text,
    resistance_with_decimal,
    validate_plan_for,
)
from .network import FaultMode, Measurement, effective_resistance, perturbed_effective_resistance

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_INFEASIBLE = 4


def _family_args(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--complete", type=_size, metavar="N", help="complete graph on N vertices")
    group.add_argument(
        "--k-partite",
        type=_parts,
        metavar="A,B,...",
        help="complete k-partite graph with the given partition sizes",
    )


def _int_option(parse):
    """An argparse type from `parse`: a short error past Python's int-from-text digit limit."""

    def option(text: str) -> int:
        try:
            return parse(text)
        except FileFormatError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    option.__name__ = "int"  # argparse reports any other bad value as an "invalid int value"
    return option


_size = _int_option(_parse_size)  # a family size
_vertex = _int_option(_parse_int)  # a vertex of --pair, --fault or --measurement


def _parts(text: str) -> tuple[int, ...]:
    """A --k-partite value: comma-separated integers, sorted; KPartiteShape checks them."""
    try:
        return tuple(sorted(_size(x) for x in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}") from None


def _family(args) -> int | KPartiteShape:
    """The family named by --complete (its n) or --k-partite (its shape)."""
    if args.complete is not None:
        return args.complete
    return KPartiteShape(args.k_partite)


class _OutOfScope(Exception):
    """A family outside a command's scope; `main` prints the reason and exits 2."""


def _formula_family(args) -> int | KPartiteShape:
    """The family of `bounds` or `delta`, whose cost grows with the partition count.

    A shape of more than MAX_VERTICES partitions is refused: it has more
    vertices than any network command accepts.
    """
    family = _family(args)
    if isinstance(family, KPartiteShape) and family.k > MAX_VERTICES:
        raise _OutOfScope(f"{family.k} partitions; the limit is MAX_VERTICES = {MAX_VERTICES}")
    return family


def cmd_bounds(args) -> int:
    from . import bounds

    family = _formula_family(args)
    try:
        report = bounds.best_bound(family)
    except ValueError as exc:
        raise _OutOfScope(exc) from exc
    with _all_digits():  # a bound has about as many digits as the family's n
        if args.json:
            keys = ("family", "lower", "upper", "exact", "lower_formula", "upper_formula")
            print(json.dumps({key: getattr(report, key) for key in keys}))
        else:
            print(f"family:  {report.family}")
            print(f"lower:   {report.lower}   [{report.lower_formula}]")
            print(f"upper:   {report.upper}   [{report.upper_formula}]")
            print(f"exact:   {report.exact if report.exact is not None else '-'}")
    return EXIT_OK


def cmd_strategy(args) -> int:
    from . import signatures, strategies

    family = _family(args)
    try:
        if isinstance(family, int):
            check_vertex_count(family)
            plan, net = strategies.complete_strategy(family), complete_network(family)
        else:
            check_vertex_count(family.n)
            plan, net = strategies.kpartite_strategy(family), family.network()
    except ValueError as exc:
        raise _OutOfScope(exc) from exc
    mode = FaultMode(args.mode)
    ok = signatures.is_distinguishing(net, plan.measurements, mode)
    doc = plan_to_dict(plan)
    doc["mode"] = mode.value
    text = json.dumps(doc, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_BAD_INPUT
    else:
        print(text)
    if not ok:
        print(
            f"verification FAILED: plan of size {len(plan)} does not distinguish "
            f"all faults under mode={mode.value}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    print(f"verified: {len(plan)} measurements distinguish all faults", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import signatures

    spec = load_network(args.network)
    plan = load_plan(args.plan)
    validate_plan_for(plan, spec.network)
    mode = plan.mode if args.mode is None else FaultMode(args.mode)
    pairs = signatures.undistinguished_pairs(spec.network, plan.measurements, mode)
    print(f"network: {spec.label}  mode: {mode.value}  measurements: {len(plan)}")
    print(f"distinguishing: {'no' if pairs else 'yes'}")
    if pairs:
        from . import solver  # only a failing plan loads the solver

        print(f"undistinguished edge pairs ({len(pairs)}):")
        for e1, e2 in pairs:
            print(f"  {e1.pair} ~ {e2.pair}")
        report = solver.analyze_measurement_graph(spec.network, plan.measurements)
        print(f"measurement graph: {len(report.components)} components, "
              f"{len(report.isolated)} isolated, "
              f"{len(report.size_two_components)} size-two components")
        for violation in report.violations:
            print(f"  violated: {violation}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_solve(args) -> int:
    from . import solver

    spec = load_network(args.network)
    mode = FaultMode(args.mode)
    no_fault = args.allow_no_fault
    scope = " to tell every fault and the no-fault outcome apart" if no_fault else ""
    if args.greedy:
        result = solver.solve_greedy(spec.network, mode=mode, no_fault=no_fault)
        if isinstance(result, solver.Infeasible):
            return _print_infeasible(result)
        plan, status = result, f"greedy (upper bound{scope}, not proven minimum)"
    else:
        result = solver.solve_exact(
            spec.network, mode=mode, budget_seconds=args.budget, no_fault=no_fault
        )
        if isinstance(result, solver.Infeasible):
            return _print_infeasible(result)
        if isinstance(result, solver.TimedOut):
            print(
                f"timed out: best known plan has {len(result.incumbent)} measurements; "
                f"at least {result.lower_bound} are necessary",
                file=sys.stderr,
            )
            print(json.dumps(plan_to_dict(result.incumbent), indent=2))
            return EXIT_TIMEOUT
        plan, status = result.plan, f"optimal (proven minimum{scope})"
    print(json.dumps(plan_to_dict(plan), indent=2))
    print(f"{len(plan)} measurements: {status}", file=sys.stderr)
    return EXIT_OK


def _print_infeasible(result) -> int:
    """Report a `solver.Infeasible` and return its exit code."""
    print("infeasible: no candidate measurement separates:", file=sys.stderr)
    # The pool is every vertex pair, and each fault alters the reading across
    # its own edge, so the healthy network (None) is never in a witness here.
    for e1, e2 in result.witness_pairs:
        print(f"  {e1.pair} ~ {e2.pair}", file=sys.stderr)
    return EXIT_INFEASIBLE


def cmd_resistance(args) -> int:
    spec = load_network(args.network)
    m = Measurement(args.pair[0], args.pair[1])
    if args.fault:
        edge = spec.network.edge_between(args.fault[0], args.fault[1])
        value = perturbed_effective_resistance(spec.network, m, edge, FaultMode(args.mode))
        label = f"R'{m.pair} with {FaultMode(args.mode).value} fault {edge.pair}"
    else:
        value = effective_resistance(spec.network, m)
        label = f"R{m.pair}"
    if args.json:
        print(json.dumps({"value": resistance_text(value)}))
    else:
        print(f"{label} = {resistance_with_decimal(value)}")
    return EXIT_OK


def cmd_classes(args) -> int:
    from . import signatures

    spec = load_network(args.network)
    m = Measurement(args.measurement[0], args.measurement[1])
    mode = FaultMode(args.mode)
    classes = signatures.equivalence_classes(spec.network, m, mode)
    readings = [perturbed_effective_resistance(spec.network, m, g[0], mode) for g in classes]
    if args.json:
        doc = [
            {"reading": resistance_text(reading), "edges": [list(e.pair) for e in group]}
            for reading, group in zip(readings, classes)
        ]
        print(json.dumps({"measurement": list(m.pair), "classes": doc}))
    else:
        print(f"measurement {m.pair} on {spec.label}, mode={mode.value}: {len(classes)} classes")
        for reading, group in zip(readings, classes):
            members = " ".join(str(e.pair) for e in group)
            print(f"  reading {resistance_with_decimal(reading)}: {members}")
    return EXIT_OK


def cmd_delta(args) -> int:
    from . import closed_forms

    family = _formula_family(args)
    if isinstance(family, int):
        if family < 3:
            raise _OutOfScope("complete-graph table needs n >= 3")
        delta = partial(closed_forms.complete_delta, family)
        cases = [({"case": case.value}, case) for case in closed_forms.CompleteCase]
        title = f"resistance-change table for complete({family})"
    else:
        delta = partial(closed_forms.kpartite_delta, family)
        roles = {}  # the first (q, g) for each pair of partition sizes
        for q, g in permutations(range(family.k), 2):
            roles.setdefault(f"|p_a|={family.parts[q]}, |p_ground|={family.parts[g]}", (q, g))
        cases = (  # a generator: a large shape has hundreds of thousands of rows
            ({"column": column.value, "roles": role}, closed_forms.KPartiteCase(column, q, g))
            for column in closed_forms.KPartiteColumn
            # A zero column reads 0 in every role, so it takes one row.
            for role, (q, g) in (
                {"-": (0, 1)} if column in closed_forms.ZERO_COLUMNS else roles
            ).items()
        )
        title = f"resistance-change table for k_partite{family.parts}"
    modes = (FaultMode.SHORTED, FaultMode.REMOVED)
    cell = resistance_text if args.json else resistance_with_decimal
    rows = [{**head, **{m.value: cell(delta(case, m)) for m in modes}} for head, case in cases]
    if args.json:
        print(json.dumps(rows))
    else:
        print(title)
        for row in rows:
            head = row.get("case") or f"{row['column']:>4} [{row['roles']}]"
            print(f"  {head}: shorted {row['shorted']}, removed {row['removed']}")
    return EXIT_OK


def _budget(text: str) -> float:
    """A --budget value: seconds, zero or more (NaN would never expire)."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number of seconds >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resfault",
        description="Faulty-edge detection in resistive networks via exact "
        "effective-resistance probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="measurement-count bounds for a family")
    _family_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("strategy", help="generate and verify a measurement plan")
    _family_args(p)
    p.add_argument("--mode", choices=["removed", "shorted"], default="removed")
    p.add_argument("--out", help="write the plan JSON here instead of stdout")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("verify", help="check whether a plan distinguishes all faults")
    p.add_argument("--network", required=True, help="network file or shorthand (K8, K2,3)")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--mode", choices=["removed", "shorted"], default=None,
                   help="override the plan file's mode")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="minimum (or greedy) distinguishing plan")
    p.add_argument("--network", required=True)
    p.add_argument("--mode", choices=["removed", "shorted"], default="removed")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--exact", action="store_true", default=True)
    how.add_argument("--greedy", action="store_true")
    p.add_argument("--budget", type=_budget, default=300.0, help="seconds for the exact "
                   "search and its cover masks; network set-up and --greedy are not budgeted")
    p.add_argument("--allow-no-fault", action="store_true",
                   help="also separate the nothing-is-broken outcome")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("resistance", help="effective resistance, optionally under a fault")
    p.add_argument("--network", required=True)
    p.add_argument("--pair", nargs=2, type=_vertex, required=True, metavar=("R", "S"))
    p.add_argument("--fault", nargs=2, type=_vertex, metavar=("U", "V"))
    p.add_argument("--mode", choices=["removed", "shorted"], default="removed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_resistance)

    p = sub.add_parser("classes", help="fault equivalence classes of one measurement")
    p.add_argument("--network", required=True)
    p.add_argument("--measurement", nargs=2, type=_vertex, required=True, metavar=("R", "S"))
    p.add_argument("--mode", choices=["removed", "shorted"], default="removed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("delta", help="closed-form resistance-change table for a family")
    _family_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_delta)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except _OutOfScope as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
