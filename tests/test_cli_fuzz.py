"""Random and mutated network and plan files fed to the command line.

Each run must end in one of the command's documented exit codes, with no
exception escaping `main`: bad input is a parse error (exit 2), never a
traceback.  Networks have at most 8 vertices, so every run is quick.
`bounds` and `delta` read no file; they get random family sizes instead,
up to 1000 digits and five partitions, and must print in full or exit 2.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from resfault.cli import main

# Exit codes each command documents (solve --greedy: 4 = infeasible pool).
EXIT_CODES = {
    "verify": {0, 1, 2},
    "resistance": {0, 2},
    "classes": {0, 2},
    "solve": {0, 2, 4},
    "bounds": {0, 2},
    "delta": {0, 2},
}
FORMULA_COMMANDS = ("bounds", "delta")  # a family's sizes, no network file

ODD_VALUES = st.sampled_from(
    [None, True, 1.5, -1, 10**30, float("inf"), float("nan"), "x", "", [], [1, 2], {}]
)
CONDUCTANCES = st.one_of(
    st.integers(1, 10**6).map(str),
    st.fractions(min_value=0, max_value=100, max_denominator=10**9).map(str),
    st.decimals(allow_nan=True, allow_infinity=True, places=4).map(str),
    st.sampled_from(
        ["0", "-1", "1/0", "1e-10000000", "1e-308", "2E+3", "1_0", "1e_1", "1" * 1200,
         f"1/{2 ** 1100}", " 3/2 "]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    ODD_VALUES,
)
VERTICES = st.one_of(st.integers(-1, 8), ODD_VALUES)


@st.composite
def explicit_networks(draw):
    n = draw(st.integers(0, 8))
    # A spanning path keeps most draws connected, so the commands get past parsing.
    edges = [[v - 1, v, draw(CONDUCTANCES)] for v in range(1, n) if draw(st.integers(0, 9))]
    edges += draw(st.lists(st.lists(st.one_of(VERTICES, CONDUCTANCES), max_size=4), max_size=4))
    edges += draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), CONDUCTANCES)
                           .map(list), max_size=6))
    return {"family": "explicit", "n": draw(st.one_of(st.just(n), VERTICES)), "edges": edges}


NETWORKS = st.one_of(
    explicit_networks(),
    st.fixed_dictionaries({"family": st.just("complete"), "n": st.one_of(st.integers(-1, 8), VERTICES)}),
    st.fixed_dictionaries(
        {"family": st.just("k_partite"),
         "parts": st.one_of(st.lists(st.integers(-1, 4), max_size=4), ODD_VALUES)}
    ),
    st.fixed_dictionaries({"family": ODD_VALUES}),
    ODD_VALUES,
)
PLANS = st.one_of(
    st.fixed_dictionaries(
        {"measurements": st.one_of(st.lists(st.lists(VERTICES, max_size=3), max_size=8), ODD_VALUES)},
        optional={
            "mode": st.one_of(st.sampled_from(["removed", "shorted", "melted"]), ODD_VALUES),
            "provenance": st.one_of(st.lists(st.text(max_size=3), max_size=8), ODD_VALUES),
        },
    ),
    ODD_VALUES,
)


@st.composite
def file_texts(draw, documents):
    """JSON text of a drawn document, sometimes with a few characters edited."""
    text = json.dumps(draw(documents))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(["", "[", "]", "{", "}", '"', ",", ":", "0",
                                                 "9", "-", "e", "/", "."])) + text[at + cut:]
    return text


PAIRS = st.lists(st.integers(-1, 9).map(str), min_size=2, max_size=2)
MODES = st.sampled_from([[], ["--mode", "removed"], ["--mode", "shorted"]])


@st.composite
def command_lines(draw):
    """argv for one command, with NETWORK and PLAN standing for the two files."""
    command = draw(st.sampled_from(sorted(EXIT_CODES.keys() - FORMULA_COMMANDS)))
    argv = [command, "--network", "NETWORK"] + draw(MODES)
    if command == "verify":
        argv += ["--plan", "PLAN"]
    elif command == "resistance":
        argv += ["--pair", *draw(PAIRS)]
        if draw(st.booleans()):
            argv += ["--fault", *draw(PAIRS)]
    elif command == "classes":
        argv += ["--measurement", *draw(PAIRS)]
    else:
        argv += ["--greedy"] + draw(st.sampled_from([[], ["--allow-no-fault"]]))
    if command in ("resistance", "classes") and draw(st.booleans()):
        argv.append("--json")
    return argv


def run_main(argv):
    """Exit code and stdout of one `main` call; asserts the code is documented."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    assert code in EXIT_CODES[argv[0]], (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().strip(), "exit 2 without a message"
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(file_texts(NETWORKS), file_texts(PLANS), command_lines())
def test_main_exits_with_a_documented_code(network_text, plan_text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"NETWORK": os.path.join(tmp, "net.json"), "PLAN": os.path.join(tmp, "plan.json")}
        for key, text in (("NETWORK", network_text), ("PLAN", plan_text)):
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        run_main([paths.get(arg, arg) for arg in argv])


SIZES = st.one_of(st.integers(-2, 12), st.integers(-2, 10**1000)).map(str)


@st.composite
def formula_command_lines(draw):
    """argv for `bounds` or `delta` on a complete graph or a shape of k <= 5 partitions."""
    argv = [draw(st.sampled_from(FORMULA_COMMANDS))]
    if draw(st.booleans()):
        argv.append(f"--complete={draw(SIZES)}")
    else:
        argv.append(f"--k-partite={','.join(draw(st.lists(SIZES, min_size=1, max_size=5)))}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(formula_command_lines())
def test_formula_commands_print_in_full_or_exit_2(argv):
    code, out = run_main(argv)
    if code == 0 and "--json" in argv:
        json.loads(out)  # every cell and count printed whole
