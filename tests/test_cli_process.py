"""Every command in a fresh interpreter, as `python -m resfault.cli`.

The CLI imports most modules inside the command that uses them, so a
command that forgets one fails only in a process of its own.  Each run
must exit as documented and print the same bytes as `main` in-process,
and no command loads `dataclasses` or `inspect` (with `ast`, `dis` and
`tokenize`, several ms of every start); the light commands also load
exactly the modules listed here.
"""

import json

import pytest

from fresh import LOADED, fresh_python
from resfault.cli import main
from resfault.fileio import plan_to_dict
from resfault.strategies import complete_strategy

RUNS = [
    (["bounds", "--complete", "6"], 0),
    (["delta", "--k-partite", "2,3"], 0),
    (["strategy", "--complete", "7", "--out", "OUT"], 0),
    (["verify", "--network", "K7", "--plan", "PASSING"], 0),
    (["verify", "--network", "K7", "--plan", "FAILING"], 1),
    (["solve", "--network", "K6"], 0),
    (["solve", "--network", "K8", "--greedy"], 0),
    (["solve", "--network", "K8", "--budget", "0"], 3),
    (["resistance", "--network", "K5", "--pair", "0", "2"], 0),
    (["resistance", "--network", "K5", "--pair", "0", "2", "--fault", "0", "1"], 0),
    (["classes", "--network", "K5", "--measurement", "0", "1"], 0),
]

BASE = ["resfault", "resfault.cli", "resfault.families", "resfault.fileio", "resfault.linalg",
        "resfault.network"]
MODULES = [
    (["resistance", "--network", "K5", "--pair", "0", "2"], BASE),
    (["resistance", "--network", "K5", "--pair", "0", "2", "--fault", "0", "1"], BASE),
    (["classes", "--network", "K5", "--measurement", "0", "1"], [*BASE, "resfault.signatures"]),
    (["verify", "--network", "K7", "--plan", "PASSING"], [*BASE, "resfault.signatures"]),
    (["verify", "--network", "K7", "--plan", "FAILING"],
     [*BASE, "resfault.signatures", "resfault.solver"]),
]


@pytest.fixture
def files(tmp_path):
    """Paths for the placeholders in RUNS and MODULES."""
    paths = {name: str(tmp_path / f"{name.lower()}.json") for name in ("OUT", "PASSING", "FAILING")}
    with open(paths["PASSING"], "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(complete_strategy(7)), fh)
    with open(paths["FAILING"], "w", encoding="utf-8") as fh:
        json.dump({"measurements": [[0, 1]]}, fh)
    return lambda argv: [paths.get(arg, arg) for arg in argv]


def written(argv):
    """The `--out` file's text, or None when the command writes none."""
    if "--out" not in argv:
        return None
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("argv,code", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_command_runs_in_a_fresh_interpreter(argv, code, files, capsys):
    argv = files(argv)
    done = fresh_python("-X", "importtime", "-m", "resfault.cli", *argv)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    # -X importtime writes one "import time: ... | <module>" line per module loaded.
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "resfault.network" in imported and not imported & {"dataclasses", "inspect"}
    out_file = written(argv)
    assert main(argv) == code
    assert done.stdout == capsys.readouterr().out
    assert out_file == written(argv)


@pytest.mark.parametrize("argv,modules", MODULES, ids=[" ".join(argv) for argv, _ in MODULES])
def test_command_loads_only_its_modules(argv, modules, files):
    script = f"import sys\nfrom resfault.cli import main\nmain(sys.argv[1:])\n{LOADED}"
    done = fresh_python("-c", script, *files(argv))
    assert done.stdout.splitlines()[-1].split() == modules, done.stderr
