"""The README's examples run as written.

Every `resfault ...` line of the "Command line" block goes through
`cli.main` in a scratch directory and must exit 0; `net.json` is the
explicit network from "File formats".  The "Library example" block is
executed as it stands.
"""

import re
import shlex
from pathlib import Path

from resfault.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def first_block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the line `heading`."""
    start = README.index(f"\n{heading}\n")
    match = re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in first_block("## Command line", "sh").splitlines()
    if line.startswith("resfault ")
]


def test_the_command_block_is_found():
    assert len(COMMANDS) == 11


def test_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    explicit = next(
        line for line in first_block("### File formats", "json").splitlines()
        if '"explicit"' in line
    )
    (tmp_path / "net.json").write_text(explicit)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        code = main(argv[1:])
        output = capsys.readouterr()
        assert code == 0, (argv, output.out, output.err)


def test_library_example_runs():
    exec(compile(first_block("## Library example", "python"), "README.md", "exec"), {})
