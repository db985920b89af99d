"""Run Python code in a fresh interpreter that imports this `resfault`.

In-process tests share one interpreter, where earlier tests have already
imported every module; only a new process shows what a command or a bare
`import resfault` loads by itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import resfault

SRC = str(Path(resfault.__file__).resolve().parent.parent)

# Prints the `resfault` modules a script has loaded, as its last stdout line.
LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'resfault'))"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS...` with the package's own source first on the path."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
