"""Run one `resfault` command with every layer traced, then write its spans.

    python3 perfbench/trace_child.py SPANS_OUT OP_ID ARGS...

`run.py --trace 1` starts this in place of `python3 -m resfault.cli ARGS...`
for each CLI op, with the checkout's `src/` on PYTHONPATH.
"""

import sys

import resfault.cli

from tracing import Tracer


def main() -> int:
    spans_out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    tracer.op = op
    try:
        return resfault.cli.main(argv)  # looked up now, so the wrapped `main` runs
    finally:
        tracer.log.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
