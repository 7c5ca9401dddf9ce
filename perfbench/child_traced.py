"""One CLI invocation with span wrappers installed: the traced pass's child.

Usage: ``python3 perfbench/child_traced.py SPANS_JSON RUN_ID CLI_ARG...``
with ``src`` on ``PYTHONPATH``.  The parent may put its ``perf_counter``
at spawn time in ``PERFBENCH_SPAWN`` so set-up time includes interpreter
start.  Exits with the CLI's own exit code.
"""

import os
import sys

import spans


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    spawn = os.environ.get("PERFBENCH_SPAWN")
    from mha_nw_lab import cli

    tracer = spans.Tracer(run_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path, float(spawn) if spawn else None)


if __name__ == "__main__":
    sys.exit(main())
