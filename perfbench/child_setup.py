"""A CLI invocation that stops where its first replicate would start.

Usage: ``python3 perfbench/child_setup.py CLI_ARG...`` with ``src`` on
``PYTHONPATH``.  The first call to a function in ``workloads.SETUP_END``
ends the process, so its wall time is the invocation's set-up: interpreter
start, package import, config load, and task and projection construction.
No span wrapper is loaded.  Exits 0 at the boundary and 3 when the
invocation finished without reaching it.
"""

import importlib
import sys

from workloads import SETUP_END, rebind


class SetupDone(Exception):
    pass


def _stop(*args, **kwargs):
    raise SetupDone


def main() -> int:
    from mha_nw_lab import cli

    for layer, fname in SETUP_END:
        rebind(getattr(importlib.import_module(f"mha_nw_lab.{layer}"), fname), _stop)
    try:
        code = cli.main(sys.argv[1:])
    except SetupDone:
        return 0
    print(f"set-up boundary {SETUP_END} never reached (exit {code})", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
