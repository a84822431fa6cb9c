"""Process entry point: ``python -m taylorlaw`` and the ``taylorlaw`` script.

A command runs once and exits, so the cyclic garbage collector has no work
worth its cost: the collector is off while the command runs, and the heap is
frozen before the interpreter shuts down, so shutdown's collections skip
every object. The garbage cycles a command leaves do not grow with its input
(``tests/test_cli.py``). ``cli.main``, which tests and library callers run in
process, leaves the collector alone.
"""

import gc
import sys


def main() -> int:
    """Run the command line without the cyclic collector; return its status."""
    gc.disable()
    try:
        from . import cli

        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
