"""``python -m repro`` — dispatch to the command-line interface.

The process leaves through ``os._exit`` once stdout and stderr are
flushed, skipping interpreter teardown (module and object finalization,
a measured share of every short invocation). Nothing is lost by it:
every verb closes the files it writes (store appends, reports, ``--json``
and ``--save`` outputs, trace sinks) and joins every worker it forks
before :func:`repro.cli.main` returns. ``main`` itself keeps the ordinary
return for tests and the Python API. A flush that fails (a reader that
closed its pipe) falls back to the ordinary exit, so the interpreter
reports it and sets the exit code exactly as it otherwise would.
"""

import os
import sys

from repro.cli import main


def _leave(code: int) -> None:
    """Flush the standard streams, then end the process with ``code``."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    _leave(main())
