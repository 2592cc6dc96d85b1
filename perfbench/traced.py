"""Run one ``repro`` CLI invocation in-process under the tracer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -m perfbench.traced OUT_DIR SPAWN_MONOTONIC [LAZY_MODULE ...] -- ARGV...

Times the import of ``repro.cli`` plus the verb's lazily imported
modules (and, separately, NumPy's own import wherever it happens),
installs :class:`perfbench.tracer.Tracer`, calls ``repro.cli.main(ARGV)``
inside a root ``cli.main`` span, and writes ``OUT_DIR/raw.json``: the
main process's spans, the merged worker spans and the timestamps the
layer table needs. ``SPAWN_MONOTONIC`` is the parent's
``time.monotonic()`` just before it started this process; the system-wide
monotonic clock makes the two comparable. Exits with the CLI's code.
"""

import importlib
import importlib.abc
import importlib.util
import json
import sys
import time
from pathlib import Path


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of one top-level module's import."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            mark = time.monotonic()
            try:
                exec_module(module)
            finally:
                self.seconds += time.monotonic() - mark

        spec.loader.exec_module = timed_exec
        return spec


def main(argv: list[str]) -> int:
    split = argv.index("--")
    out_dir, spawn, *lazy = argv[:split]
    cli_argv = argv[split + 1 :]
    numpy_timer = ImportTimer("numpy")
    if "numpy" not in sys.modules:
        sys.meta_path.insert(0, numpy_timer)
    import_start = time.monotonic()
    import repro.cli

    for name in lazy:
        importlib.import_module(name)
    import_end = time.monotonic()

    from perfbench.tracer import Tracer, merge_workers

    tracer = Tracer(Path(out_dir))
    tracer.install()
    try:
        code = tracer.call("cli.main", repro.cli.main, cli_argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    raw = {
        "spawn": float(spawn),
        "import_start": import_start,
        "import_end": import_end,
        "numpy_import_s": numpy_timer.seconds,
        "main": tracer.snapshot(),
        "workers": merge_workers(Path(out_dir)),
    }
    raw["exit_start"] = time.monotonic()
    (Path(out_dir) / "raw.json").write_text(json.dumps(raw), "utf-8")
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
