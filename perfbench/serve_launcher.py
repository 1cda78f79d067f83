"""Run ``repro.serve`` with the benchmark's trace wrappers installed.

Usage: ``python perfbench/serve_launcher.py LEDGER_PATH [repro.serve flags...]``

The wrappers of :mod:`tracing` are installed in this process before
``repro.serve.__main__.main`` starts, so the server code is the program's
own.  The span ledger is written (atomically, via a rename) to
``LEDGER_PATH`` whenever the process receives SIGUSR1 and once more after
the SIGTERM drain returns.  A SIGKILLed server loses only what it recorded
since the last SIGUSR1.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

import tracing


def main() -> int:
    ledger_path = Path(sys.argv[1])
    tracer = tracing.install(tracing.Tracer())

    def write_ledger(*_: object) -> None:
        partial = ledger_path.with_suffix(".tmp")
        partial.write_text(json.dumps(tracer.ledger()))
        os.replace(partial, ledger_path)

    signal.signal(signal.SIGUSR1, write_ledger)
    from repro.serve.__main__ import main as serve_main

    code = serve_main(sys.argv[2:])
    write_ledger()
    return code


if __name__ == "__main__":
    sys.exit(main())
