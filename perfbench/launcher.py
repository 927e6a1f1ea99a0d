"""Run the ``repro`` command line with the layer wrappers installed.

Usage: ``python perfbench/launcher.py --trace-out FILE serve --artifacts ...``

The traced ``serve_http`` repetitions start the server through this script
instead of ``python -m repro``: it installs the wrappers of ``tracing.py``,
hands the remaining arguments to the program's own entry point, and writes
the collected spans to ``FILE`` once the command returns (``repro serve``
returns after SIGINT).
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        sys.stderr.write(__doc__ or "")
        return 2
    out, rest = argv[1], argv[2:]
    tracer = tracing.install(tracing.Tracer())
    from repro.cli import main as repro_main

    try:
        return repro_main(rest)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
