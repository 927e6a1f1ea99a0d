"""The benchmark's own check: ``run.py --smoke`` on the tiny dataset.

It runs every workload, traced and untraced, through the same code as a
measured run, and fails unless every metric name declared in
``BENCHMARK.json`` is printed, finite, and every answer matches its golden
record.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_prints_every_declared_metric() -> None:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        cwd=RUN.parent.parent,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert proc.stdout.count(": ok (") == 6, proc.stdout
