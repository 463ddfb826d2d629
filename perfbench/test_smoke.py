"""The benchmark's smoke mode: every workload, traced and untraced, once.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the root of
the repository.  Each workload builds its system once, plays one round
of operations and checks every answer against its oracle.
"""

import os
import subprocess
import sys

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_mode_runs_every_workload_correctly():
    completed = subprocess.run(
        [sys.executable, RUNNER, "--smoke"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for workload in ("serve-plan", "search-disk", "wire-hot"):
        for trace in (0, 1):
            assert f"{workload} trace={trace}: ok" in completed.stdout
