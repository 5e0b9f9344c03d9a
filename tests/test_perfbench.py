"""The benchmark harness runs end to end on the current sources.

``perfbench/smoke.py`` runs every workload and the traced run at reduced
sizes and checks each result against BENCHMARK.json; it takes about half
a minute on 2 CPUs.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=REPO,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
