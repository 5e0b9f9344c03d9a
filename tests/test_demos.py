"""The demos and the README's Quick start run end to end on the current
sources.

Each demo takes about one to two seconds and writes no files.  02 and 03
price puts through the public API and check them with ``l2_error`` and
``bs_put``; 04 prices the 64x64 basket on 1, 2 and 4 workers and checks
it against Crank-Nicolson and across worker counts.  Every fenced
``python`` block of README.md runs as its own script, so a README edit
that breaks the public API example fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = ["01_contour_inversion.py", "02_put_pricing_convergence.py",
         "03_transparent_boundary.py", "04_basket_parallel.py"]


def _run_python(*args):
    """Run ``python *args`` from the repository root on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    _run_python(str(REPO / "demos" / name))


def test_readme_python_blocks_exit_zero():
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        _run_python("-c", code)
