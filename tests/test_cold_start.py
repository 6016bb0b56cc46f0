"""A fresh process that imports ``exactsi`` loads no scipy module it does not
need: ``scipy.stats`` is imported only by ``validate_pivot_uniformity`` and
``scipy.optimize`` only by ``selection._unbounded``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.signal")


def test_import_loads_no_heavy_scipy_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, exactsi.cli\n"
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
