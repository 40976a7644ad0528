"""Run with ``python -m pytest benchmarks/e2e/tests`` from the repo
root.  The benchmark's modules are plain files beside ``run.py``; they
import the program from ``src/`` with the BLAS threads pinned, as
``run.py`` does."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import procs  # noqa: E402

procs.pin_blas()
sys.path.insert(0, str(procs.ROOT / "src"))
