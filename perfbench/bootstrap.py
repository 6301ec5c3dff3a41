"""Process set-up shared by the benchmark's entry points.

Pins numpy's thread pools to one thread before numpy is imported, and puts
the checkout's ``src`` directory first on ``sys.path`` so that the package
under test is the one in this checkout, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/qnetagg`` package to measure."""


def child_env() -> dict:
    """Environment for subprocesses: one numpy thread, the checkout's sources."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Pin threads and expose the checkout's package; call before importing numpy."""
    if not (SRC / "qnetagg" / "__init__.py").is_file():
        raise MissingProgram(f"no qnetagg package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
