"""One cold start: import qnetagg and build a workload's inputs, then exit.

``run.py`` times this script from spawn to exit for ``setup_s``.
Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), "perfbench/out/probe")
