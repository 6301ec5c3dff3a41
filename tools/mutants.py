"""Mutation runner: every listed mutant of ``src/qnetagg`` must be killed by the tests.

Usage, from any directory::

    python tools/mutants.py

First the named tests of every mutant run once on an unchanged copy, and must
pass there.  Then, for each mutant, ``src/``, ``tests/``, ``demos/``, ``pyproject.toml``
and ``README.md`` are copied to a temporary directory (so the CLI and demo
subprocesses of the tests import the copy too), the mutant's exact old text in its
module is replaced, and its named tests run in the copy.  Only when they all pass does
the whole suite run there, with ``-x``.  The runner exits 1 when a mutant survives
both, or when its old text does not occur exactly once in its module: a change that
moves the text updates this list.  It needs the standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml", "README.md")  # tests read README.md
TIMEOUT_S = 900  # a mutant that makes a run hang counts as killed


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/qnetagg
    old: str  # exact text, present once in the module
    new: str
    tests: tuple[str, ...]  # pytest ids; at least one must fail


MUTANTS = (
    # the input rules of model
    Mutant(
        "count-sign-dropped", "model.py",
        "if n < 0 or total > code.d:", "if total > code.d:",
        ("tests/test_model.py::test_every_count_takes_one_rule[negative-split]",),
    ),
    Mutant(
        "withheld-at-tolerance-rejected", "model.py",
        "if withheld > code.tolerance():", "if withheld >= code.tolerance():",
        ("tests/test_model.py::test_withheld_rule_admits_zero_to_tolerance",),
    ),
    Mutant(
        "tolerance-off-by-one", "model.py",
        "return self.d - self.k\n", "return self.d - self.k + 1\n",
        ("tests/test_model.py::test_code_derived_quantities",),
    ),
    # runs of one photon object
    Mutant(
        "runs-lose-their-end", "model.py",
        'object.__setattr__(self, "runs", (*starts, len(self.photons)))',
        'object.__setattr__(self, "runs", (*starts,))',
        (
            "tests/test_model.py::test_validate_accepts_uniform_multiplexed",
            "tests/test_repeated_photons.py"
            "::test_runs_are_the_slots_where_the_photon_object_changes[uniform q=1]",
        ),
    ),
    Mutant(
        "run-repeats-undercounted", "model.py",
        "qubit_totals[qudit] += (end - first) * n", "qubit_totals[qudit] += (end - first - 1) * n",
        (
            "tests/test_model.py::test_validate_accepts_uniform_multiplexed",
            "tests/test_repeated_photons.py::test_shared_and_copied_photons_give_equal_results"
            "[uniform q=1]",
        ),
    ),
    Mutant(
        "equal-entries-not-merged", "engine.py",
        "if code and code[-2] == entry:", "if False:",
        (
            "tests/test_repeated_photons.py"
            "::test_which_equal_photons_are_one_object_changes_no_float_bit",
        ),
    ),
    Mutant(
        "run-collapsed-to-first-slot", "engine.py",
        "photons = chain.from_iterable(map(range, runs[::2], runs[1::2]))",
        "photons = runs[::2]",
        (
            "tests/test_engine.py::test_cluster_decompose_uniform_is_singletons",
            "tests/test_repeated_photons.py::test_a_repeated_photon_object_is_k_copies",
        ),
    ),
    # the frontier walk
    Mutant(
        "closing-shift-off-by-one", "engine.py",
        "shift = (erased & closing).bit_count()", "shift = (erased & closing).bit_count() + 1",
        (
            "tests/test_engine.py::test_cluster_pmf_singleton",
            "tests/test_engine.py::test_long_path_matches_transfer_matrix",
        ),
    ),
    Mutant(
        "either-weighs-arrive", "engine.py",
        "branches = ((mask, either),)", "branches = ((mask, arrive),)",
        (
            "tests/test_engine.py::test_cluster_pmf_singleton",
            "tests/test_engine.py::test_long_path_matches_transfer_matrix",
        ),
    ),
    Mutant(
        "arrive-and-lose-swapped", "engine.py",
        "branches = ((mask, arrive), (mask | hit, lose))",
        "branches = ((mask, lose), (mask | hit, arrive))",
        (
            "tests/test_engine.py::test_cluster_pmf_singleton",
            "tests/test_engine.py::test_long_path_matches_transfer_matrix",
        ),
    ),
    # Monte Carlo blocks, workers and units
    Mutant(
        "block-not-rounded-even", "montecarlo.py",
        "    block += block % 2  # whole 64-bit words, even when a row has odd length\n", "",
        # 3 workers draw blocks of 15 rows, 1 or 2 workers one of 43 or even ones of 22;
        # the default takes the host's CPUs, so one of these compares odd with even
        (
            "tests/test_montecarlo.py::test_estimate_is_the_same_on_any_cpu_count[d43-odd-tail-1]",
            "tests/test_montecarlo.py::test_estimate_is_the_same_on_any_cpu_count[d43-odd-tail-3]",
        ),
    ),
    Mutant(
        "whole-chunk-blocks", "montecarlo.py",
        "    block = min(block, MAX_BLOCK_ROWS)\n", "    block = n_units\n",
        ("tests/test_montecarlo.py::test_memory_of_an_estimate_does_not_grow_with_the_layout",),
    ),
    Mutant(
        "words-not-freed", "montecarlo.py",
        "            del words  # this block is freed before the next one is drawn\n", "",
        ("tests/test_montecarlo.py::test_blocks_bound_the_memory_of_an_estimate",),
    ),
    Mutant(
        "workers-uncapped", "montecarlo.py",
        "workers = min(_cpu_count(), chunks)", "workers = _cpu_count()",
        ("tests/test_montecarlo.py::test_one_chunk_starts_no_thread",),
    ),
    Mutant(
        "merged-photon-takes-last-p", "montecarlo.py",
        "private[q] = private.get(q, 1.0) * float(p)", "private[q] = float(p)",
        ("tests/test_montecarlo.py::test_private_photons_draw_as_one_photon_per_qudit",),
    ),
)


def copy_tree(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def run_pytest(cwd: Path, args) -> tuple[bool, str]:
    """Whether pytest passes ``args`` in ``cwd``, and its first failing test id."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    try:
        done = subprocess.run(
            command, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, (failed or [f"exit {done.returncode}"])[0]


def run_mutant(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a fresh copy and report; True when it is killed."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        path = Path(tmp) / "src" / "qnetagg" / mutant.module
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            print(f"{mutant.name}: old text occurs {found} times in {mutant.module}")
            return False
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        passed, failure = run_pytest(Path(tmp), ["-x", *mutant.tests])
        stage = "its tests"
        if passed:
            passed, failure = run_pytest(Path(tmp), ["-x"])
            stage = "the suite, not its tests"
    took = time.perf_counter() - start
    if passed:
        print(f"{mutant.name}: SURVIVED ({took:.1f} s)")
    else:
        print(f"{mutant.name}: killed by {stage}, {failure} ({took:.1f} s)")
    return not passed


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy_tree(Path(tmp))
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        passed, failure = run_pytest(Path(tmp), tests)
    if not passed:
        print(f"the named tests fail without a mutant: {failure}")
        return 1
    killed = sum(run_mutant(mutant) for mutant in MUTANTS)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
