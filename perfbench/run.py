"""Run one workload of the qnetagg benchmark and print its metrics.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The workload's op list (see ``workloads.py``) is run in whole rounds, as
many as ``--seconds`` holds at the nominal round time, so every run with the
same ``--seconds`` does identical work whatever the seed.  Library ops run
in this process with numpy pinned to one thread; subcommands run one at a
time as subprocesses.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of ``tracing.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bootstrap  # noqa: E402

# Seconds one round of each op list takes on the reference machine (2 cores,
# Python 3.11): library ops plus subcommands.
NOMINAL_ROUND_S = {"plan": 19.0, "layouts": 10.5, "crosscheck": 10.5}
SETUP_STARTS = 5
CLI_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("plan", "layouts", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cold_starts(workload: str, seed: int) -> list[float]:
    """Seconds from spawning an interpreter to inputs built, for each cold start."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)],
            cwd=bootstrap.ROOT,
            env=bootstrap.child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


class Runner:
    """Runs ops, records their wall time and results, and judges them once."""

    def __init__(self, workloads_module, tracer=None):
        self.w = workloads_module
        self.tracer = tracer
        self.correct = True
        self.failed = 0

    def _read_outputs(self, op) -> tuple[str, ...]:
        return tuple(
            Path(p).read_text(encoding="utf-8") if Path(p).exists() else "" for p in op.outputs
        )

    def _cli(self, op):
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        if self.tracer is None:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "qnetagg.cli", *op.argv],
                cwd=bootstrap.ROOT,
                env=bootstrap.child_env(),
                capture_output=True,
                text=True,
                timeout=CLI_TIMEOUT_S,
            )
            elapsed = time.perf_counter() - start
            code, stdout = proc.returncode, proc.stdout
        else:
            # spans can only be recorded in this process: call the entry point
            out = io.StringIO()
            main = sys.modules["qnetagg.cli"].main
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
            elapsed = time.perf_counter() - start
            stdout = out.getvalue()
        return elapsed, self.w.CliResult(code, stdout, self._read_outputs(op))

    def execute(self, op):
        """(seconds, result, raised) of one op; spans are recorded only in here."""
        if self.tracer:
            self.tracer.enabled = True
        try:
            if op.argv:
                return (*self._cli(op), False)
            start = time.perf_counter()
            try:
                result, raised = op.call(), False
            except Exception as exc:  # an op that raises counts as failed
                result, raised = f"{type(exc).__name__}: {exc}", True
            elapsed = time.perf_counter() - start
        finally:
            if self.tracer:
                self.tracer.enabled = False
        if raised:
            print(f"op failed: {op.name}: {result}", file=sys.stderr)
        return elapsed, result, raised

    def judge(self, op, result, raised: bool) -> bool:
        """True if the op succeeded; a wrong output clears ``correct``."""
        if raised:
            return False
        try:
            ok = op.judge(result)
        except Exception as exc:  # a wrong output, or one the check cannot read
            print(f"incorrect: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.correct = False
            return True
        if not ok:
            print(f"op failed: {op.name}", file=sys.stderr)
        return ok

    def run(self, ops, rounds: int, expected=None):
        """Run ``rounds`` rounds; judge round one, then require identical results.

        ``expected`` holds ``(result, raised, succeeded)`` per op from an
        earlier pass; without it round one is judged and becomes ``expected``.
        Returns per-op seconds of library and subcommand ops, and ``expected``.
        """
        lib, cli = [], []
        judging = expected is None
        expected = [] if judging else expected
        for r in range(rounds):
            for i, op in enumerate(ops):
                elapsed, result, raised = self.execute(op)
                (cli if op.argv else lib).append(elapsed)
                if judging and r == 0:
                    expected.append((result, raised, self.judge(op, result, raised)))
                elif expected[i][:2] != (result, raised):
                    print(f"incorrect: {op.name}: result differs", file=sys.stderr)
                    self.correct = False
                self.failed += not expected[i][2]
        return lib, cli, expected


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingProgram as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    os.chdir(bootstrap.ROOT)
    import qnetagg.cli  # noqa: F401  (bound before tracing wraps its names)

    import workloads

    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    work = Path("perfbench/out") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if args.trace else cold_starts(args.workload, args.seed)
        load = workloads.build(args.workload, args.seed, work.as_posix())
        for path, doc in load.documents.items():
            Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
        gc.collect()
        gc.freeze()

        runner = Runner(workloads)
        lib, cli, results = runner.run(load.ops, rounds)
        attempted, failed = len(load.ops) * rounds, runner.failed
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            traced = Runner(workloads, tracer)
            traced_lib, _, _ = traced.run(load.ops, rounds, expected=results)
            tracer.uninstall()
            # The first pass ran with a cold allocator, so the overhead is
            # taken against a third, untraced pass after the traced one.
            plain = Runner(workloads)
            plain_lib, _, _ = plain.run(load.ops, rounds, expected=results)
            overhead = 100.0 * (sum(traced_lib) / sum(plain_lib) - 1.0)
            metrics = tracer.metrics(rounds, overhead)
            correct = runner.correct and traced.correct and plain.correct
        else:
            completed = sum(1 for op, (_, _, ok) in zip(load.ops, results) if ok and not op.argv)
            lib_ms = [1e3 * t for t in lib]
            metrics = {
                "ops_per_s": {"value": completed * rounds / sum(lib), "unit": "1/s"},
                "p50_ms": {"value": statistics.median(lib_ms), "unit": "ms"},
                "p90_ms": {"value": statistics.quantiles(lib_ms, n=10)[8], "unit": "ms"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
                "cli_ms": {"value": 1e3 * statistics.median(cli), "unit": "ms"},
            }
            correct = runner.correct
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
