"""Command-line interface: success evaluation, curve sweeps, allocation, circuit checks.

Exit codes: 0 success, 2 validation error (a missing, unreadable,
malformed or invalid configuration or allocation document, a negative
``--mc``, a ``--seed`` outside 0..2^128 - 1, an invalid sweep code, a
sweep's grid or target outside [0, 1], a sweep grid that is descending, not
finite or over 10^6 points, or a sweep with no layout or more than one
chosen), 3 fully infeasible sweep, 4 infeasible allocation, 5 circuit
verification failure.
All output is deterministic for fixed flags: fixed float formatting, fixed
ordering, seeded sampling.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, circuits, montecarlo, planner
from .model import (
    SCHEMA_VERSION,
    InvalidConfiguration,
    QrsCode,
    load_config,
    validate,
)
from .engine import success_probability

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EMPTY_SWEEP = 3
EXIT_INFEASIBLE = 4
EXIT_CIRCUITS = 5


def _parse_grid(text: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:step") from None
    return lo, hi, step


def _describe(exc: Exception) -> str:
    """One line for a malformed document: a missing key, a wrong shape or a bad value."""
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    if isinstance(exc, TypeError):
        return f"malformed document ({exc})"
    return str(exc)


def _read_document(path: str, load, prefix: str):
    """``load(path)``, or ``None`` once bad input is reported on stderr.

    Bad input is an unreadable file, text that is not JSON, a document of
    the wrong shape (a missing key, a list for an object) or an invalid
    value; an ``InvalidConfiguration`` reports each violation on its own
    line.
    """
    try:
        return load(path)
    except InvalidConfiguration as exc:
        for v in exc.violations:
            print(f"invalid: {v}", file=sys.stderr)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"{prefix}: {_describe(exc)}", file=sys.stderr)
    return None


def cmd_success(args) -> int:
    if args.mc < 0:
        print(f"success: --mc {args.mc} is negative", file=sys.stderr)
        return EXIT_VALIDATION
    config = _read_document(args.config, lambda path: validate(load_config(path)), "invalid")
    if config is None:
        return EXIT_VALIDATION
    try:
        est = montecarlo.estimate(config, args.mc, args.seed) if args.mc else None
    except ValueError as exc:
        print(f"success: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"success_probability {success_probability(config):.15g}")
    if est is not None:
        print(f"mc_estimate {est.mean:.15g}")
        print(f"mc_std_error {est.std_error:.15g}")
        print(f"mc_samples {est.samples}")
        print(f"mc_seed {est.seed}")
    return EXIT_OK


def _sweep_scenario(args) -> planner.Scenario:
    if args.shared7:
        return planner.shared_photon_7_scenario()
    if args.shared15:
        return planner.shared_photon_11_scenario()
    if args.d is None or args.k is None:
        raise ValueError("--d and --k are required unless a fixed layout is chosen")
    code = QrsCode(args.d, args.k)
    if args.single:
        return planner.single_channel_scenario(code, args.q)
    if args.n is None:
        raise ValueError("choose --single, --n, --fig4a or --fig4b-eq5")
    return planner.two_channel_scenario(code, args.q, args.n)


def cmd_sweep(args) -> int:
    try:
        grid = planner.grid_points(*args.grid)
        curve = planner.sweep_curve(_sweep_scenario(args), grid, args.target)
    except planner.EmptyCurve:
        print("sweep: every grid point infeasible", file=sys.stderr)
        return EXIT_EMPTY_SWEEP
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            curve.to_csv(fh)
    else:
        curve.to_csv(sys.stdout)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(curve.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _load_problem(path: str) -> planner.AllocationProblem:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return planner.AllocationProblem(
        channels=tuple(
            planner.ChannelSpec(str(c["id"]), float(c["p"]), int(c["capacity"]))
            for c in doc["channels"]
        ),
        codes=tuple(QrsCode(int(c["d"]), int(c["k"])) for c in doc["codes"]),
        q=int(doc.get("q", 1)),
    )


def cmd_allocate(args) -> int:
    problem = _read_document(args.problem, _load_problem, "allocate")
    if problem is None:
        return EXIT_VALIDATION
    try:
        result = planner.allocate(problem, args.target)
    except planner.Infeasible:
        print("allocate: no feasible allocation", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"allocate: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = result.summary(problem)
    out["single_channel_solutions"] = [
        {"d": code.d, "k": code.k, "channel": channel}
        for code, channel in planner.single_channel_solutions(problem, args.target)
    ]
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify_circuits(args) -> int:
    report = circuits.verification_report()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if report["passed"] else EXIT_CIRCUITS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetagg",
        description="Reliability engine and planner for multiplexed qudit packets",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"qnetagg {__version__} (config schema v{SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("success", help="exact success probability of a configuration file")
    p.add_argument("config", help="configuration JSON document")
    p.add_argument("--mc", type=int, default=0, metavar="N", help="add a Monte Carlo estimate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_success)

    p = sub.add_parser("sweep", help="threshold curve: p1 required at each p2")
    p.add_argument("--d", type=int, help="code size (prime)")
    p.add_argument("--k", type=int, help="code parameter k")
    p.add_argument("--q", type=int, default=1, help="qubits per photon")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--n", type=int, help="qudits in the adjustable channel")
    layout.add_argument("--single", action="store_true", help="all qudits in one channel")
    layout.add_argument(
        "--fig4a", dest="shared7", action="store_true",
        help="6-photon/7-qudit shared-photon layout",
    )
    layout.add_argument(
        "--fig4b-eq5", dest="shared15", action="store_true",
        help="15-photon/11-qudit mixed-degree layout",
    )
    p.add_argument("--target", type=float, default=planner.DEFAULT_TARGET)
    p.add_argument("--grid", type=_parse_grid, default=planner.DEFAULT_GRID)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--summary", help="JSON summary path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("allocate", help="minimal feasible code/channel allocation")
    p.add_argument("problem", help="allocation problem JSON document")
    p.add_argument("--target", type=float, default=planner.DEFAULT_TARGET)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("verify-circuits", help="run the full encoding verification suite")
    p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=cmd_verify_circuits)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
