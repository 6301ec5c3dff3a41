"""Command-line interface: success evaluation, curve sweeps, allocation, circuit checks.

Exit codes: 0 success; 2 for any input the command cannot use (a document, a
flag value, an output path, or a layout beyond a documented engine limit),
reported as one line on stderr, or one per violation of an invalid
configuration; 3 fully infeasible sweep; 4 infeasible allocation; 5 circuit
verification failure.  :func:`main` alone maps exceptions to these codes.
All output is deterministic for fixed flags: fixed float formatting, fixed
ordering, seeded sampling.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, montecarlo, planner
from .model import SCHEMA_VERSION, InvalidConfiguration, QrsCode, load_config, read_document
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


def cmd_success(args) -> int:
    if args.mc < 0:
        raise ValueError(f"--mc {args.mc} is negative")
    config = load_config(args.config)
    est = montecarlo.estimate(config, args.mc, args.seed) if args.mc else None
    print(f"success_probability {success_probability(config):.15g}")
    if est is not None:
        print(f"mc_estimate {est.mean:.15g}")
        print(f"mc_std_error {est.std_error:.15g}")
        print(f"mc_samples {est.samples}")
        print(f"mc_seed {est.seed}")
    return EXIT_OK


def _sweep_scenario(args) -> planner.Scenario:
    if args.shared7 or args.shared15:
        layout = "--fig4a" if args.shared7 else "--fig4b-eq5"
        for flag in ("d", "k", "q"):
            if getattr(args, flag) is not None:
                raise ValueError(f"argument --{flag}: not allowed with argument {layout}")
    if args.shared7:
        return planner.shared_photon_7_scenario()
    if args.shared15:
        return planner.shared_photon_11_scenario()
    if args.d is None or args.k is None:
        raise ValueError("--d and --k are required unless a fixed layout is chosen")
    code = QrsCode(args.d, args.k)
    q = 1 if args.q is None else args.q
    if args.single:
        return planner.single_channel_scenario(code, q)
    if args.n is None:
        raise ValueError("choose --single, --n, --fig4a or --fig4b-eq5")
    return planner.two_channel_scenario(code, q, args.n)


def cmd_sweep(args) -> int:
    grid = planner.grid_points(*args.grid)
    curve = planner.sweep_curve(_sweep_scenario(args), grid, args.target)
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


def cmd_allocate(args) -> int:
    problem = planner.problem_from_dict(read_document(args.problem))
    result = planner.allocate(problem, args.target)
    out = result.summary(problem)
    out["single_channel_solutions"] = [
        {"d": code.d, "k": code.k, "channel": channel}
        for code, channel in planner.single_channel_solutions(problem, args.target)
    ]
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify_circuits(args) -> int:
    from . import circuits  # here, so the other subcommands skip its import
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
    p.add_argument("--q", type=int, help="qubits per photon (default 1)")
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
    """Run one subcommand; the only place that turns an exception into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfiguration as exc:
        for v in exc.violations:
            print(f"invalid: {v}", file=sys.stderr)
    except planner.EmptyCurve:
        print("sweep: every grid point infeasible", file=sys.stderr)
        return EXIT_EMPTY_SWEEP
    except planner.Infeasible:
        print("allocate: no feasible allocation", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
