"""Run the benchmark in sets of seeded runs and compare the sets.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]

Reads the command, run length, workloads and end-to-end metrics from
BENCHMARK.json.  Each set runs every workload ``--runs`` times, one run at a
time, with seeds 1..runs in the first set and runs+1..2*runs in the second,
and so on.  Every run's metrics are printed as they come.  Then, per workload
and end-to-end metric, each set's median and quartile range (as a share of
the median) are printed with two verdicts: ``spread`` (the range within the
metric's bound) and ``drift`` (each set's median no worse than the first
set's by more than the bound).  The share of failed ops must be the same in
every set.  ``--sets 1 --runs 1`` is the quick report of all three
workloads.  Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    sets: list[dict] = []
    for s in range(args.sets):
        runs: dict[str, list] = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in workloads:
                r = run_once(spec, w, seed)
                runs[w].append(r)
                shown = " ".join(
                    f"{name}={m['value']:.6g} {m['unit']}" for name, m in r["metrics"].items()
                )
                print(
                    f"set {s + 1} {w} seed={seed}: correct={r['correct']} "
                    f"attempted={r['attempted']} failed={r['failed']} {shown} "
                    f"(wall {r['wall_s']:.1f} s)",
                    flush=True,
                )
        sets.append(runs)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(sets, indent=1) + "\n")
    if args.runs < 2:
        return 0

    agree = True
    print(f"\n{'workload':11s} {'metric':12s} {'bound':>6s}  " + "  ".join(
        f"{'median' + str(s + 1):>11s} {'iqr' + str(s + 1):>7s}" for s in range(len(sets))
    ) + "  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[w]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            sign = 1 if metric["better"] == "lower" else -1
            drift_ok = all(sign * (m - medians[0]) / medians[0] <= bound for m in medians[1:])
            spread_ok = all(x <= bound for x in spreads)
            steady = all(x < bound / 3 for x in spreads)
            agree &= drift_ok and spread_ok
            cells = "  ".join(f"{m:11.5g} {x:7.3f}" for m, x in zip(medians, spreads))
            verdict = (
                f"spread {'ok' if spread_ok else 'WIDE'}, drift {'ok' if drift_ok else 'WORSE'}"
                + ("" if steady else " (spread above bound/3)")
            )
            print(f"{w:11s} {name:12s} {bound:6.2f}  {cells}  {verdict}")
        shares = {
            (sum(r["failed"] for r in runs[w]), sum(r["attempted"] for r in runs[w]))
            for runs in sets
        }
        shares_ok = len({f / a for f, a in shares}) == 1
        agree &= shares_ok and all(r["correct"] for runs in sets for r in runs[w])
        verdict = "same" if shares_ok else "DIFFERENT"
        print(f"{w:11s} failed/attempted per set: {sorted(shares)} {verdict}")
    print(f"\nresults: {out.relative_to(ROOT)}")
    print("sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
