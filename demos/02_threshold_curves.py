"""Iso-success curves: trading one channel's quality against the other.

For the 43-qudit code, raising the reference channel to 0.99 lets the
adjustable channel (carrying 20 qudits) drop to ~0.81 without multiplexing,
or ~0.39 with 4 qubits per photon.  Writes the curves as CSV files into
the current directory.
"""

from qnetagg import QrsCode, grid_points, solve_p1, sweep_curve, two_channel_scenario
from qnetagg.planner import single_channel_scenario

CODE = QrsCode(43, 22)

for q in (1, 4):
    flat = solve_p1(single_channel_scenario(CODE, q), 0.5)
    print(f"q={q}: single-channel threshold p* = {flat:.4f}")
    scenario = two_channel_scenario(CODE, q, 20)
    curve = sweep_curve(scenario, grid_points(0.3, 1.0, 0.002))
    path = f"curve_d43_q{q}_n20.csv"
    with open(path, "w", encoding="utf-8") as fh:
        curve.to_csv(fh)
    print(f"  wrote {path}: {len(curve.points)} feasible points, "
          f"{len(curve.infeasible)} infeasible")
    for p2 in (0.95, 0.97, 0.99):
        print(f"  p2={p2}: adjustable channel may drop to p1 = {solve_p1(scenario, p2):.4f}")
    print()

print("High-dimensional example: 211 qudits, 8 qubits per photon")
code = QrsCode(211, 106)
p_star = solve_p1(single_channel_scenario(code, 8), 0.5)
print(f"  single-channel threshold p* = {p_star:.4f}")
for n in (50, 80, 100):
    scenario = two_channel_scenario(code, 8, n)
    at_diag = solve_p1(scenario, p_star)
    at_99 = solve_p1(scenario, 0.99)
    print(f"  n={n:3d}: crosses the diagonal at {at_diag:.4f}, "
          f"p1({0.99}) = {at_99:.4f}")
