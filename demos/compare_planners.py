"""Benchmark the planner against both baselines on paired worlds.

Every planner flies the same scenarios with the same team sizes, so
cost differences come from decisions alone.  The harness aggregates
realized costs per cell, computes paired improvements, replay-checks
every trace, and emits deterministic CSV summaries.
"""

import tempfile
from pathlib import Path

import mrsurvey as m

spec = m.ExperimentSpec(
    n_trials=20,
    n_pois=(8,),
    n_robots=(1, 3),
    seed_base=100,
    planner_config=m.PlannerConfig(depth_cap=4),
)
report = m.run_experiment(spec)

print(f"{spec.n_trials} paired trials per cell, planners {spec.planners}")
print(f"\n{'planner':>12} {'pois':>5} {'robots':>7} {'mean':>9} {'median':>9} {'std':>8}")
for key in sorted(report.cells):
    c = report.cells[key]
    print(f"{c.planner:>12} {c.n_pois:>5} {c.n_robots:>7} "
          f"{c.mean:>9.1f} {c.median:>9.1f} {c.std:>8.1f}")

print()
for (n_pois, n_robots, baseline), pct in sorted(report.improvements.items()):
    print(f"model vs {baseline:>10} at {n_pois} PoIs, {n_robots} robots: "
          f"{pct:+6.1f}%")

assert report.replay_failures == ()
print(f"\nall {spec.n_trials * len(spec.planners) * 2} traces replayed clean")

# More robots help: the model's mean cost drops with team size.
m1 = report.cells[("model", 8, 1)].mean
m3 = report.cells[("model", 8, 3)].mean
print(f"model mean cost {m1:.1f} with 1 robot, {m3:.1f} with 3")

# Emitted files are byte-stable for a fixed spec, which makes result
# directories diffable across machines and reruns.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    m.emit_outputs(report, out)
    for name in sorted(p.name for p in out.iterdir()):
        print(f"wrote {name}")
    print("\nsummary.csv:")
    print((out / "summary.csv").read_text(), end="")
