"""Fly one mission and audit its trace.

The simulator drives the team with receding-horizon replanning: after
every completed inspection the planner is called again on the surviving
PoIs.  The trace records every event, the reveal log, a cost curve, and
planner wall times, and an independent replay pass re-checks the whole
mission against robot kinematics.
"""

import tempfile
from pathlib import Path

import mrsurvey as m

scenario = m.generate_scenario(seed=243, n_pois=12)
config = m.MissionConfig(planner="model", n_robots=3, speed=1.5)
trace = m.run_mission(scenario, config)

n_damaged = sum(p.damaged for p in scenario.pois)
print(f"12 PoIs ({n_damaged} damaged), 3 robots at speed {config.speed}")
print(f"mission time {trace.total_time:.1f} s, distance "
      f"{trace.total_distance:.1f} m, expected cost {trace.total_expected_cost:.1f}, "
      f"realized cost {trace.total_realized_cost:.1f}")
pc = trace.planning_calls
print(f"{pc.count} planner calls, median {pc.median_wall * 1e3:.1f} ms, "
      f"max {pc.max_wall * 1e3:.1f} ms")

print(f"\n{'t':>8} {'poi':>4} {'damaged':>8}")
for t, poi, damaged in trace.reveal_log:
    print(f"{t:>8.1f} {poi:>4} {str(damaged):>8}")

# The curve tracks undiscovered damage over time; a finished mission
# always ends with nothing left unreported.
print("\ncost curve (time, expected accrued, unreported damage):")
for pt in trace.cost_curve[:: max(1, len(trace.cost_curve) // 6)]:
    print(f"{pt.time:>8.1f} {pt.expected_cost_accrued:>10.1f} "
          f"{pt.n_damaged_unreported:>4}")
assert trace.cost_curve[-1].n_damaged_unreported == 0

replay = m.replay_check(trace, scenario)
print(f"\nreplay check ok={replay.ok}")

# Traces serialize to JSON lines, one event per line plus a summary.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "trace.jsonl"
    m.write_trace(trace, path)
    again = m.load_trace(path)
    assert m.replay_check(again, scenario).ok
    print(f"trace file {path.name} holds {len(path.read_text().splitlines())} records, "
          f"replays clean after reload")

# A mission with a sloppier planner reports the same damage later.
base = m.run_mission(scenario, m.MissionConfig(planner="optimistic",
                                               n_robots=3, speed=1.5))
print(f"\noptimistic baseline on the same world: realized cost "
      f"{base.total_realized_cost:.1f} vs model {trace.total_realized_cost:.1f}")
