"""Walk through a single planning decision.

The planner minimizes expected time-to-report over every way the team
can commit to PoIs and every order inspections can finish.  Each
second costs the sum of the still-unreported damage likelihoods, so a
plan costs its likelihood-weighted reveal times, and a finished
inspection frees its robot for the next commitment.  A robot keeps its inspection progress for as long as it
keeps its target; an inspection restarts only if its robot is sent
elsewhere or another robot reveals the PoI first.
"""

import math

import mrsurvey as m

cfg = m.PlannerConfig(depth_cap=6, n_priority=12, n_top_prob=6)

# Two PoIs, one robot.  Going to the likely PoI first costs
# 0.9*10 + 0.1*(10 + distance A to B) = 11.2 here, and no other order
# or split does better.
by = math.sqrt(24.0975)
state = m.make_state(
    [(0, 10.0, 0.0, 0.0, 0.9), (1, -0.95, by, 0.0, 0.1)],
    [m.RobotState(0, 0.0, 0.0, 1.0)],
)
result = m.plan_detailed(state, cfg)
print(f"two PoIs, one robot: optimal cost {result.cost:.4f}, "
      f"first target {result.action.targets}")

# Joint actions assign every robot a PoI; with two robots the planner
# weighs splitting against doubling up on the high-likelihood PoI.
state = m.make_state(
    [(0, 60.0, 0.0, 30.0, 0.9), (1, -50.0, 10.0, 30.0, 0.3), (2, 0.0, 70.0, 30.0, 0.4)],
    [m.RobotState(0, 0.0, 0.0, 1.5), m.RobotState(1, 5.0, 5.0, 1.5)],
)
print(f"\nthree PoIs, two robots: {math.perm(state.n_pois, state.n_robots)} joint actions")
log = []
result = m.plan_detailed(state, cfg, node_log=log)
print(f"optimum {result.cost:.2f} starts with {result.action.targets}, "
      f"{result.nodes_expanded} nodes expanded, {result.children_pruned} pruned")

unpruned = m.plan_detailed(state, m.PlannerConfig(depth_cap=6, prune=False))
assert unpruned.cost == result.cost and unpruned.action == result.action
print(f"pruning is exact: {unpruned.nodes_expanded} nodes without it, "
      f"same cost and action")

# While no greedy tail runs (depth_cap 6 covers all three PoIs), the
# search's bounds never exceed the true completion cost, which is what
# makes its pruning lossless.  The first logged node is the root.
print(f"root lower bound {log[0].bound:.2f} <= optimum {result.cost:.2f}")

# Baselines decide instantly but ignore inspection order and restarts.
print(f"optimistic baseline picks {m.optimistic_assign(state).targets}, "
      f"greedy picks {m.greedy_assign(state).targets}")

# On big instances the search runs on a priority subset: the most
# likely PoIs plus the nearest ones to each robot.
rng_pois = [(i, 40.0 * (i % 6) - 100.0, 25.0 * (i // 6) - 50.0, 30.0,
             0.05 + 0.9 * ((i * 7) % 20) / 19.0) for i in range(20)]
big = m.make_state(rng_pois, [m.RobotState(r, 0.0, 0.0, 1.5) for r in range(3)])
subset = m.select_priority_subset(big, cfg)
print(f"\n20 PoIs: search restricted to {len(subset)} ids {subset}")
full = m.plan_detailed(big, cfg)
print(f"depth-capped optimum {full.cost:.1f}, first action {full.action.targets}")
