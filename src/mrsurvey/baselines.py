"""Reference assignment policies the planner is benchmarked against."""

from __future__ import annotations

import numpy as np

from .planner import JointAction, PlanningState, _claim_nearest, _travel_matrix


def optimistic_assign(state: PlanningState) -> JointAction:
    """Each robot heads to its nearest remaining PoI, likelihoods ignored.

    Robots claim distinct PoIs in index order (ties to the lower id);
    duplicates appear only when there are fewer PoIs than robots.
    """
    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    rx, ry = state.robot_xy.T.tolist()
    xs, ys = state.poi_xy.T.tolist()
    targets, _ = _claim_nearest(rx, ry, state.robot_speeds.tolist(), xs, ys)
    return JointAction(tuple(int(state.poi_ids[j]) for j in targets))


def greedy_assign(state: PlanningState) -> JointAction:
    """Target the highest-likelihood PoIs, matched to robots by travel time.

    The top min(n_robots, n_pois) PoIs by likelihood (ties to the lower
    id) form the target set; robots are matched to it minimizing total
    travel time.  Leftover robots (PoIs < robots) duplicate their
    nearest target in the set.
    """
    # scipy.optimize costs about 0.5 s and 45 MB to import, and only this
    # baseline uses it, so it is loaded on the first call.
    from scipy.optimize import linear_sum_assignment

    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    n, n_rob = state.n_pois, state.n_robots
    k = min(n_rob, n)
    by_prob = sorted(range(n), key=lambda j: (-state.likelihoods[j], state.poi_ids[j]))
    chosen = by_prob[:k]

    tt = _travel_matrix(state.robot_xy, state.robot_speeds, state.poi_xy)
    cost = tt[:, chosen]
    rows, cols = linear_sum_assignment(cost)
    targets = np.full(n_rob, -1, dtype=np.int64)
    for r, c in zip(rows, cols):
        targets[r] = chosen[c]
    for r in range(n_rob):
        if targets[r] < 0:
            targets[r] = chosen[int(cost[r].argmin())]
    return JointAction(tuple(int(state.poi_ids[j]) for j in targets))
