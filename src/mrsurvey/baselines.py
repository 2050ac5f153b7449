"""Reference assignment policies the planner is benchmarked against."""

from __future__ import annotations

import math
from typing import List, Tuple

from .planner import JointAction, PlanningState, _claim_nearest, _travel_rows


def optimistic_assign(state: PlanningState) -> JointAction:
    """Each robot heads to its nearest remaining PoI, likelihoods ignored.

    Robots claim distinct PoIs in index order (ties to the lower id);
    duplicates appear only when there are fewer PoIs than robots.
    """
    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    targets, _ = _claim_nearest(state.robot_x, state.robot_y, state.robot_speeds, state.poi_x, state.poi_y)
    return JointAction(tuple(state.poi_ids[j] for j in targets))


def greedy_assign(state: PlanningState) -> JointAction:
    """Target the highest-likelihood PoIs, matched to robots by travel time.

    The top min(n_robots, n_pois) PoIs by likelihood (ties to the lower
    id) form the target set; robots are matched to it minimizing total
    travel time.  Among matchings of equal total, the pick is the one
    `scipy.optimize.linear_sum_assignment` returns (see
    `_min_cost_matching`).  Leftover robots (PoIs < robots) duplicate
    their nearest target in the set, ties to the higher-likelihood one.
    """
    if state.n_pois == 0:
        raise ValueError("empty remaining set")
    ids = state.poi_ids
    # poi_ids ascends and a reversed sort stays stable, so ties keep the
    # lower id.
    by_prob = sorted(range(len(ids)), key=state.likelihoods.__getitem__, reverse=True)
    chosen = by_prob[: min(state.n_robots, len(ids))]

    cost = _travel_rows(state.robot_x, state.robot_y, state.robot_speeds,
                        [state.poi_x[j] for j in chosen], [state.poi_y[j] for j in chosen])
    targets = [-1] * state.n_robots
    for r, c in zip(*_min_cost_matching(cost)):
        targets[r] = chosen[c]
    for r, row in enumerate(cost):
        if targets[r] < 0:
            targets[r] = chosen[row.index(min(row))]
    return JointAction(tuple(ids[j] for j in targets))


def _min_cost_matching(cost: List[List[float]]) -> Tuple[List[int], List[int]]:
    """(rows, cols) of a minimum-total matching of a cost matrix's rows to
    its columns, every row of a wide matrix matched and every column of a
    tall one; rows are ascending.

    A port of `scipy.optimize.linear_sum_assignment`, Crouse's shortest
    augmenting path (D. F. Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016), kept operation for operation
    so that ties break the same way:
    - each row's search scans the columns not yet on its path from the
      last to the first, and a scanned column leaves that list by swap
      with the last;
    - of the columns sharing the lowest path cost, the last one scanned
      that is unassigned wins, else the first one scanned;
    - a tall matrix is solved transposed.
    """
    if not cost or not cost[0]:
        return [], []
    transpose = len(cost[0]) < len(cost)
    if transpose:
        cost = [list(col) for col in zip(*cost)]
    nr, nc = len(cost), len(cost[0])
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        spc = [inf] * nc
        visited_rows = []
        visited_cols = [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        min_val = 0.0
        i = cur
        sink = -1
        while sink < 0:
            visited_rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest = s
                    index = it
            if lowest == inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            visited_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in visited_rows:
            if i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if visited_cols[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break

    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row
