"""Tests for the nearest-PoI and likelihood-greedy comparison planners."""

import json
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

import mrsurvey as m
from mrsurvey.baselines import _min_cost_matching
from mrsurvey.planner import _claim_nearest

import reference


def _state_from(pois, robots):
    return m.make_state(
        [(p[0], p[1], p[2], p[3], p[4]) for p in pois],
        [m.RobotState(i, r[0], r[1], r[2]) for i, r in enumerate(robots)],
    )


COST_KINDS = ("integer", "uniform", "identical rows", "two-level")


def _random_cost(rng, kind):
    """A 1-6 x 1-6 cost matrix (list of rows) of one of COST_KINDS: small
    integers, uniform reals, one row repeated (robots on one spot), or
    two values only.  All but the uniform kind tie on most draws."""
    nr, nc = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "integer":
        return [[float(rng.randint(0, 2)) for _ in range(nc)] for _ in range(nr)]
    if kind == "uniform":
        return [[rng.random() for _ in range(nc)] for _ in range(nr)]
    if kind == "identical rows":
        row = [rng.random() for _ in range(nc)]
        return [list(row) for _ in range(nr)]
    lo, hi = rng.random(), 1.0 + rng.random()
    return [[rng.choice((lo, hi)) for _ in range(nc)] for _ in range(nr)]


class TestOptimisticAssign:
    def test_takes_nearest(self):
        st = _state_from([(0, 10.0, 0.0, 30.0, 0.9), (1, 5.0, 0.0, 30.0, 0.1)],
                         [[0, 0, 1]])
        assert m.optimistic_assign(st).targets == (1,)

    def test_index_order_claiming(self):
        # both robots are nearest to PoI 0; robot 0 claims it first
        st = _state_from([(0, 0.0, 0.0, 30.0, 0.5), (1, 10.0, 0.0, 30.0, 0.5)],
                         [[0.0, 5.0, 1.0], [0.0, -5.0, 1.0]])
        assert m.optimistic_assign(st).targets == (0, 1)

    def test_duplicates_only_when_pois_run_out(self):
        st = _state_from([(0, 1.0, 0.0, 30.0, 0.5), (1, 9.0, 0.0, 30.0, 0.5)],
                         [[0.0, 0.0, 1.0], [10.0, 0.0, 1.0], [0.5, 0.0, 1.0]])
        assert m.optimistic_assign(st).targets == (0, 1, 0)

    def test_distance_tie_breaks_to_lower_id(self):
        st = _state_from([(4, 10.0, 0.0, 30.0, 0.5), (8, -10.0, 0.0, 30.0, 0.5)],
                         [[0.0, 0.0, 1.0]])
        assert m.optimistic_assign(st).targets == (4,)

    def test_ignores_likelihoods(self):
        rng = random.Random(41)
        for _ in range(20):
            pois, robots = reference.random_small_instance(rng)
            st1 = _state_from(pois, robots)
            shuffled = [row[:4] + (rng.random(),) for row in pois]
            st2 = _state_from(shuffled, robots)
            assert m.optimistic_assign(st1).targets == m.optimistic_assign(st2).targets

    def test_empty_state_rejected(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            m.optimistic_assign(st)

    def test_matches_independent_restatement(self):
        # Integer grid positions make exact distance ties common; half the
        # multi-robot draws put robot 1 on robot 0's spot.
        rng = random.Random(46)
        seen = {"colocated": 0, "tie": 0, "mixed speeds": 0, "fewer PoIs": 0}
        for _ in range(400):
            pois = [(pid, float(rng.randint(-3, 3)), float(rng.randint(-3, 3)), 30.0, rng.random())
                    for pid in rng.sample(range(40), rng.randint(1, 6))]
            robots = [[float(rng.randint(-3, 3)), float(rng.randint(-3, 3)),
                       rng.choice([0.5, 1.0, 1.0, 2.0, 3.0])] for _ in range(rng.randint(1, 5))]
            if len(robots) > 1 and rng.random() < 0.5:
                robots[1][:2] = robots[0][:2]
                seen["colocated"] += 1
            want, ties = reference.nearest_claims(pois, robots)
            st = _state_from(pois, robots)
            assert m.optimistic_assign(st).targets == want
            # The claim also hands back each robot's travel time to its
            # claim; the segment step uses it in place of its own sqrt.
            claims, times = _claim_nearest(st.robot_x, st.robot_y, st.robot_speeds, st.poi_x, st.poi_y)
            for (x, y, v), g, t in zip(robots, claims, times):
                dx = x - st.poi_x[g]
                dy = y - st.poi_y[g]
                assert t.hex() == (math.sqrt(dx * dx + dy * dy) / v).hex()
            seen["tie"] += ties > 0
            seen["mixed speeds"] += len({r[2] for r in robots}) > 1
            seen["fewer PoIs"] += len(pois) < len(robots)
        assert min(seen.values()) >= 40, seen


class TestGreedyAssign:
    def test_top_likelihood_set_with_min_travel_matching(self):
        pois = [(0, 0.0, 10.0, 30.0, 0.9), (1, 100.0, 10.0, 30.0, 0.5),
                (2, 50.0, 200.0, 30.0, 0.1)]
        st = _state_from(pois, [[0.0, 0.0, 1.0], [100.0, 0.0, 1.0]])
        assert m.greedy_assign(st).targets == (0, 1)
        # swapping the robots swaps the matching, not the target set
        st_swapped = _state_from(pois, [[100.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert m.greedy_assign(st_swapped).targets == (1, 0)

    def test_equal_likelihoods_take_lowest_ids(self):
        pois = [(pid, 10.0 * pid, 0.0, 30.0, 0.4) for pid in (2, 5, 7, 9)]
        st = _state_from(pois, [[35.0, 0.0, 1.0], [90.0, 0.0, 1.0]])
        assert set(m.greedy_assign(st).targets) == {2, 5}

    def test_single_robot_ignores_distance(self):
        st = _state_from([(0, 1.0, 0.0, 30.0, 0.2), (1, 500.0, 0.0, 30.0, 0.9)],
                         [[0.0, 0.0, 1.0]])
        assert m.greedy_assign(st).targets == (1,)

    def test_target_set_invariant_to_geometry(self):
        rng = random.Random(43)
        for _ in range(20):
            pois, robots = reference.random_small_instance(rng)
            if len(pois) < len(robots):
                continue
            st1 = _state_from(pois, robots)
            moved = [(p[0], p[1] * 3.0 - 40.0, p[2] * 0.5 + 7.0, p[3], p[4]) for p in pois]
            st2 = _state_from(moved, [[rng.uniform(-50, 50), rng.uniform(-50, 50), r[2]]
                                      for r in robots])
            assert set(m.greedy_assign(st1).targets) == set(m.greedy_assign(st2).targets)

    def test_duplicates_only_when_pois_run_out(self):
        st = _state_from([(0, 1.0, 0.0, 30.0, 0.9), (1, 9.0, 0.0, 30.0, 0.8)],
                         [[0.0, 0.0, 1.0], [10.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
        targets = m.greedy_assign(st).targets
        assert set(targets) == {0, 1}
        assert len(targets) == 3

    def test_empty_state_rejected(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            m.greedy_assign(st)

    def test_matches_the_scipy_greedy(self):
        # Integer grid positions, few speeds and few likelihood values make
        # exact ties common, in the target set and in the matching.
        rng = random.Random(47)
        seen = {"colocated": 0, "tie": 0, "mixed speeds": 0, "fewer PoIs": 0, "tied likelihoods": 0}
        for _ in range(3000):
            n_rob = rng.randint(1, 7)
            n = rng.randint(1, 6) if rng.random() < 0.25 else rng.randint(1, 36)
            pois = [(pid, float(rng.randint(-4, 4)), float(rng.randint(-4, 4)), 30.0,
                     rng.choice([0.25, 0.5, rng.random()]))
                    for pid in rng.sample(range(60), n)]
            robots = [[float(rng.randint(-4, 4)), float(rng.randint(-4, 4)),
                       rng.choice([1.0, 1.0, 2.0, 0.5])] for _ in range(n_rob)]
            if n_rob > 1 and rng.random() < 0.3:
                robots = [robots[0][:2] + [r[2]] for r in robots]
            st = _state_from(pois, robots)
            assert m.greedy_assign(st) == reference.scipy_greedy_assign(st), (pois, robots)
            ranked = sorted(pois, key=lambda p: (-p[4], p[0]))
            chosen = ranked[:n_rob]
            times = [[math.sqrt((x - p[1]) * (x - p[1]) + (y - p[2]) * (y - p[2])) / v for p in chosen]
                     for x, y, v in robots]
            seen["colocated"] += n_rob > 1 and len({(x, y) for x, y, _ in robots}) == 1
            seen["tie"] += any(len(set(row)) < len(row) for row in times)
            seen["mixed speeds"] += len({r[2] for r in robots}) > 1
            seen["fewer PoIs"] += n < n_rob
            # equal likelihoods in the target set or at its cut: the lower
            # id must win, which the library leaves to a stable sort
            top = [p[4] for p in ranked[:n_rob + 1]]
            seen["tied likelihoods"] += len(set(top)) < len(top)
        assert min(seen.values()) >= 40, seen


class TestMinCostMatching:
    def test_matches_scipy_linear_sum_assignment(self):
        # The port must return scipy's rows and columns, not just a
        # matching of the same total: greedy_assign's targets depend on
        # which of several optimal matchings comes back.
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(61)
        shapes = {"wide": 0, "tall": 0, "square": 0}
        for t in range(20000):
            cost = _random_cost(rng, COST_KINDS[t % 4])
            rows, cols = linear_sum_assignment(cost)
            assert _min_cost_matching(cost) == (rows.tolist(), cols.tolist()), cost
            nr, nc = len(cost), len(cost[0])
            shapes["wide" if nr < nc else "tall" if nr > nc else "square"] += 1
        assert min(shapes.values()) >= 2000, shapes

    def test_total_is_the_brute_force_minimum(self):
        rng = random.Random(62)
        for t in range(2000):
            cost = _random_cost(rng, COST_KINDS[t % 4])
            rows, cols = _min_cost_matching(cost)
            assert rows == sorted(rows)
            assert len(set(rows)) == len(set(cols)) == len(rows) == min(len(cost), len(cost[0]))
            total = sum(cost[r][c] for r, c in zip(rows, cols))
            assert math.isclose(total, reference.min_matching_total(cost), rel_tol=1e-12, abs_tol=1e-12)

    def test_small_cases_as_in_scipy(self):
        # a constant matrix matches row i to column i (scipy issue 11602)
        assert _min_cost_matching([[1.0] * 3 for _ in range(3)]) == ([0, 1, 2], [0, 1, 2])
        # the last column scanned that is still free wins, and the scan
        # runs from the last column to the first
        assert _min_cost_matching([[0.0, 0.0, 0.0]]) == ([0], [0])
        assert _min_cost_matching([[0.0], [0.0]]) == ([0], [0])
        assert _min_cost_matching([[2.0, 1.0], [1.0, 2.0], [0.0, 0.0]]) == ([1, 2], [0, 1])
        assert _min_cost_matching([]) == ([], [])
        # no matching of finite total: scipy raises the same error
        with pytest.raises(ValueError, match="infeasible"):
            _min_cost_matching([[math.inf, 1.0], [math.inf, 2.0]])


class TestValidity:
    def test_actions_are_valid_joint_actions(self):
        rng = random.Random(44)
        for _ in range(40):
            pois, robots = reference.random_small_instance(rng)
            st = _state_from(pois, robots)
            for assign in (m.optimistic_assign, m.greedy_assign):
                targets = assign(st).targets
                assert len(targets) == len(robots)
                assert set(targets) <= set(st.poi_ids)
                if len(pois) >= len(robots):
                    assert len(set(targets)) == len(targets)
                else:
                    assert set(targets) == set(st.poi_ids)


class TestImportFootprint:
    def test_missions_run_without_scipy(self):
        # A fresh interpreter in which `import scipy` fails: the test
        # process itself has scipy loaded, and no planner may need it.
        child = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None
            import mrsurvey as m
            world = m.generate_scenario(3, 12)
            reasons = {}
            for planner in ("model", "optimistic", "greedy"):
                trace = m.run_mission(world, m.MissionConfig(planner=planner, n_robots=3, seed=3))
                reasons[planner] = m.replay_check(trace, world).reasons
            print(json.dumps(reasons))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"model": [], "optimistic": [], "greedy": []}
