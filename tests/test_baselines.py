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
from mrsurvey.planner import _claim_nearest

import reference


def _state_from(pois, robots):
    return m.make_state(
        [(p[0], p[1], p[2], p[3], p[4]) for p in pois],
        [m.RobotState(i, r[0], r[1], r[2]) for i, r in enumerate(robots)],
    )


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
            xy = st.poi_xy.tolist()
            claims, times = _claim_nearest(*st.robot_xy.T.tolist(), st.robot_speeds.tolist(),
                                           *st.poi_xy.T.tolist())
            for (x, y, v), g, t in zip(robots, claims, times):
                dx = x - xy[g][0]
                dy = y - xy[g][1]
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
    def test_scipy_loads_only_for_the_greedy_baseline(self):
        # A fresh interpreter: the test process itself has scipy loaded.
        child = textwrap.dedent("""
            import json, sys
            import mrsurvey as m
            world = m.generate_scenario(3, 12)
            for planner in ("model", "optimistic"):
                m.run_mission(world, m.MissionConfig(planner=planner, n_robots=3, seed=3))
            before = "scipy.optimize" in sys.modules
            trace = m.run_mission(world, m.MissionConfig(planner="greedy", n_robots=3, seed=3))
            print(json.dumps({
                "before_greedy": before,
                "after_greedy": "scipy.optimize" in sys.modules,
                "replay": m.replay_check(trace, world).reasons,
            }))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report == {"before_greedy": False, "after_greedy": True, "replay": []}
