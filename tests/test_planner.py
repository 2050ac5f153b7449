"""Tests for the joint-action planning engine."""

import dataclasses
import functools
import math
import random

import numpy as np
import pytest

import mrsurvey as m
from mrsurvey import simulator
from mrsurvey.planner import NodeRecord, _claim_nearest, _commit_row, _scalars, _Search, _tail, _travel_rows

import reference


CFG6 = m.PlannerConfig(depth_cap=6, n_priority=12, n_top_prob=6)


def _state_from(pois, robots, progress=None):
    progress = progress or [None] * len(robots)
    return m.make_state(
        [(p[0], p[1], p[2], p[3], p[4]) for p in pois],
        [m.RobotState(i, r[0], r[1], r[2], *(held or (None, None)))
         for i, (r, held) in enumerate(zip(robots, progress))],
    )


def _with_progress(rng, pois, robots):
    """Put about half the robots part-way through inspecting a random PoI.

    Returns the moved robots and one (pid, remaining) or None per robot.
    Robots that started on the same spot get the same progress, so
    identical robots stay identical.
    """
    robots = [list(r) for r in robots]
    progress = [None] * len(robots)
    shared = {}
    for i, r in enumerate(robots):
        key = tuple(r)
        if key not in shared:
            if rng.random() < 0.5:
                shared[key] = None
            else:
                p = rng.choice(pois)
                left = rng.choice([0.0, p[3], rng.uniform(0.0, p[3])])
                shared[key] = (p, left)
        if shared[key] is not None:
            p, left = shared[key]
            robots[i] = [p[1], p[2], r[2]]
            progress[i] = (p[0], left)
    return robots, progress


def _full_search(st, cfg):
    """The search's cost and first joint action on a state it searches
    whole, with no priority-subset cut."""
    res = m.plan_detailed(st, cfg)
    assert res.subset_ids == st.poi_ids
    return res.cost, res.action


def _cut_state(st, ids):
    """The state's rows of ids, built by make_state; a commitment to a
    PoI outside ids is dropped."""
    rows = [(pid, st.poi_x[j], st.poi_y[j], st.inspect_times[j], st.likelihoods[j])
            for pid, j in zip(ids, map(st.index_of, ids))]
    robots = [m.RobotState(i, x, y, v, *((t, q) if t in ids else (None, None)))
              for i, (x, y, v, t, q) in enumerate(zip(st.robot_x, st.robot_y, st.robot_speeds,
                                                      st.robot_targets, st.robot_remaining))]
    return m.make_state(rows, robots, st.elapsed)


def _rollout(st):
    """The greedy tail's completion cost from the state, uncut."""
    return _tail(*_scalars(st, st.poi_ids), 0.0, math.inf)


def _two_poi_instance():
    # one robot at the origin; PoI 0 at distance 10 with p=0.9, PoI 1 at
    # distance 5 with p=0.1, the pair 12 apart, zero inspect times
    by = math.sqrt(24.0975)
    return m.make_state(
        [(0, 10.0, 0.0, 0.0, 0.9), (1, -0.95, by, 0.0, 0.1)],
        [m.RobotState(0, 0.0, 0.0, 1.0)],
    )


class TestMakeState:
    def test_rows_sorted_by_id(self):
        st = m.make_state([(5, 1.0, 0.0, 0.0, 0.2), (2, 0.0, 1.0, 0.0, 0.8)],
                          [m.RobotState(0, 0.0, 0.0)])
        assert st.poi_ids == (2, 5)
        assert st.likelihoods == (0.8, 0.2)

    def test_validation(self):
        rob = [m.RobotState(0, 0.0, 0.0)]
        with pytest.raises(ValueError):
            m.make_state([(1, 0.0, 0.0, 0.0, 0.5), (1, 1.0, 0.0, 0.0, 0.5)], rob)
        with pytest.raises(ValueError):
            m.make_state([(0, 0.0, 0.0, -1.0, 0.5)], rob)
        with pytest.raises(ValueError):
            m.make_state([(0, 0.0, 0.0, 0.0, 1.5)], rob)
        with pytest.raises(ValueError):
            m.make_state([(0, 0.0, 0.0, 0.0, math.nan)], rob)
        with pytest.raises(ValueError):
            m.make_state([(0, 0.0, 0.0, 0.0, 0.5)], [])
        with pytest.raises(ValueError):
            m.make_state([(0, 0.0, 0.0, 0.0, 0.5)], [m.RobotState(0, 0.0, 0.0, 0.0)])

    def test_fields_hold_python_floats(self):
        # numpy and integer inputs become exact python floats, sign of zero kept
        pois = [(np.int64(4), np.float64(1.5), np.float32(2.0), np.int64(30), np.float64(0.25)),
                (1, 3, -0.0, 0, 1)]
        robots = [m.RobotState(0, np.float64(0.5), np.int64(2), np.float32(1.5), np.int64(4), np.float64(7.0)),
                  m.RobotState(1, 1, 1, 2)]
        st = m.make_state(pois, robots, elapsed=np.float64(3.0))
        floats = ("poi_x", "poi_y", "inspect_times", "likelihoods",
                  "robot_x", "robot_y", "robot_speeds", "robot_remaining")
        assert (st.poi_x, st.poi_y, st.inspect_times, st.likelihoods) == (
            (3.0, 1.5), (-0.0, 2.0), (0.0, 30.0), (1.0, 0.25))
        assert (st.robot_x, st.robot_y, st.robot_speeds) == ((0.5, 1.0), (2.0, 1.0), (1.5, 2.0))
        assert st.poi_y[0].hex() == (-0.0).hex()
        assert st.robot_targets == (4, None) and type(st.robot_targets[0]) is int
        assert all(type(pid) is int for pid in st.poi_ids)
        succ = m.action_outcome(st, m.JointAction((4, 1))).successor
        for state in (st, succ):
            for name in floats:
                col = getattr(state, name)
                assert type(col) is tuple and all(type(v) is float for v in col), name
            assert type(state.elapsed) is float
        # The search's lists, read from the state's rows of a subset.
        pids, *cols, targ, rem = _scalars(st, [4])
        for k, col in enumerate([*cols, rem]):
            assert type(col) is list and all(type(v) is float for v in col), k
        assert (pids, targ, rem) == ([4], [0, -1], [7.0, 0.0])
        assert all(type(v) is int for v in pids + targ)

    def test_validation_messages(self):
        rob = [m.RobotState(0, 0.0, 0.0)]
        bad_pois = [
            ((0, np.nan, 0.0, 0.0, 0.5), "non-finite PoI position"),
            ((0, 0.0, -np.inf, 0.0, 0.5), "non-finite PoI position"),
            ((0, 0.0, 0.0, np.float64(-1.0), 0.5), "inspect times must be finite and >= 0"),
            ((0, 0.0, 0.0, math.inf, 0.5), "inspect times must be finite and >= 0"),
            ((0, 0.0, 0.0, math.nan, 0.5), "inspect times must be finite and >= 0"),
            ((0, 0.0, 0.0, 0.0, np.float64(1.5)), r"likelihoods must lie in \[0, 1\]"),
            ((0, 0.0, 0.0, 0.0, -0.25), r"likelihoods must lie in \[0, 1\]"),
            ((0, 0.0, 0.0, 0.0, math.nan), r"likelihoods must lie in \[0, 1\]"),
        ]
        for row, msg in bad_pois:
            with pytest.raises(ValueError, match=msg):
                m.make_state([row], rob)
        ok = [(0, 0.0, 0.0, 0.0, 0.5)]
        with pytest.raises(ValueError, match="at least one robot required"):
            m.make_state(ok, [])
        for x, y in ((math.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="non-finite robot position"):
                m.make_state(ok, [m.RobotState(0, x, y)])
        for v in (0.0, -1.0, np.float64(0.0), math.inf, math.nan):
            with pytest.raises(ValueError, match="robot speeds must be finite and > 0"):
                m.make_state(ok, [m.RobotState(0, 0.0, 0.0, v)])

    def test_commitments_and_their_validation(self):
        pois = [(3, 1.0, 0.0, 30.0, 0.5), (5, 2.0, 0.0, 10.0, 0.5)]
        st = m.make_state(pois, [m.RobotState(0, 1.0, 0.0, 1.0, 3, 12.5),
                                 m.RobotState(1, 0.0, 0.0, 1.0, 5),
                                 m.RobotState(2, 0.0, 0.0)])
        assert st.robot_targets == (3, 5, None)
        assert st.robot_remaining == (12.5, 10.0, 0.0)
        for target, left in ((4, None), (3, -1.0), (3, 31.0), (3, math.nan)):
            with pytest.raises(ValueError):
                m.make_state(pois, [m.RobotState(0, 0.0, 0.0, 1.0, target, left)])

    def test_subset_drops_commitments_outside_it(self):
        st = m.make_state([(i, float(i), 0.0, 20.0, 0.1 * i) for i in range(4)],
                          [m.RobotState(0, 1.0, 0.0, 1.0, 1, 5.0),
                           m.RobotState(1, 3.0, 0.0, 1.0, 3, 7.0)])
        pids, *_, targ, rem = _scalars(st, [1, 2])
        assert pids == [1, 2]
        assert targ == [0, -1]
        assert rem == [5.0, 0.0]

    def test_subset_and_index_of(self):
        st = m.make_state([(i, float(i), 0.0, 0.0, 0.1 * i) for i in range(5)],
                          [m.RobotState(0, 0.0, 0.0)])
        pids, xs, ys, insp, lik = _scalars(st, [1, 3])[:5]
        assert (pids, xs, ys, insp, lik) == ([1, 3], [1.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0.1, 0.1 * 3])
        assert st.index_of(4) == 4
        with pytest.raises(KeyError):
            st.index_of(9)

    def test_index_of_on_sparse_ids(self):
        st = m.make_state([(pid, float(pid), 0.0, 0.0, 0.5) for pid in (7, 2, 11, 4)],
                          [m.RobotState(0, 0.0, 0.0)])
        assert st.index_of(2) == 0
        assert st.index_of(11) == 3
        assert [st.index_of(pid) for pid in (4, 7)] == [1, 2]
        for absent in (0, 3, 5, 9, 12):  # below, between, and above the ids
            with pytest.raises(KeyError):
                st.index_of(absent)
        empty = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        with pytest.raises(KeyError):
            empty.index_of(0)


class TestEnumerateJointActions:
    def test_counts(self):
        st32 = _state_from([(0, 1, 0, 0, .5), (1, 2, 0, 0, .5), (2, 3, 0, 0, .5)],
                           [[0, 0, 1], [1, 1, 1]])
        assert len(reference.enumerate_joint_actions(st32)) == 6
        st11 = _state_from([(0, 1, 0, 0, .5)], [[0, 0, 1]])
        assert len(reference.enumerate_joint_actions(st11)) == 1
        st23 = _state_from([(1, 1, 0, 0, .5), (4, 2, 0, 0, .5)],
                           [[0, 0, 1], [1, 1, 1], [2, 2, 1]])
        acts = reference.enumerate_joint_actions(st23)
        assert len(acts) == 6
        for a in acts:
            assert set(a.targets) == {1, 4}

    def test_lexicographic_order(self):
        st = _state_from([(2, 1, 0, 0, .5), (5, 2, 0, 0, .5), (9, 3, 0, 0, .5)],
                         [[0, 0, 1], [1, 1, 1]])
        got = [a.targets for a in reference.enumerate_joint_actions(st)]
        assert got == [(2, 5), (2, 9), (5, 2), (5, 9), (9, 2), (9, 5)]
        st_dup = _state_from([(1, 1, 0, 0, .5), (4, 2, 0, 0, .5)],
                             [[0, 0, 1], [1, 1, 1], [2, 2, 1]])
        got_dup = [a.targets for a in reference.enumerate_joint_actions(st_dup)]
        assert got_dup == [(1, 1, 4), (1, 4, 1), (1, 4, 4), (4, 1, 1), (4, 1, 4), (4, 4, 1)]

    def test_empty_state_rejected(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            reference.enumerate_joint_actions(st)


class TestActionOutcome:
    def test_min_over_robots(self):
        st = _state_from([(0, 4.0, 0.0, 30.0, 0.5), (1, 0.0, 10.0, 30.0, 0.5)],
                         [[0, 0, 1], [0, 0, 1]])
        out = m.action_outcome(st, m.JointAction((0, 1)))
        assert out.duration == 34.0
        assert out.first_poi == 0
        assert out.finishing_robot == 0

    def test_simultaneous_finish_takes_lower_poi_id(self):
        st = _state_from([(3, 10.0, 20.0, 0.0, 0.5), (5, 10.0, 0.0, 0.0, 0.5)],
                         [[0, 0, 1], [0, 20, 1]])
        out = m.action_outcome(st, m.JointAction((5, 3)))
        assert out.duration == 10.0
        assert out.first_poi == 3
        assert out.finishing_robot == 1

    def test_duplicate_targets_take_lower_robot_index(self):
        st = _state_from([(2, 0.0, 7.0, 1.0, 0.5)], [[0, 0, 1], [0, 14, 1]])
        out = m.action_outcome(st, m.JointAction((2, 2)))
        assert out.duration == 8.0
        assert out.finishing_robot == 0

    def test_travel_plus_inspect(self):
        st = _state_from([(0, 50.0, 0.0, 30.0, 1.0)], [[0, 0, 1]])
        out = m.action_outcome(st, m.JointAction((0,)))
        assert out.duration == 80.0

    def test_successor_geometry(self):
        st = _state_from([(0, 4.0, 0.0, 30.0, 0.5), (1, 100.0, 20.0, 0.0, 0.5)],
                         [[0, 0, 1], [0, 20, 1]])
        out = m.action_outcome(st, m.JointAction((0, 1)))
        succ = out.successor
        assert succ.poi_ids == (1,)
        # finishing robot sits on the revealed PoI, the other robot has
        # advanced 34 of its 100 meters toward PoI 1
        assert (succ.robot_x[0], succ.robot_y[0]) == (4.0, 0.0)
        assert (succ.robot_x[1], succ.robot_y[1]) == (34.0, 20.0)
        assert succ.elapsed == st.elapsed + out.duration

    def test_advance_capped_at_target(self):
        # the slower finisher has already reached its PoI and waits there
        st = _state_from([(0, 4.0, 0.0, 30.0, 0.5), (1, 0.0, 10.0, 30.0, 0.5)],
                         [[0, 0, 1], [0, 0, 1]])
        out = m.action_outcome(st, m.JointAction((0, 1)))
        assert (out.successor.robot_x[1], out.successor.robot_y[1]) == (0.0, 10.0)

    def test_kept_target_keeps_progress(self):
        # robot 0 reaches PoI 0 at t=10 and inspects it while robot 1
        # reveals PoI 1 at t=20; kept, PoI 0 needs 20 more seconds
        st = _state_from([(0, 10.0, 0.0, 30.0, 0.5), (1, -10.0, 0.0, 10.0, 0.5)],
                         [[0, 0, 1], [0, 0, 1]])
        first = m.action_outcome(st, m.JointAction((0, 1)))
        assert (first.duration, first.first_poi) == (20.0, 1)
        succ = first.successor
        assert succ.robot_targets == (0, None)
        assert succ.robot_remaining == (20.0, 0.0)
        assert succ.elapsed + m.action_outcome(succ, m.JointAction((0, 0))).duration == 40.0

    def test_switching_or_losing_the_target_restarts(self):
        pois = [(0, 10.0, 0.0, 30.0, 0.5), (1, 10.0, 5.0, 30.0, 0.5)]
        # robot 0 leaves its progress at PoI 0 and needs 5 + 30 at PoI 1
        st = _state_from(pois, [[10, 0, 1], [10, 0, 1]], [(0, 20.0), (0, 2.0)])
        out = m.action_outcome(st, m.JointAction((1, 0)))
        assert (out.duration, out.first_poi, out.finishing_robot) == (2.0, 0, 1)
        assert out.successor.robot_targets == (1, None)
        assert out.successor.robot_remaining == (30.0, 0.0)
        # robot 1 reveals PoI 0, so robot 0 loses its progress there
        st = _state_from(pois, [[10, 0, 1], [10, 0, 1], [10, 5, 1]],
                         [(0, 20.0), (0, 2.0), (1, 25.0)])
        out = m.action_outcome(st, m.JointAction((0, 0, 1)))
        assert (out.duration, out.first_poi, out.finishing_robot) == (2.0, 0, 1)
        assert out.successor.robot_targets == (None, None, 1)
        assert out.successor.robot_remaining == (0.0, 0.0, 23.0)

    def test_conservation_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(30):
            pois, robots = reference.random_small_instance(rng)
            st = _state_from(pois, robots)
            for act in reference.enumerate_joint_actions(st)[:8]:
                out = m.action_outcome(st, act)
                assert out.successor.n_pois == st.n_pois - 1
                assert out.first_poi in st.poi_ids
                assert out.first_poi not in out.successor.poi_ids
                for i in range(st.n_robots):
                    j = st.index_of(act.targets[i])
                    a = np.array([st.robot_x[i], st.robot_y[i]])
                    t = np.array([st.poi_x[j], st.poi_y[j]])
                    b = np.array([out.successor.robot_x[i], out.successor.robot_y[i]])
                    seg = t - a
                    off = b - a
                    # successor position lies on the segment toward the target
                    cross = seg[0] * off[1] - seg[1] * off[0]
                    assert abs(cross) <= 1e-6 * max(1.0, np.linalg.norm(seg) ** 2)
                    assert np.linalg.norm(off) <= np.linalg.norm(seg) + 1e-9


class TestExpectedCost:
    def test_two_poi_ordering(self):
        cost, action = _full_search(_two_poi_instance(), CFG6)
        assert abs(cost - 11.2) <= 1e-12
        assert action.targets == (0,)

    def test_two_robot_symmetric_split(self):
        st = m.make_state(
            [(0, 0.0, 10.0, 0.0, 0.5), (1, 100.0, 10.0, 0.0, 0.5)],
            [m.RobotState(0, 0.0, 0.0, 1.0), m.RobotState(1, 100.0, 0.0, 1.0)],
        )
        cost, action = _full_search(st, CFG6)
        assert abs(cost - 10.0) <= 1e-12
        assert action.targets == (0, 1)

    def test_all_zero_likelihood_returns_first_enumerated(self):
        st = m.make_state(
            [(3, 5.0, 1.0, 30.0, 0.0), (7, -4.0, 2.0, 30.0, 0.0), (9, 0.0, -6.0, 30.0, 0.0)],
            [m.RobotState(0, 0.0, 0.0, 1.0), m.RobotState(1, 1.0, 1.0, 1.0)],
        )
        cost, action = _full_search(st, CFG6)
        assert cost == 0.0
        assert action.targets == reference.enumerate_joint_actions(st)[0].targets == (3, 7)

    def test_more_robots_than_pois(self):
        st = m.make_state(
            [(0, 1.0, 0.0, 0.0, 0.5), (1, 2.0, 0.0, 0.0, 0.5)],
            [m.RobotState(i, 0.0, 0.0, 1.0) for i in range(3)],
        )
        cost, action = _full_search(st, CFG6)
        assert abs(cost - 1.5) <= 1e-12
        assert action.targets == (0, 1, 0)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(424242)
        for _ in range(25):
            pois, robots = reference.random_small_instance(rng)
            st = _state_from(pois, robots)
            cost, action = _full_search(st, CFG6)
            want_cost, want_first = reference.route_space_optimum(pois, robots)
            assert abs(cost - want_cost) <= 1e-9
            assert action.targets == want_first

    def test_matches_enumeration_with_reveal_budget(self):
        # depth_cap below the PoI count: both sides fall back to the
        # same greedy completion after cap reveals
        rng = random.Random(515151)
        done = 0
        while done < 12:
            pois, robots = reference.random_small_instance(rng)
            if len(pois) < 2:
                continue
            cap = rng.randint(1, len(pois) - 1)
            st = _state_from(pois, robots)
            cfg = m.PlannerConfig(depth_cap=cap, n_priority=12, n_top_prob=6)
            cost, action = _full_search(st, cfg)
            want_cost, want_first = reference.route_space_optimum(pois, robots, cap=cap)
            assert abs(cost - want_cost) <= 1e-9
            assert action.targets == want_first
            done += 1

    def test_matches_enumeration_with_root_progress(self):
        # robots part-way through an inspection at the root, with and
        # without a reveal budget
        rng = random.Random(161803)
        for trial in range(30):
            pois, robots = reference.random_small_instance(rng)
            robots, progress = _with_progress(rng, pois, robots)
            cap = rng.randint(1, len(pois)) if trial % 2 else None
            st = _state_from(pois, robots, progress)
            cfg = m.PlannerConfig(depth_cap=cap or 6, n_priority=12, n_top_prob=6)
            cost, action = _full_search(st, cfg)
            want_cost, want_first = reference.route_space_optimum(
                pois, robots, cap=cap, progress=progress)
            assert abs(cost - want_cost) <= 1e-9
            assert action.targets == want_first

    def test_progress_at_the_root_is_kept(self):
        # robot 0 needs 20 more seconds at PoI 0; robot 1 starts afresh
        st = _state_from([(0, 10.0, 0.0, 30.0, 0.5), (1, -10.0, 0.0, 10.0, 0.5)],
                         [[10, 0, 1], [0, 0, 1]], [(0, 20.0), None])
        cost, action = _full_search(st, CFG6)
        assert action.targets == (0, 1)
        assert cost == 0.5 * 20.0 + 0.5 * 20.0

    def test_colocated_robots_with_different_progress_are_distinct(self):
        # both robots stand on PoI 1, which only robot 0 has inspected:
        # robot 0 finishes it at t=1 while robot 1 takes the lower id
        pois = [(0, 0.0, 10.0, 30.0, 0.5), (1, 0.0, 0.0, 30.0, 0.5)]
        robots = [[0, 0, 1], [0, 0, 1]]
        progress = [(1, 1.0), None]
        cost, action = _full_search(_state_from(pois, robots, progress), CFG6)
        assert (cost, action.targets) == (0.5 * 1.0 + 0.5 * 40.0, (1, 0))
        assert reference.route_space_optimum(pois, robots, progress=progress) == (cost, (1, 0))
        # below the root: robot 1 reveals PoI 2 at t=5 while robot 0 has
        # 25 s left at PoI 1 on the same spot; robot 1 must still be free
        # to take PoI 0, whose id is below robot 0's target
        pois = [(0, 0.0, 10.0, 30.0, 0.1), (1, 0.0, 0.0, 30.0, 0.9), (2, 0.0, 0.0, 5.0, 0.5)]
        cost, action = _full_search(_state_from(pois, robots), CFG6)
        assert (cost, action.targets) == (0.9 * 30.0 + 0.5 * 5.0 + 0.1 * 45.0, (1, 2))
        assert reference.route_space_optimum(pois, robots) == (cost, (1, 2))

    def test_empty_state_rejected(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            _full_search(st, CFG6)


class TestLowerBound:
    def test_two_poi_instance_bound(self):
        st = _two_poi_instance()
        b = reference.lower_bound(st, 0.0)
        assert b == 0.9 * 10.0 + 0.1 * 5.0 == 9.5
        assert b <= 11.2

    def test_empty_set_returns_accrued(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        assert reference.lower_bound(st, 3.25) == 3.25

    def test_accrued_is_additive(self):
        st = _two_poi_instance()
        assert reference.lower_bound(st, 5.0) == reference.lower_bound(st, 0.0) + 5.0

    def test_tight_for_single_poi_single_robot(self):
        st = m.make_state([(7, 3.0, 4.0, 2.0, 0.6)], [m.RobotState(0, 0.0, 0.0, 1.0)])
        bound = reference.lower_bound(st, 0.0)
        cost, _ = _full_search(st, CFG6)
        assert bound == cost == 0.6 * 7.0

    def test_never_above_optimum_on_random_instances(self):
        rng = random.Random(31415)
        prog_rng = random.Random(14142)
        for trial in range(25):
            pois, robots = reference.random_small_instance(rng)
            progress = None
            if trial % 2:
                robots, progress = _with_progress(prog_rng, pois, robots)
            st = _state_from(pois, robots, progress)
            opt, _ = reference.route_space_optimum(pois, robots, progress=progress)
            bound = reference.lower_bound(st, 0.0)
            assert bound <= opt + 1e-9
            # the oracle is the position-only bound the search logs at
            # its root and at every node a reveal reaches
            log = []
            m.plan_detailed(st, CFG6, node_log=log)
            assert abs(log[0].bound - bound) <= 1e-9
            info = {p[0]: p for p in pois}
            for rec in log:
                node = _state_from(
                    [info[pid] for pid in rec.poi_ids],
                    [[x, y, v] for (x, y), v in zip(rec.robot_xy, rec.robot_speeds)],
                    [None if t is None else (t, q) for t, q in zip(rec.robot_targets, rec.robot_remaining)],
                )
                assert abs(rec.bound - reference.lower_bound(node, rec.accrued)) <= 1e-9

    def test_counts_progress(self):
        st = _state_from([(7, 3.0, 4.0, 2.0, 0.6)], [[3, 4, 1], [0, 0, 1]], [(7, 0.5), None])
        assert reference.lower_bound(st, 0.0) == _full_search(st, CFG6)[0] == 0.6 * 0.5

    def test_search_node_bounds_stay_admissible(self):
        # audit the bound at nodes the search actually visited, against
        # the optimum from each node's positions and persisting progress
        rng = random.Random(2718)
        prog_rng = random.Random(1732)
        for trial in range(10):
            pois, robots = reference.random_small_instance(rng)
            progress = None
            if trial % 2:
                robots, progress = _with_progress(prog_rng, pois, robots)
            st = _state_from(pois, robots, progress)
            log = []
            m.plan_detailed(st, CFG6, node_log=log)
            info = {p[0]: p for p in pois}
            recs = log if len(log) <= 8 else rng.sample(log, 8)
            for rec in recs:
                assert isinstance(rec, NodeRecord)
                if not rec.poi_ids:
                    assert rec.bound <= rec.accrued + 1e-9
                    continue
                sub = [info[pid] for pid in rec.poi_ids]
                rob = [[x, y, v] for (x, y), v in zip(rec.robot_xy, rec.robot_speeds)]
                held = [None if t is None else (t, q)
                        for t, q in zip(rec.robot_targets, rec.robot_remaining)]
                completion, _ = reference.route_space_optimum(sub, rob, progress=held)
                assert rec.bound <= rec.accrued + completion + 1e-9


class TestClaimNearest:
    """The claim times a row only when its squared distance beats the
    best so far; it must pick the rows, and return the travel times, of
    timing every row (`reference.unscreened_claim_nearest`)."""

    @staticmethod
    def _assert_same(rx, ry, spd, xs, ys):
        got_rows, got_times = _claim_nearest(rx, ry, spd, xs, ys)
        want_rows, want_times = reference.unscreened_claim_nearest(rx, ry, spd, xs, ys)
        assert got_rows == want_rows
        assert [t.hex() for t in got_times] == [t.hex() for t in want_times]

    def test_random_claims_match_timing_every_row(self):
        rng = random.Random(71)
        for _ in range(2000):
            n_pois, n_rob = rng.randint(1, 36), rng.randint(1, 5)
            xs = [rng.uniform(-500, 500) for _ in range(n_pois)]
            ys = [rng.uniform(-500, 500) for _ in range(n_pois)]
            rx = [rng.uniform(-500, 500) for _ in range(n_rob)]
            ry = [rng.uniform(-500, 500) for _ in range(n_rob)]
            spd = [rng.choice([1.0, 1.0, rng.uniform(0.3, 3.0)]) for _ in range(n_rob)]
            self._assert_same(rx, ry, spd, xs, ys)

    def test_grid_and_one_ulp_ties_go_to_the_lowest_row(self):
        rng = random.Random(72)
        ties = collapsed = 0
        for _ in range(2000):
            n_pois, n_rob = rng.randint(1, 12), rng.randint(1, 5)
            xs = [float(rng.randint(-3, 3)) for _ in range(n_pois)]
            ys = [float(rng.randint(-3, 3)) for _ in range(n_pois)]
            # Copies of a PoI nudged by an ulp: squared distances that
            # differ in the last bit, whose times may round to one value.
            for _ in range(rng.randint(0, 3)):
                g, at = rng.randrange(len(xs)), rng.randrange(len(xs) + 1)
                xs.insert(at, math.nextafter(xs[g], rng.choice([-math.inf, math.inf])))
                ys.insert(at, ys[g])
            rx = [float(rng.randint(-3, 3)) + rng.choice([0.0, 0.5, 1e-9]) for _ in range(n_rob)]
            ry = [float(rng.randint(-3, 3)) for _ in range(n_rob)]
            spd = [rng.choice([0.5, 1.0, 3.0, 0.7]) for _ in range(n_rob)]
            self._assert_same(rx, ry, spd, xs, ys)
            _, times = reference.unscreened_claim_nearest(rx, ry, spd, xs, ys)
            for x, y, v, t in zip(rx, ry, spd, times):
                d2 = [(x - a) * (x - a) + (y - b) * (y - b) for a, b in zip(xs, ys)]
                tied = {d for d in d2 if math.sqrt(d) / v == t}
                ties += len(tied) == 1 and len([d for d in d2 if d in tied]) > 1
                collapsed += len(tied) > 1
        # Grid ties, and times that one ulp of squared distance does not
        # move (`collapsed`), both occur.
        assert ties >= 1000 and collapsed >= 100, (ties, collapsed)


class TestPrioritySubset:
    def test_small_state_returns_everything(self):
        st = _state_from([(i, i, 0, 0, .5) for i in range(5)], [[0, 0, 1]])
        assert m.select_priority_subset(st, m.PlannerConfig()) == (0, 1, 2, 3, 4)

    def test_top_likelihood_plus_nearest_fill(self):
        # six high-likelihood PoIs on a far ring, eight low-likelihood
        # ones lined up near the robot: expect the ring plus the six
        # nearest of the line
        pois = [(i, 300.0 * math.cos(i), 300.0 * math.sin(i), 0.0, 0.9 - 0.01 * i)
                for i in range(6)]
        pois += [(6 + j, 10.0 * (j + 1), 0.0, 0.0, 0.1) for j in range(8)]
        st = _state_from(pois, [[0, 0, 1]])
        subset = m.select_priority_subset(st, m.PlannerConfig(n_priority=12, n_top_prob=6))
        assert subset == tuple(range(12))

    def test_overlap_refills_from_remaining(self):
        # top-6 by likelihood and 6-nearest are the same PoIs; the fill
        # keeps drawing nearest-by-distance PoIs until 12 are distinct
        pois = [(i, 10.0 * (i + 1), 0.0, 0.0, 0.9) for i in range(6)]
        pois += [(6 + j, 200.0 + 10.0 * j, 0.0, 0.0, 0.1) for j in range(8)]
        st = _state_from(pois, [[0, 0, 1]])
        subset = m.select_priority_subset(st, m.PlannerConfig(n_priority=12, n_top_prob=6))
        assert subset == tuple(range(12))

    def test_matches_independent_rule_on_random_instances(self):
        rng = random.Random(6060)
        cfg = m.PlannerConfig(n_priority=8, n_top_prob=4)
        for _ in range(20):
            n = rng.randint(9, 16)
            pois = [(pid, rng.uniform(-200, 200), rng.uniform(-200, 200),
                     0.0, rng.choice([0.0, 0.5, rng.random()]))
                    for pid in rng.sample(range(40), n)]
            robots = [[rng.uniform(-200, 200), rng.uniform(-200, 200), 1.0]
                      for _ in range(rng.randint(1, 3))]
            st = _state_from(pois, robots)
            assert m.select_priority_subset(st, cfg) == _subset_rule(st, cfg)

    def test_travel_rows_match_the_numpy_matrix(self):
        # the priority subset's travel times, bit for bit against the array
        # expression it used before the state held python floats
        rng = random.Random(5151)
        mixed = 0
        for _ in range(300):
            pois = [(pid, rng.uniform(-500, 500),
                     rng.choice([rng.uniform(-500, 500), -0.0, float(rng.randint(-3, 3))]), 0.0, 0.5)
                    for pid in rng.sample(range(100), rng.randint(1, 40))]
            robots = [[rng.uniform(-500, 500), rng.choice([rng.uniform(-500, 500), float(rng.randint(-3, 3))]),
                       rng.choice([1.0, 0.5, 3.0, rng.uniform(0.1, 5.0)])]
                      for _ in range(rng.randint(1, 7))]
            st = _state_from(pois, robots)
            rows = _travel_rows(st.robot_x, st.robot_y, st.robot_speeds, st.poi_x, st.poi_y)
            want = reference._travel_matrix(st).tolist()
            assert [[t.hex() for t in row] for row in rows] == [[t.hex() for t in row] for row in want]
            mixed += len(set(st.robot_speeds)) > 1
        assert mixed >= 100


def _subset_rule(state, cfg):
    """Contract restated independently: top likelihoods, then each robot
    in index order adds its nearest unchosen PoI until n_priority."""
    ids = list(state.poi_ids)
    if len(ids) <= cfg.n_priority:
        return tuple(sorted(ids))
    lik = {pid: state.likelihoods[i] for i, pid in enumerate(ids)}
    xy = {pid: (state.poi_x[i], state.poi_y[i]) for i, pid in enumerate(ids)}
    by_lik = sorted(ids, key=lambda pid: (-lik[pid], pid))
    chosen = set(by_lik[:cfg.n_top_prob])
    while len(chosen) < cfg.n_priority and len(chosen) < len(ids):
        for r in range(state.n_robots):
            rest = [pid for pid in ids if pid not in chosen]
            if not rest or len(chosen) >= cfg.n_priority:
                break
            rx, ry = state.robot_x[r], state.robot_y[r]
            pick = min(rest, key=lambda pid: ((xy[pid][0] - rx) ** 2 + (xy[pid][1] - ry) ** 2, pid))
            chosen.add(pick)
    return tuple(sorted(chosen))


class TestRollout:
    def test_empty_state_is_free(self):
        st = m.make_state([], [m.RobotState(0, 0.0, 0.0)])
        assert _rollout(st) == 0.0

    def test_single_poi_closed_form(self):
        st = _state_from([(0, 50.0, 0.0, 30.0, 1.0)], [[0, 0, 1]])
        assert _rollout(st) == 80.0

    def test_upper_bounds_the_optimum(self):
        rng = random.Random(112)
        prog_rng = random.Random(2236)
        for trial in range(15):
            pois, robots = reference.random_small_instance(rng)
            progress = None
            if trial % 2:
                robots, progress = _with_progress(prog_rng, pois, robots)
            st = _state_from(pois, robots, progress)
            opt, _ = reference.route_space_optimum(pois, robots, progress=progress)
            assert _rollout(st) >= opt - 1e-9

    def test_keeps_progress(self):
        st = _state_from([(0, 50.0, 0.0, 30.0, 1.0)], [[50, 0, 1]], [(0, 12.0)])
        assert _rollout(st) == 12.0

    def test_tail_cutoff_is_exact(self):
        # The search stops a leaf's greedy tail once accrued plus tail cost
        # passes the incumbent.  That must return inf exactly when the
        # uncut leaf value is above the cutoff, and the uncut cost bit for
        # bit otherwise; without a cutoff, acc does not change the tail.
        rng = random.Random(1618)
        prog_rng = random.Random(3398)
        cut_midway = 0
        for trial in range(60):
            pois, robots = reference.random_small_instance(rng)
            progress = None
            if trial % 2:
                robots, progress = _with_progress(prog_rng, pois, robots)
            st = _state_from(pois, robots, progress)
            acc = rng.choice([0.0, rng.uniform(0.0, 500.0)])
            uncut = _tail(*_scalars(st, st.poi_ids), acc, math.inf)
            assert uncut == _rollout(st)
            value = acc + uncut
            cutoffs = [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf),
                       acc, 0.0, 2.0 * value] + [rng.uniform(acc, value) for _ in range(4)]
            for cutoff in cutoffs:
                got = _tail(*_scalars(st, st.poi_ids), acc, cutoff)
                if value <= cutoff:
                    assert got.hex() == uncut.hex()
                else:
                    assert got == math.inf
                    cut_midway += cutoff > acc
        assert cut_midway >= 100


class TestPlanAndPruning:
    def test_pruning_leaves_results_unchanged(self):
        rng = random.Random(8888)
        prog_rng = random.Random(3141)
        for trial in range(60):
            pois, robots = reference.random_small_instance(rng)
            # Every third trial caps the depth below its PoI count, so a
            # greedy tail runs; the others search whole.
            cap = 6
            if trial % 3 == 0 and len(pois) > 1:
                cap = rng.randint(1, len(pois) - 1)
            cfg_on = m.PlannerConfig(depth_cap=cap, prune=True)
            cfg_off = m.PlannerConfig(depth_cap=cap, prune=False)
            progress = None
            if trial % 2:
                robots, progress = _with_progress(prog_rng, pois, robots)
            st = _state_from(pois, robots, progress)
            r_on = m.plan_detailed(st, cfg_on)
            r_off = m.plan_detailed(st, cfg_off)
            assert r_on.cost == r_off.cost
            assert r_on.action.targets == r_off.action.targets
            assert r_on.nodes_expanded <= r_off.nodes_expanded

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="the commitment-aware chain bound assumes committed "
                       "robots finish their targets; below the depth cap the greedy tail "
                       "re-claims the nearest PoI every segment, so a leaf can cost less")
    def test_pruning_is_exact_below_the_depth_cap(self):
        pois = [(32, 41.619, 64.835, 0.0, 0.674), (20, -20.382, -72.8, 30.0, 0.602),
                (15, -24.102, 59.345, 10.995, 0.391), (9, -98.415, 98.927, 30.0, 0.282),
                (10, 34.114, 37.699, 27.708, 0.745), (16, -70.261, 79.224, 30.0, 0.815)]
        robots = [[-77.817, -88.497, 1.0], [-92.8, 98.677, 1.0], [-31.171, 11.767, 1.032]]
        st = _state_from(pois, robots)
        r_off = m.plan_detailed(st, m.PlannerConfig(depth_cap=1, prune=False))
        assert (r_off.cost, r_off.action.targets) == reference.route_space_optimum(pois, robots, cap=1)
        r_on = m.plan_detailed(st, m.PlannerConfig(depth_cap=1, prune=True))
        assert (r_on.cost, r_on.action.targets) == (r_off.cost, r_off.action.targets)

    def test_plan_equals_expected_cost_when_subset_is_full(self):
        st = _two_poi_instance()
        assert m.plan(st, CFG6).targets == _full_search(st, CFG6)[1].targets == (0,)

    def test_plan_restricts_to_priority_subset(self):
        rng = random.Random(404)
        cfg = m.PlannerConfig(depth_cap=4, n_priority=8, n_top_prob=4)
        for _ in range(5):
            pois = [(pid, rng.uniform(-150, 150), rng.uniform(-150, 150), 30.0, rng.random())
                    for pid in range(15)]
            robots = [[rng.uniform(-50, 50), rng.uniform(-50, 50), 1.0] for _ in range(2)]
            st = _state_from(pois, robots)
            subset = m.select_priority_subset(st, cfg)
            want = _full_search(_cut_state(st, subset), cfg)[1]
            got = m.plan(st, cfg)
            assert got.targets == want.targets
            assert set(got.targets) <= set(subset)

        # Robots 0 and 2 stand part-way through inspecting PoIs; with 2
        # fill picks for 3 robots, robot 2's target can fall outside the
        # subset.  The search on the full state must match the full search
        # on the subset state make_state builds, which keeps robot 0's
        # progress and frees robot 2.  Its 8 PoIs take the commitment-aware
        # bound at depth cap 4 and the position-only one at 6, although
        # the full state has enough PoIs for the commitment-aware one.
        rng = random.Random(405)
        configs = [m.PlannerConfig(depth_cap=cap, n_priority=8, n_top_prob=6) for cap in (4, 6)]
        both = 0
        for _ in range(10):
            pois = [(pid, rng.uniform(-150, 150), rng.uniform(-150, 150), 30.0, rng.random())
                    for pid in range(15)]
            p_in, p_out = rng.sample(pois, 2)
            robots = [[p_in[1], p_in[2], 1.0], [rng.uniform(-50, 50), rng.uniform(-50, 50), 1.0],
                      [p_out[1], p_out[2], 1.0]]
            progress = [(p_in[0], rng.uniform(1.0, 29.0)), None, (p_out[0], rng.uniform(1.0, 29.0))]
            st = _state_from(pois, robots, progress)
            subset = m.select_priority_subset(st, configs[0])
            if p_in[0] not in subset or p_out[0] in subset:
                continue
            both += 1
            cut = _cut_state(st, subset)
            assert cut.robot_targets == (p_in[0], None, None)
            assert cut.robot_remaining == (progress[0][1], 0.0, 0.0)
            for cfg in configs:
                want = m.plan_detailed(cut, cfg)
                assert want.subset_ids == cut.poi_ids == subset
                got = m.plan_detailed(st, cfg)
                assert (got.action, got.cost.hex(), got.nodes_expanded, got.children_pruned, got.subset_ids) == (
                    want.action, want.cost.hex(), want.nodes_expanded, want.children_pruned, subset)
                assert m.plan(st, cfg) == want.action
        assert both >= 5, both

    def test_plan_detailed_reports_search_size(self):
        res = m.plan_detailed(_two_poi_instance(), CFG6)
        assert res.subset_ids == (0, 1)
        assert res.nodes_expanded >= 1
        assert res.children_pruned >= 0
        assert abs(res.cost - 11.2) <= 1e-12

    def test_a_cut_at_a_reveal_is_counted(self):
        # The root's choices share its bound, 9.5, below every plan, so
        # the only cut is at a reveal: once PoI 0 then 1 has cost 11.2,
        # revealing PoI 1 first (5 s) leaves the child segment a bound of
        # 5 + 0.9 * 12 = 15.8.
        res = m.plan_detailed(_two_poi_instance(), CFG6)
        assert (res.action.targets, res.nodes_expanded, res.children_pruned) == ((0,), 5, 1)


@functools.lru_cache(maxsize=None)
def _pinned_state(seed, n_pois, n_robots, steps):
    """A mission-like state: robots start together at the origin, then
    one-reveal-deep plans fly `steps` reveals (committed robots carry
    their targets and inspection progress past each reveal)."""
    rng = random.Random(seed)
    pois = [(pid, round(rng.uniform(-200.0, 200.0), 1), round(rng.uniform(-200.0, 200.0), 1),
             rng.choice([10.0, 30.0, 45.0]), round(rng.random(), 3)) for pid in range(n_pois)]
    st = m.make_state(pois, [m.RobotState(i, 0.0, 0.0, rng.choice([1.0, 1.0, 2.0]))
                             for i in range(n_robots)])
    for _ in range(steps):
        st = m.action_outcome(st, m.plan(st, m.PlannerConfig(depth_cap=1))).successor
    return st


# seed, PoIs, robots, reveals flown, prune -> action, cost, nodes, pruned
PINNED_SEARCHES = [
    (1, 9, 1, 0, True, (1,), 2174.5516289825173, 200, 418),
    (2, 9, 1, 2, True, (2,), 1413.8195250769793, 37, 58),
    (3, 10, 3, 0, True, (0, 3, 8), 987.6256920215747, 252, 590),
    (4, 10, 3, 2, True, (0, 5, 2), 703.5133073529119, 65, 170),
    (5, 9, 5, 0, True, (3, 0, 2, 8, 4), 578.8550775396969, 1059, 1066),
    (6, 10, 5, 3, True, (6, 7, 0, 1, 9), 242.69746287023082, 4617, 2695),
    (7, 20, 3, 0, True, (3, 7, 13), 921.9498842184298, 7606, 15208),
    (8, 20, 3, 4, True, (19, 6, 11), 664.6534063637775, 1714, 5724),
    (9, 6, 1, 1, False, (3,), 358.14316416550355, 291, 0),
    (10, 6, 3, 2, False, (4, 0, 2), 52.936247228453325, 286, 0),
    # Either side of n_pois == depth_cap + n_robots, where the search
    # switches between the position-only and the commitment-aware bound.
    (11, 7, 3, 0, True, (0, 4, 6), 830.6181977245645, 124, 112),
    (12, 6, 3, 0, True, (0, 4, 5), 623.6770192105738, 188, 32),
    (13, 8, 5, 0, True, (0, 4, 1, 7, 5), 644.3978455140174, 3028, 1066),
]


class TestPinnedSearch:
    @pytest.mark.parametrize("case", PINNED_SEARCHES, ids=lambda c: f"seed{c[0]}")
    def test_action_cost_and_search_counts(self, case):
        # Exact values: a faster search must expand and prune exactly the
        # same nodes and return the same bits, not just an equal optimum.
        seed, n_pois, n_robots, steps, prune, action, cost, nodes, pruned = case
        st = _pinned_state(seed, n_pois, n_robots, steps)
        res = m.plan_detailed(st, m.PlannerConfig(prune=prune))
        assert (res.action.targets, res.cost, res.nodes_expanded, res.children_pruned) == (
            action, cost, nodes, pruned)

    def test_cases_cover_progress_subsets_and_team_sizes(self):
        states = [(_pinned_state(*c[:4]), c) for c in PINNED_SEARCHES]
        assert {c[2] for _, c in states} == {1, 3, 5}
        assert any(st.n_pois > m.PlannerConfig().n_priority for st, _ in states)
        assert sum(not c[4] for _, c in states) == 2
        # pruned searches on both sides of the bound's switch point, at
        # 3 and at 5 robots
        cap = m.PlannerConfig().depth_cap
        for aware in (True, False):
            assert {c[2] for st, c in states
                    if c[4] and (st.n_pois >= cap + st.n_robots) == aware} >= {3, 5}
        # part-way inspections: committed robots with less than the full time left
        assert any(
            t is not None and q < st.inspect_times[st.index_of(t)]
            for st, _ in states
            for t, q in zip(st.robot_targets, st.robot_remaining)
        )


@functools.lru_cache(maxsize=None)
def _seed0_decisions(n_pois, n_robots, every):
    """Every `every`-th decision state of the seed-0 model mission, with
    its priority subset and the planner config it was planned with."""
    states = []

    def record(state, config):
        states.append((state, m.select_priority_subset(state, config), config))
        return m.plan(state, config)

    plan = simulator.plan
    simulator.plan = record
    try:
        world = m.generate_scenario(0, n_pois)
        m.run_mission(world, m.MissionConfig(planner="model", n_robots=n_robots, seed=0))
    finally:
        simulator.plan = plan
    return tuple(states[::every])


class _RowPricedSearch(_Search):
    """The search, checking each fused per-choice price against the
    chain bound on the arrival rows `_commit_row` builds."""

    def __init__(self, *args):
        super().__init__(*args)
        self.priced = self.held = 0

    def price(self, seg, arr, j, choices, tj, rj, acc):
        got = super().price(seg, arr, j, choices, tj, rj, acc)
        lay, trow, sum_ir = seg[:3]
        insp, lik, dpp = lay[3:6]
        for c, b in zip(choices, got):
            rows = list(arr)
            rows[j] = _commit_row(trow[j], c, rj if c == tj else insp[c], dpp[c], self.spd[j])
            assert b.hex() == self.chain_bound(acc, rows, lik, sum_ir).hex()
            self.priced += 1
            self.held += c == tj  # priced on the progress robot j holds
        return got


class TestSearchPieces:
    """The search object's pieces, each checked on its own."""

    def test_fused_pricing_matches_commit_rows(self):
        # Nodes of seed-0 searches: 36 PoIs cut to 12 with 3 robots, and
        # 12 PoIs with 5 robots at depth cap 4, both commitment-aware.
        priced = held = searched = 0
        for n_pois, n_robots in ((36, 3), (12, 5)):
            for st, ids, cfg in _seed0_decisions(n_pois, n_robots, 4):
                search = _RowPricedSearch(st, ids, cfg, None)
                if not search.aware:
                    continue
                searched += 1
                cost, targets = search.run()
                res = m.plan_detailed(st, cfg)
                assert res.subset_ids == ids
                assert (targets, cost.hex()) == (res.action.targets, res.cost.hex())
                assert (search.nodes_expanded, search.children_pruned) == (res.nodes_expanded, res.children_pruned)
                priced += search.priced
                held += search.held
        assert searched >= 8 and priced >= 10000 and held >= 10, (searched, priced, held)

    def test_chain_bound_charges_each_poi_its_earliest_arrival(self):
        st = _state_from([(0, 0.0, 5.0, 2.0, 0.5), (1, 0.0, -10.0, 0.0, 0.25)], [[0, 0, 1], [0, 14, 2]])
        search = _Search(st, st.poi_ids, m.PlannerConfig(), None)
        rows = _travel_rows(st.robot_x, st.robot_y, st.robot_speeds, st.poi_x, st.poi_y)
        assert rows == [[5.0, 10.0], [4.5, 12.0]]
        # 7 + inspection term 1 + 0.5 * 4.5 + 0.25 * 10
        assert search.chain_bound(7.0, rows, [0.5, 0.25], 1.0) == 12.75 == reference.lower_bound(st, 7.0)
        # Committed to PoI 0 with 2 s to inspect, robot 0 reaches PoI 1
        # only at 5 + 2 + 15, so robot 1 is nearer there now.
        aware = [_commit_row(rows[0], 0, 2.0, [0.0, 15.0], 1.0), rows[1]]
        assert aware[0] == [5.0, 22.0]
        assert search.chain_bound(0.0, aware, [0.5, 0.25], 0.0) == 0.5 * 4.5 + 0.25 * 12.0 == 5.25
        assert search.chain_bound(3.0, [], [0.5], 0.0) == math.inf

    def test_tie_rule_cuts_only_subtrees_that_cannot_precede(self):
        st = _state_from([(pid, float(pid), 0.0, 0.0, 0.5) for pid in range(9)], [[0, 0, 1]] * 3)
        search = _Search(st, st.poi_ids, m.PlannerConfig(), None)
        search.best_cost, search.best_tuple = 5.0, (2, 4, 7)
        # Only an exactly-zero completion bound that meets the incumbent.
        assert not search.only_ties(5.0, 4.0, (3,))
        assert not search.only_ties(6.0, 6.0, (3,))
        cut = {cand: search.only_ties(5.0, 5.0, cand) for cand in [
            (1,), (2,), (3,), (2, 3), (2, 4), (2, 5), (2, 4, 6), (2, 4, 7), (2, 4, 8), (3, 0, 0)]}
        assert [cand for cand, c in cut.items() if c] == [(3,), (2, 5), (2, 4, 7), (2, 4, 8), (3, 0, 0)]
        # A full-length prefix is cut exactly when it is not below the incumbent.
        for cand in [(2, 4, 6), (2, 4, 7), (2, 4, 8), (1, 9, 9), (3, 0, 0)]:
            assert search.only_ties(5.0, 5.0, cand) == (cand >= search.best_tuple)


BAD_PLANNER_CONFIGS = [
    ({"depth_cap": 0}, "depth_cap must be >= 1"),
    ({"n_priority": 4, "n_top_prob": 6}, "n_top_prob cannot exceed n_priority"),
    ({"n_priority": 0, "n_top_prob": 0}, "n_priority must be >= 1"),
]


class TestPlannerConfig:
    def test_validation(self):
        # Checked when made, and again by dataclasses.replace.
        for edit, message in BAD_PLANNER_CONFIGS:
            with pytest.raises(ValueError, match=message):
                m.PlannerConfig(**edit)
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(m.PlannerConfig(), **edit)
        m.PlannerConfig()
