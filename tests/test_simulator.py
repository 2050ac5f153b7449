"""Tests for mission execution, trace recording, and replay validation."""

import dataclasses
import math
import re

import numpy as np
import pytest

import mrsurvey as m
from mrsurvey import simulator as sim
from mrsurvey.scenario import GenerativeParams, PoI, Scenario
from mrsurvey.simulator import MissionConfig, load_trace, replay_check, run_mission, write_trace

import reference


def _single_poi_scenario(damaged, dist=50.0):
    return Scenario(
        seed=0, params=GenerativeParams(), start=(0.0, 0.0),
        pois=(PoI(id=0, x=dist, y=0.0, poi_class="forest", inspect_time=30.0, damaged=damaged),),
        wind_pockets=(),
    )


BAD_MISSION_CONFIGS = [
    ({"planner": "bogus"}, "unknown planner 'bogus'"),
    ({"n_robots": 0}, "n_robots must be >= 1"),
    ({"speed": -1.0}, "speed must be finite and > 0"),
    ({"speed": math.inf}, "speed must be finite and > 0"),
    ({"speed": math.nan}, "speed must be finite and > 0"),
]


class TestMissionConfig:
    @pytest.mark.parametrize("edit, message", BAD_MISSION_CONFIGS)
    def test_bad_value_cannot_be_made(self, edit, message):
        with pytest.raises(ValueError, match=message):
            MissionConfig(**edit)

    @pytest.mark.parametrize("edit, message", BAD_MISSION_CONFIGS)
    def test_bad_value_cannot_be_replaced_in(self, edit, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(MissionConfig(), **edit)


class TestRunMission:
    def test_repeated_poi_id_rejected(self):
        # Keying PoIs by id would drop the second PoI 0 and fly one PoI.
        pois = (PoI(id=0, x=50.0, y=0.0, poi_class="forest"), PoI(id=0, x=-50.0, y=0.0, poi_class="field"))
        scen = Scenario(seed=0, params=GenerativeParams(), start=(0.0, 0.0), pois=pois, wind_pockets=())
        with pytest.raises(ValueError, match="duplicate PoI ids"):
            run_mission(scen, MissionConfig(planner="greedy"), likelihoods={0: 0.5})

    def test_single_damaged_poi_closed_form(self):
        trace = run_mission(_single_poi_scenario(True), MissionConfig(), likelihoods={0: 0.3})
        assert trace.reveal_log == ((80.0, 0, True),)
        assert trace.total_time == 80.0
        assert trace.total_distance == 50.0
        assert trace.total_realized_cost == 80.0
        assert abs(trace.total_expected_cost - 0.3 * 80.0) <= 1e-9
        assert trace.planning_calls.count == 1

    def test_single_undamaged_poi_costs_nothing(self):
        trace = run_mission(_single_poi_scenario(False), MissionConfig(), likelihoods={0: 0.3})
        assert trace.total_realized_cost == 0.0
        assert abs(trace.total_expected_cost - 0.3 * 80.0) <= 1e-9
        assert trace.reveal_log == ((80.0, 0, False),)

    def test_empty_mission(self):
        scen = Scenario(seed=1, params=GenerativeParams(), start=(0.0, 0.0),
                        pois=(), wind_pockets=())
        trace = run_mission(scen, MissionConfig())
        assert trace.total_time == 0.0
        assert trace.total_distance == 0.0
        assert trace.total_realized_cost == 0.0
        assert trace.reveal_log == ()
        assert trace.finishers == ()
        assert trace.cost_curve == (sim.CurvePoint(0.0, 0.0, 0.0, 0.0, 0),)

    def test_unknown_planner_rejected(self):
        with pytest.raises(ValueError):
            run_mission(_single_poi_scenario(True), MissionConfig(planner="bogus"),
                        likelihoods={0: 0.5})

    def test_deterministic(self):
        scen = m.generate_scenario(12, 8)
        cfg = MissionConfig(planner="model", n_robots=2)
        t1 = run_mission(scen, cfg)
        t2 = run_mission(scen, cfg)
        assert t1.reveal_log == t2.reveal_log
        assert t1.total_realized_cost == t2.total_realized_cost
        assert t1.total_distance == t2.total_distance

    def test_every_poi_revealed_exactly_once(self):
        scen = m.generate_scenario(15, 9)
        for planner in ("model", "optimistic", "greedy"):
            trace = run_mission(scen, MissionConfig(planner=planner, n_robots=3))
            assert sorted(pid for _, pid, _ in trace.reveal_log) == [p.id for p in scen.pois]
            times = [t for t, _, _ in trace.reveal_log]
            assert times == sorted(times)
            assert trace.total_time == trace.reveal_log[-1][0]


def _two_poi_scenario(inspect_1):
    # two robots at the origin; PoI 0 (undamaged, inspect 30) 10 m east,
    # PoI 1 (damaged) 10 m west
    return Scenario(
        seed=0, params=GenerativeParams(), start=(0.0, 0.0),
        pois=(PoI(id=0, x=10.0, y=0.0, poi_class="forest", inspect_time=30.0, damaged=False),
              PoI(id=1, x=-10.0, y=0.0, poi_class="forest", inspect_time=inspect_1, damaged=True)),
        wind_pockets=(),
    )


class TestInspectionProgress:
    @pytest.mark.parametrize("planner", ["model", "optimistic", "greedy"])
    def test_reveal_elsewhere_keeps_progress(self, planner):
        # PoI 1 is revealed at t=20 while robot 0 has inspected PoI 0 for
        # 10 of its 30 seconds; it keeps its target and finishes at 40
        scen = _two_poi_scenario(10.0)
        trace = run_mission(scen, MissionConfig(planner=planner, n_robots=2),
                            likelihoods={0: 0.5, 1: 0.5})
        assert trace.reveal_log == ((20.0, 1, True), (40.0, 0, False))
        assert replay_check(trace, scen).ok

    @pytest.mark.parametrize("planner", ["model", "optimistic", "greedy"])
    def test_simultaneous_finishes_both_reveal(self, planner):
        # both inspections complete at t=40: the tie reveals PoI 0 first,
        # and robot 1's finished inspection reveals PoI 1 at the same time
        scen = _two_poi_scenario(30.0)
        trace = run_mission(scen, MissionConfig(planner=planner, n_robots=2),
                            likelihoods={0: 0.5, 1: 0.5})
        assert trace.reveal_log == ((40.0, 0, False), (40.0, 1, True))
        assert [c.n_damaged_unreported for c in trace.cost_curve] == [1, 1, 0]
        assert replay_check(trace, scen).ok

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="optimistic_assign claims in robot index order, so a freed robot "
                              "can take a PoI another robot is part-way through")
    def test_optimistic_keeps_progress_when_a_freed_robot_is_nearer(self):
        # Robot 0 takes PoI 0 (5 m east) and robot 1 PoI 1 (10 m west).
        # PoI 0 is revealed at t=15, when robot 1 has inspected PoI 1 for
        # 5 of its 30 seconds. PoI 1 is the freed robot 0's nearest PoI,
        # but robot 1 should keep it and finish at 15 + 25 = 40, not lose
        # its progress to robot 0 (which would reveal PoI 1 at 60).
        scen = Scenario(
            seed=0, params=GenerativeParams(), start=(0.0, 0.0),
            pois=(PoI(id=0, x=5.0, y=0.0, poi_class="forest", inspect_time=10.0, damaged=False),
                  PoI(id=1, x=-10.0, y=0.0, poi_class="forest", inspect_time=30.0, damaged=True),
                  PoI(id=2, x=100.0, y=0.0, poi_class="forest", inspect_time=30.0, damaged=False)),
            wind_pockets=(),
        )
        trace = run_mission(scen, MissionConfig(planner="optimistic", n_robots=2),
                            likelihoods={0: 0.5, 1: 0.5, 2: 0.5})
        assert replay_check(trace, scen).ok
        assert trace.reveal_log[:2] == ((15.0, 0, False), (40.0, 1, True))


# A shallow search keeps the model planner quick at 36 PoIs and 5 robots;
# how the state is carried does not depend on the search depth.
QUICK_MODEL = m.PlannerConfig(depth_cap=1, n_priority=6)


def _carried_and_rebuilt(monkeypatch, scen, cfg, likelihoods=None):
    """Each state the planner saw, paired with make_state's rebuild.

    The rebuild uses the bookkeeping a simulator that rebuilds at every
    reveal would keep: the PoIs not yet in the reveal log, the clamped
    likelihoods, each robot's position, target and remaining inspection
    time after the previous step, and the time of the previous reveal.
    """
    handed, successors = [], []

    def spy(choose):
        def call(state, *args):
            handed.append(state)
            return choose(state, *args)
        return call

    def outcome(state, action):
        out = real_outcome(state, action)
        successors.append(out.successor)
        return out

    real_outcome = sim.action_outcome
    monkeypatch.setattr(sim, "plan", spy(sim.plan))
    monkeypatch.setattr(sim, "action_outcome", outcome)
    for name in ("optimistic_assign", "greedy_assign"):
        monkeypatch.setattr(m.baselines, name, spy(getattr(m.baselines, name)))
    trace = run_mission(scen, cfg, likelihoods)
    assert len(handed) == len(successors) == len(trace.reveal_log) == len(scen.pois)

    clamped = m.clamp_for_planner(likelihoods or m.resolve_likelihoods(scen, cfg.estimator))
    robots = [m.RobotState(i, scen.start[0], scen.start[1], cfg.speed) for i in range(cfg.n_robots)]
    revealed, t = set(), 0.0
    pairs = []
    for state, succ, (t_next, pid, _) in zip(handed, successors, trace.reveal_log):
        rows = [(p.id, p.x, p.y, p.inspect_time, clamped[p.id]) for p in scen.pois if p.id not in revealed]
        pairs.append((state, m.make_state(rows, robots, elapsed=t)))
        revealed.add(pid)
        t = t_next
        robots = [
            m.RobotState(i, succ.robot_x[i], succ.robot_y[i], cfg.speed,
                         succ.robot_targets[i], succ.robot_remaining[i])
            for i in range(cfg.n_robots)
        ]
    return pairs


def _same_bits(a, b):
    """Two tuples of python floats with the same bits, sign of zero included."""
    return (
        type(a) is type(b) is tuple
        and len(a) == len(b)
        and all(type(x) is type(y) is float and x.hex() == y.hex() for x, y in zip(a, b))
    )


def _kept_progress(state):
    return any(
        pid is not None and left < state.inspect_times[state.index_of(pid)]
        for pid, left in zip(state.robot_targets, state.robot_remaining)
    )


class TestCarriedState:
    @pytest.mark.parametrize("seed", [4, 21])
    @pytest.mark.parametrize("n_robots", [1, 3, 5])
    @pytest.mark.parametrize("n_pois", [12, 36])
    @pytest.mark.parametrize("planner", ["model", "optimistic", "greedy"])
    def test_planner_sees_what_make_state_rebuilds(self, monkeypatch, planner, n_pois, n_robots, seed):
        cfg = MissionConfig(planner=planner, n_robots=n_robots, planner_config=QUICK_MODEL)
        pairs = _carried_and_rebuilt(monkeypatch, m.generate_scenario(seed, n_pois), cfg)
        for carried, rebuilt in pairs:
            assert carried.poi_ids == rebuilt.poi_ids
            assert carried.robot_targets == rebuilt.robot_targets
            assert carried.robot_remaining == rebuilt.robot_remaining
            assert carried.elapsed == rebuilt.elapsed
            for name in ("poi_x", "poi_y", "inspect_times", "likelihoods", "robot_x", "robot_y", "robot_speeds"):
                assert _same_bits(getattr(carried, name), getattr(rebuilt, name)), name
        if n_pois == 36 and n_robots > 1:
            # these missions carry part-done inspections across reveals
            assert any(_kept_progress(carried) for carried, _ in pairs)

    @pytest.mark.parametrize("planner", ["model", "optimistic", "greedy"])
    def test_progress_kept_across_a_reveal_is_carried(self, monkeypatch, planner):
        cfg = MissionConfig(planner=planner, n_robots=2, planner_config=QUICK_MODEL)
        pairs = _carried_and_rebuilt(monkeypatch, _two_poi_scenario(10.0), cfg, {0: 0.5, 1: 0.5})
        # at the second reveal robot 0 has 20 of PoI 0's 30 seconds left
        carried, rebuilt = pairs[1]
        assert _kept_progress(carried)
        assert carried.robot_targets == rebuilt.robot_targets == (0, None)
        assert carried.robot_remaining == rebuilt.robot_remaining == (20.0, 0.0)


def _numpy_team_distance(before, after):
    """The team's distance over one step as the array expression the
    simulator used before its states held python floats."""
    a = np.array([before.robot_x, before.robot_y]).T
    b = np.array([after.robot_x, after.robot_y]).T
    step = b - a
    return float(np.sqrt((step * step).sum(axis=1)).sum())


class TestMissionDistance:
    @pytest.mark.parametrize("n_robots", range(1, 13))
    def test_equals_the_numpy_expression(self, monkeypatch, n_robots):
        steps = []
        real_outcome = sim.action_outcome

        def outcome(state, action):
            out = real_outcome(state, action)
            steps.append((state, out.successor))
            return out

        monkeypatch.setattr(sim, "action_outcome", outcome)
        for planner in ("optimistic", "greedy"):
            del steps[:]
            trace = run_mission(m.generate_scenario(40 + n_robots, 12),
                                MissionConfig(planner=planner, n_robots=n_robots))
            dist = 0.0
            for (before, after), point in zip(steps, trace.cost_curve[1:]):
                dist += _numpy_team_distance(before, after)
                assert point.distance_traveled.hex() == dist.hex()
            assert trace.total_distance.hex() == dist.hex()

    def test_team_distance_on_random_steps(self):
        # From 8 robots numpy sums pairwise, which differs from a left to
        # right sum on about a third of these draws, so both sides of 8
        # are drawn.
        rng = np.random.default_rng(8)
        for n_robots in range(1, 13):
            for _ in range(300):
                xy = rng.uniform(-500.0, 500.0, size=(4, n_robots)) * rng.choice([1e-3, 1.0, 1e3])
                before = m.make_state([], [m.RobotState(i, xy[0, i], xy[1, i]) for i in range(n_robots)])
                after = m.make_state([], [m.RobotState(i, xy[2, i], xy[3, i]) for i in range(n_robots)])
                got = sim._team_distance(before, after)
                assert got.hex() == _numpy_team_distance(before, after).hex()


class TestCostAccounting:
    def test_realized_cost_closed_form(self):
        # integral of K * (damaged not yet reported) dt telescopes to
        # K * sum of damaged reveal times
        for seed in (21, 22, 23):
            scen = m.generate_scenario(seed, 7)
            trace = run_mission(scen, MissionConfig(planner="model", n_robots=2))
            flags = {p.id: p.damaged for p in scen.pois}
            want = sum(t for t, pid, _ in trace.reveal_log if flags[pid])
            assert abs(trace.total_realized_cost - want) <= 1e-9

    def test_expected_cost_closed_form(self):
        scen = m.generate_scenario(24, 6)
        lik = m.oracle_likelihoods(scen)
        trace = run_mission(scen, MissionConfig(planner="optimistic", n_robots=2))
        want = sum(lik[pid] * t for t, pid, _ in trace.reveal_log)
        assert abs(trace.total_expected_cost - want) <= 1e-6 * max(1.0, want)

    @pytest.mark.parametrize("skewed", [False, True])
    def test_expected_cost_sums_left_to_right(self, monkeypatch, skewed):
        # The skewed map puts 1.0 on the first PoI and 1e-16 on the rest,
        # where a compensated sum (the builtin sum from Python 3.12 on)
        # differs from a left-to-right one.
        steps = []
        real_outcome = sim.action_outcome

        def outcome(state, action):
            out = real_outcome(state, action)
            steps.append((state.poi_ids, out.duration))
            return out

        monkeypatch.setattr(sim, "action_outcome", outcome)
        scen = m.generate_scenario(26, 12)
        lik = m.oracle_likelihoods(scen)
        if skewed:
            first = min(lik)
            lik = {pid: 1.0 if pid == first else 1e-16 for pid in lik}
        trace = run_mission(scen, MissionConfig(planner="greedy", n_robots=2), likelihoods=lik)
        acc = 0.0
        for (ids, duration), point in zip(steps, trace.cost_curve[1:]):
            psum = 0.0
            for pid in ids:
                psum += lik[pid]
            acc += duration * psum
            assert point.expected_cost_accrued.hex() == acc.hex()
        assert trace.total_expected_cost.hex() == acc.hex()

    def test_curve_monotone_and_closed_out(self):
        scen = m.generate_scenario(25, 8)
        trace = run_mission(scen, MissionConfig(planner="greedy", n_robots=3))
        curve = trace.cost_curve
        assert curve[0].time == 0.0
        assert curve[-1].n_damaged_unreported == 0
        for a, b in zip(curve, curve[1:]):
            assert b.time >= a.time
            assert b.distance_traveled >= a.distance_traveled - 1e-9
            assert b.expected_cost_accrued >= a.expected_cost_accrued - 1e-9
            assert b.realized_cost_accrued >= a.realized_cost_accrued - 1e-9
            assert b.n_damaged_unreported <= a.n_damaged_unreported


class TestKinematics:
    def test_reveal_times_are_reachable(self):
        scen = m.generate_scenario(31, 10)
        cfg = MissionConfig(planner="model", n_robots=3, speed=1.5)
        trace = run_mission(scen, cfg)
        xy = {p.id: (p.x, p.y) for p in scen.pois}
        insp = {p.id: p.inspect_time for p in scen.pois}
        last = {}
        assert len(trace.finishers) == len(trace.reveal_log)
        for (t, pid, _), robot in zip(trace.reveal_log, trace.finishers):
            t0, pos = last.get(robot, (0.0, scen.start))
            need = math.dist(pos, xy[pid]) / cfg.speed + insp[pid]
            assert t >= t0 + need - 1e-9
            last[robot] = (t, xy[pid])


class TestNearestNeighborEquivalence:
    def test_single_optimistic_robot_walks_the_greedy_tour(self):
        for seed in (41, 42, 43):
            scen = m.generate_scenario(seed, 8)
            trace = run_mission(scen, MissionConfig(planner="optimistic", n_robots=1))
            got = [pid for _, pid, _ in trace.reveal_log]
            want = reference.nearest_neighbor_order(scen.start,
                                                    {p.id: (p.x, p.y) for p in scen.pois})
            assert got == want


class TestModelBeatsGreedyTailInExpectation:
    def test_paired_damage_draws(self):
        # exact planning on the true likelihoods minimizes sum p_i t_i,
        # so over resampled damage draws the model's mean realized cost
        # cannot exceed the nearest-first tour's (3 sigma band)
        rng = np.random.default_rng(7)
        cfg_model = MissionConfig(planner="model",
                                  planner_config=m.PlannerConfig(depth_cap=6))
        cfg_near = MissionConfig(planner="optimistic")
        for seed in (51, 52, 53):
            scen = m.generate_scenario(seed, 5)
            lik = m.oracle_likelihoods(scen)
            t_model = {pid: t for t, pid, _ in run_mission(scen, cfg_model).reveal_log}
            t_near = {pid: t for t, pid, _ in run_mission(scen, cfg_near).reveal_log}
            ids = sorted(lik)
            p = np.array([lik[i] for i in ids])
            tm = np.array([t_model[i] for i in ids])
            tg = np.array([t_near[i] for i in ids])
            draws = rng.random((500, len(ids))) < p
            diff = draws @ tm - draws @ tg
            sem = float(diff.std(ddof=1)) / math.sqrt(len(diff)) if len(ids) else 0.0
            assert float(diff.mean()) <= 3.0 * sem + 1e-9


class TestReplayCheck:
    def test_accepts_generated_traces(self):
        for seed, planner, robots in ((61, "model", 1), (62, "optimistic", 3), (63, "greedy", 2)):
            scen = m.generate_scenario(seed, 7)
            trace = run_mission(scen, MissionConfig(planner=planner, n_robots=robots))
            result = replay_check(trace, scen)
            assert result.ok and bool(result) and result.reasons == []

    def test_rejects_unreachable_reveal(self):
        scen = _single_poi_scenario(True)
        trace = run_mission(scen, MissionConfig(), likelihoods={0: 0.3})
        start, end = trace.cost_curve
        early = dataclasses.replace(
            trace,
            reveal_log=((10.0, 0, True),),
            cost_curve=(start, end._replace(time=10.0)),
        )
        result = replay_check(early, scen)
        assert not result.ok
        assert any("sooner" in r for r in result.reasons)

    def test_rejects_double_reveal(self):
        scen = _single_poi_scenario(True)
        trace = run_mission(scen, MissionConfig(), likelihoods={0: 0.3})
        doubled = dataclasses.replace(
            trace,
            reveal_log=trace.reveal_log + trace.reveal_log,
            finishers=trace.finishers + trace.finishers,
            cost_curve=trace.cost_curve + trace.cost_curve[-1:],
        )
        result = replay_check(doubled, scen)
        assert not result.ok
        assert any("exactly once" in r for r in result.reasons)

    def test_rejects_tampered_costs(self):
        scen = _single_poi_scenario(True)
        trace = run_mission(scen, MissionConfig(), likelihoods={0: 0.3})
        end = trace.cost_curve[-1]._replace(realized_cost_accrued=999.0)
        inflated = dataclasses.replace(trace, cost_curve=trace.cost_curve[:-1] + (end,))
        assert inflated.total_realized_cost == 999.0
        assert not replay_check(inflated, scen).ok

    def test_rejects_a_reveal_without_its_finisher(self):
        scen = _single_poi_scenario(True)
        trace = run_mission(scen, MissionConfig(), likelihoods={0: 0.3})
        result = replay_check(dataclasses.replace(trace, finishers=()), scen)
        assert not result.ok
        assert "reveal log, finishers and cost curve differ in length" in result.reasons

    def test_rejects_reveal_times_cut_from_the_flown_mission(self):
        # Every reveal claimed 20% sooner than flown: the claimed realized
        # cost falls from 860.5 to 688.4.
        scen = m.generate_scenario(5, 36)
        trace = run_mission(scen, MissionConfig(planner="greedy", n_robots=3))
        assert round(trace.total_realized_cost, 1) == 860.5
        cut = tuple((0.8 * t, pid, flag) for t, pid, flag in trace.reveal_log)
        # The cost curve left as flown no longer matches the reveal times.
        result = replay_check(dataclasses.replace(trace, reveal_log=cut), scen)
        assert not result.ok
        assert "cost curve times differ from the reveal times" in result.reasons
        # A curve cut to match, with costs that fit the cut times, still
        # asks the robots' legs as flown to be flown sooner than they can.
        curve = tuple(c._replace(time=0.8 * c.time, expected_cost_accrued=0.8 * c.expected_cost_accrued,
                                 realized_cost_accrued=0.8 * c.realized_cost_accrued)
                      for c in trace.cost_curve)
        claimed = dataclasses.replace(trace, reveal_log=cut, cost_curve=curve)
        assert round(claimed.total_realized_cost, 1) == 688.4
        result = replay_check(claimed, scen)
        assert not result.ok
        assert any("sooner than robot" in r for r in result.reasons)


class TestTraceFiles:
    def test_jsonl_round_trip(self, tmp_path):
        # the second mission reveals both PoIs at t=40, so two events
        # share a timestamp but not a cost-curve point
        missions = [
            (m.generate_scenario(71, 6), {}),
            (_two_poi_scenario(30.0), {"likelihoods": {0: 0.5, 1: 0.5}}),
        ]
        for k, (scen, kwargs) in enumerate(missions):
            trace = run_mission(scen, MissionConfig(planner="model", n_robots=2), **kwargs)
            path = tmp_path / f"trace{k}.jsonl"
            write_trace(trace, str(path))
            loaded = load_trace(str(path))
            assert loaded.scenario_seed == trace.scenario_seed
            assert loaded.planner == trace.planner
            assert loaded.reveal_log == trace.reveal_log
            assert loaded.finishers == trace.finishers
            assert loaded.cost_curve == trace.cost_curve
            assert loaded.likelihoods == trace.likelihoods
            assert loaded.total_time == trace.total_time
            assert loaded.total_distance == trace.total_distance
            assert loaded.total_expected_cost == trace.total_expected_cost
            assert loaded.total_realized_cost == trace.total_realized_cost
            assert loaded.planning_calls == trace.planning_calls
            # writing the loaded trace again gives the same bytes
            again = tmp_path / f"again{k}.jsonl"
            write_trace(loaded, str(again))
            assert again.read_bytes() == path.read_bytes()
            # a loaded trace still replays cleanly
            assert replay_check(loaded, scen).ok
        # a curve that drops a damaged PoI before its reveal is rejected
        curve = list(trace.cost_curve)
        curve[1] = curve[1]._replace(n_damaged_unreported=0)
        bad = replay_check(dataclasses.replace(trace, cost_curve=tuple(curve)), scen)
        assert not bad.ok
        assert any("damaged-unreported" in r for r in bad.reasons)

    def test_one_json_record_per_line(self, tmp_path):
        import json
        scen = m.generate_scenario(72, 4)
        trace = run_mission(scen, MissionConfig(planner="optimistic"))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        lines = path.read_text().strip().split("\n")
        records = [json.loads(line) for line in lines]
        n = len(trace.reveal_log)
        assert [r["type"] for r in records] == ["event"] * (n + 1) + ["summary"]
        assert [r["kind"] for r in records[:-1]] == ["inspection_complete"] * n + ["mission_end"]
        assert records[-1]["scenario_seed"] == scen.seed
        assert list(records[-1]["config"]) == [
            "planner", "estimator", "n_robots", "speed", "seed", "depth_cap", "n_priority", "n_top_prob"]

    @pytest.mark.parametrize("line, key, total", [
        (-1, "total_realized_cost", "total_realized_cost"),
        (-2, "time", "total_time"),
    ], ids=["summary", "mission_end"])
    def test_load_rejects_totals_that_differ_from_the_reveals(self, tmp_path, line, key, total):
        # The summary's totals and the mission_end record repeat the last
        # reveal's curve point.
        import json
        scen = m.generate_scenario(74, 5)
        trace = run_mission(scen, MissionConfig(planner="greedy", n_robots=2))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        edited = json.loads(lines[line])
        edited[key] += 1.0
        lines[line] = json.dumps(edited)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"trace file {path}: {total}")):
            load_trace(str(path))

    def test_trace_written_with_a_cost_rate_still_replays(self, tmp_path):
        # Trace files written before the cost rate was dropped carry
        # "cost_rate": 1.0 in their summary's config; they still load and
        # pass replay validation.
        import json
        scen = m.generate_scenario(73, 5)
        trace = run_mission(scen, MissionConfig(planner="model", n_robots=2))
        path = tmp_path / "trace.jsonl"
        write_trace(trace, str(path))
        *events, summary = path.read_text().splitlines()
        old = json.loads(summary)
        old["config"]["cost_rate"] = 1.0
        path.write_text("\n".join(events + [json.dumps(old)]) + "\n")
        loaded = load_trace(str(path))
        assert loaded.config["cost_rate"] == 1.0
        assert loaded.total_realized_cost == trace.total_realized_cost
        assert replay_check(loaded, scen).ok
