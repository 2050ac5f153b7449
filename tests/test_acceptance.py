"""End-to-end acceptance checks for the full pipeline.

Each criterion is one test that prints a single summary line,
``[acceptance] criterion N PASS/FAIL: ...``, with the measured numbers
behind the verdict.  Heavy experiment runs are shared through
session-scoped fixtures.
"""

import math
import random
import time

import pytest

import mrsurvey as m
from mrsurvey.harness import ExperimentSpec, emit_outputs, run_experiment
from mrsurvey.simulator import MissionConfig, replay_check, run_mission

import reference

# Minutes of experiment grids: `pytest -m "not slow"` leaves them out.
pytestmark = pytest.mark.slow

SEED_INSTANCES = 723401
N_INSTANCES = 200
PLANNERS = ("model", "optimistic", "greedy")


def _finish(capsys, criterion, ok, detail):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[acceptance] criterion {criterion} {tag}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def _state_from(pois, robots):
    return m.make_state(
        [(p[0], p[1], p[2], p[3], p[4]) for p in pois],
        [m.RobotState(i, r[0], r[1], r[2]) for i, r in enumerate(robots)],
    )


# --- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def small_instances():
    """200 random instances of 1..6 PoIs and 1..2 robots."""
    rng = random.Random(SEED_INSTANCES)
    return [reference.random_small_instance(rng, robot_choices=(1, 1, 2, 2))
            for _ in range(N_INSTANCES)]


@pytest.fixture(scope="session")
def engine_runs(small_instances):
    """Exact planner results plus per-node search logs, with wall time."""
    cfg = m.PlannerConfig(depth_cap=6, n_priority=12, n_top_prob=6)
    results, logs = [], []
    t0 = time.perf_counter()
    for pois, robots in small_instances:
        log = []
        results.append(m.plan_detailed(_state_from(pois, robots), cfg, node_log=log))
        logs.append(log)
    wall = time.perf_counter() - t0
    return results, logs, wall


@pytest.fixture(scope="session")
def oracle_runs(small_instances):
    """Brute-force optima over all assignment/reveal sequences."""
    t0 = time.perf_counter()
    optima = [reference.route_space_optimum(pois, robots)
              for pois, robots in small_instances]
    return optima, time.perf_counter() - t0


@pytest.fixture(scope="session")
def report12():
    """100 paired trials at 12 PoIs for 1, 3, and 5 robots, all planners."""
    spec = ExperimentSpec(n_trials=100, n_pois=(12,), n_robots=(1, 3, 5), seed_base=0)
    t0 = time.perf_counter()
    report = run_experiment(spec)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def report36():
    """100 paired trials at 36 PoIs for 3 robots, all planners."""
    spec = ExperimentSpec(n_trials=100, n_pois=(36,), n_robots=(3,), seed_base=0)
    t0 = time.perf_counter()
    report = run_experiment(spec)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def latency36():
    """Model-planner missions at 36 PoIs with 5 robots, timing every replan."""
    medians, replay_oks = [], []
    for seed in range(8):
        scen = m.generate_scenario(seed, 36)
        trace = run_mission(scen, MissionConfig(planner="model", n_robots=5))
        medians.append(trace.planning_calls.median_wall)
        replay_oks.append(replay_check(trace, scen).ok)
    return medians, replay_oks


# --- criteria ----------------------------------------------------------------


def test_criterion_01_exact_optima_match_brute_force(capsys, small_instances,
                                                     engine_runs, oracle_runs):
    results, _, engine_wall = engine_runs
    optima, oracle_wall = oracle_runs
    worst = 0.0
    mismatches = 0
    for res, (want_cost, want_first) in zip(results, optima):
        worst = max(worst, abs(res.cost - want_cost))
        if abs(res.cost - want_cost) > 1e-9 or res.action.targets != want_first:
            mismatches += 1
    total = engine_wall + oracle_wall
    ok = mismatches == 0 and worst <= 1e-9 and total < 60.0
    _finish(capsys, 1, ok,
            f"{N_INSTANCES - mismatches}/{N_INSTANCES} optima match brute force "
            f"(max |diff| {worst:.2e}, tol 1e-9), "
            f"planner {engine_wall:.2f}s + enumerator {oracle_wall:.2f}s < 60s")


def test_criterion_02_bounds_admissible_at_search_nodes(capsys, small_instances,
                                                        engine_runs):
    _, logs, _ = engine_runs
    checked = violations = 0
    for (pois, robots), log in zip(small_instances, logs):
        info = {p[0]: p for p in pois}
        for rec in log:
            if not rec.poi_ids:
                checked += 1
                violations += rec.bound > rec.accrued + 1e-9
                continue
            sub = [info[pid] for pid in rec.poi_ids]
            rob = [[x, y, v] for (x, y), v in zip(rec.robot_xy, rec.robot_speeds)]
            held = [None if t is None else (t, q)
                    for t, q in zip(rec.robot_targets, rec.robot_remaining)]
            completion, _ = reference.route_space_optimum(sub, rob, progress=held)
            checked += 1
            violations += rec.bound > rec.accrued + completion + 1e-9
    ok = checked > 0 and violations == 0
    _finish(capsys, 2, ok,
            f"lower bound <= brute-force optimum at {checked} search nodes, "
            f"{violations} violations")


def test_criterion_03_two_poi_instance_is_analytic(capsys):
    by = math.sqrt(24.0975)
    state = m.make_state(
        [(0, 10.0, 0.0, 0.0, 0.9), (1, -0.95, by, 0.0, 0.1)],
        [m.RobotState(0, 0.0, 0.0, 1.0)],
    )
    cfg = m.PlannerConfig(depth_cap=6, n_priority=12, n_top_prob=6)
    res = m.plan_detailed(state, cfg)
    cost, action = res.cost, res.action
    err = abs(cost - 11.2)
    ok = res.subset_ids == state.poi_ids and err <= 1e-12 and action.targets == (0,)
    _finish(capsys, 3, ok,
            f"cost {cost!r} within {err:.1e} of 11.2 (tol 1e-12), "
            f"first target {action.targets}")


def test_criterion_04_damage_model_closed_forms(capsys):
    params = m.GenerativeParams()
    pocket = (m.scenario.WindPocket(0.0, 0.0),)
    p_sigma = m.damage_probability((60.0, 0.0), "forest", pocket, params)
    p_two_sigma = m.damage_probability((120.0, 0.0), "building", pocket, params)
    e1 = abs(p_sigma - math.exp(-0.5))
    e2 = abs(p_two_sigma - 0.2 * math.exp(-2.0))
    ok = e1 <= 1e-12 and e2 <= 1e-12
    _finish(capsys, 4, ok,
            f"p(d=sigma)={p_sigma:.12f} err {e1:.1e}, "
            f"p(building, d=2 sigma)={p_two_sigma:.12f} err {e2:.1e} (tol 1e-12)")


def test_criterion_05_estimator_recovers_generator(capsys):
    t0 = time.perf_counter()
    scenarios = [m.generate_scenario(seed, 12) for seed in range(1, 5001)]
    fitted = m.fit_estimator(scenarios)
    wall = time.perf_counter() - t0
    sig_ok = 54.0 <= fitted.sigma_hat <= 66.0
    true_susc = {"forest": 1.0, "field": 0.8, "building": 0.2}
    susc_err = {c: abs(fitted.susceptibility_hat[c] - v) for c, v in true_susc.items()}
    susc_ok = all(e <= 0.1 for e in susc_err.values())
    ok = sig_ok and susc_ok and wall < 300.0
    _finish(capsys, 5, ok,
            f"sigma_hat {fitted.sigma_hat:.2f} in [54, 66], susceptibility errors "
            + ", ".join(f"{c} {e:.3f}" for c, e in susc_err.items())
            + f" (tol 0.1), fit on 5000 scenarios in {wall:.1f}s < 300s")


def test_criterion_06_model_beats_both_baselines_at_12_pois(capsys, report12):
    report, wall = report12
    parts = []
    ok = wall < 1800.0
    for robots in (1, 3, 5):
        means = {p: report.cells[(p, 12, robots)].mean for p in PLANNERS}
        imp = min(report.improvements[(12, robots, b)] for b in ("optimistic", "greedy"))
        beats = means["model"] < means["optimistic"] and means["model"] < means["greedy"]
        ok = ok and beats and imp >= 10.0
        parts.append(f"r={robots}: model {means['model']:.1f} vs opt "
                     f"{means['optimistic']:.1f} / greedy {means['greedy']:.1f}, "
                     f"min improvement {imp:.1f}%")
    _finish(capsys, 6, ok,
            "; ".join(parts) + f"; bar >= 10%, 100 paired trials, {wall:.0f}s < 1800s")


def test_criterion_07_cost_decreases_with_team_size(capsys, report12):
    report, _ = report12
    means = [report.cells[("model", 12, r)].mean for r in (1, 3, 5)]
    ok = means[0] > means[1] > means[2]
    _finish(capsys, 7, ok,
            f"model mean cost {means[0]:.1f} (1 robot) > {means[1]:.1f} (3) "
            f"> {means[2]:.1f} (5)")


def test_criterion_08_scale_up_and_planning_latency(capsys, report36, latency36):
    report, wall = report36
    means = {p: report.cells[(p, 36, 3)].mean for p in PLANNERS}
    imp = min(report.improvements[(36, 3, b)] for b in ("optimistic", "greedy"))
    medians, _ = latency36
    worst_median = max(medians)
    ok = (means["model"] < means["optimistic"] and means["model"] < means["greedy"]
          and imp >= 15.0 and worst_median < 10.0)
    _finish(capsys, 8, ok,
            f"36 PoIs, 3 robots: model {means['model']:.1f} vs opt "
            f"{means['optimistic']:.1f} / greedy {means['greedy']:.1f}, min improvement "
            f"{imp:.1f}% (bar 15%), {wall:.0f}s; median replan wall at 5 robots "
            f"{worst_median:.2f}s worst of {len(medians)} missions (bar 10s)")


def test_criterion_09_every_trace_replays_cleanly(capsys, report12, report36,
                                                  latency36):
    rep12, _ = report12
    rep36, _ = report36
    _, replay_oks = latency36
    n_missions = 0
    closed_out = True
    for report in (rep12, rep36):
        for key, curves in report.curves.items():
            for _, curve in curves:
                n_missions += 1
                closed_out = closed_out and curve[-1][4] == 0
    failures = len(rep12.replay_failures) + len(rep36.replay_failures)
    failures += sum(not ok for ok in replay_oks)
    n_missions += len(replay_oks)
    ok = failures == 0 and closed_out
    _finish(capsys, 9, ok,
            f"replay validation passed on {n_missions} missions "
            f"({failures} failures), every trace ends with 0 unreported damage")


def test_criterion_10_reruns_are_byte_identical(capsys, tmp_path_factory):
    spec_kwargs = dict(n_trials=6, n_pois=(8,), n_robots=(1, 3), seed_base=777,
                       planner_config=m.PlannerConfig(depth_cap=4))
    dir_a = tmp_path_factory.mktemp("rerun_a")
    dir_b = tmp_path_factory.mktemp("rerun_b")
    emit_outputs(run_experiment(ExperimentSpec(**spec_kwargs)), str(dir_a))
    emit_outputs(run_experiment(ExperimentSpec(**spec_kwargs, parallelism=2)), str(dir_b))
    csvs = sorted(p.name for p in dir_a.iterdir() if p.suffix == ".csv")
    identical = [name for name in csvs
                 if (dir_a / name).read_bytes() == (dir_b / name).read_bytes()]
    ok = len(csvs) > 0 and identical == csvs
    _finish(capsys, 10, ok,
            f"{len(identical)}/{len(csvs)} summary CSVs byte-identical across "
            f"a serial and a parallel rerun: {', '.join(csvs)}")
