"""Event-driven mission simulator with replay validation.

A mission advances from reveal to reveal: the configured planner picks a
joint action, robots fly straight lines until the earliest inspection
completes, the revealed PoI leaves the remaining set, and the team
replans from interpolated positions.  A robot that has reached its
target keeps the inspection time it has done there if the next action
sends it to the same PoI; a robot sent elsewhere, or whose target
another robot revealed, starts its next inspection from zero.  Between
events nothing changes, so the loop is exact, not time-stepped.

The planning state is built with make_state once per mission.  After
that, action_outcome carries it: the state the planner sees at each
reveal is the successor of the previous step.

Two cost integrals are tracked: expected cost charges the sum of
remaining likelihoods per second (using the raw, unclamped estimates),
so it ends at the likelihood-weighted sum of reveal times, and realized
cost charges one per second per damaged-but-unreported PoI, so it ends
at the sum of the damaged PoIs' reveal times: the seconds each damaged
PoI waited to be reported.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import baselines
from .estimator import clamp_for_planner, resolve_likelihoods
from .planner import (
    PlannerConfig,
    PlanningState,
    RobotState,
    action_outcome,
    make_state,
    plan,
)
from .scenario import Scenario

PLANNER_NAMES = ("model", "optimistic", "greedy")

EVENT_INSPECTION = "inspection_complete"
EVENT_MISSION_END = "mission_end"


@dataclass(frozen=True)
class MissionConfig:
    planner: str = "model"
    planner_config: PlannerConfig = field(default_factory=PlannerConfig)
    estimator: str = "oracle"
    n_robots: int = 1
    speed: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.planner not in PLANNER_NAMES:
            raise ValueError(f"unknown planner {self.planner!r}")
        if self.n_robots < 1:
            raise ValueError("n_robots must be >= 1")
        if not math.isfinite(self.speed) or self.speed <= 0.0:
            raise ValueError("speed must be finite and > 0")


class CurvePoint(NamedTuple):
    time: float
    distance_traveled: float
    expected_cost_accrued: float
    realized_cost_accrued: float
    n_damaged_unreported: int


@dataclass(frozen=True)
class PlanningCallStats:
    count: int
    total_wall: float
    mean_wall: float
    median_wall: float
    max_wall: float

    @staticmethod
    def from_walls(walls: Sequence[float]) -> "PlanningCallStats":
        if not walls:
            return PlanningCallStats(0, 0.0, 0.0, 0.0, 0.0)
        return PlanningCallStats(
            count=len(walls),
            total_wall=float(sum(walls)),
            mean_wall=float(sum(walls) / len(walls)),
            median_wall=float(statistics.median(walls)),
            max_wall=float(max(walls)),
        )


@dataclass
class MissionTrace:
    """One mission, each fact kept once.

    reveal_log[k] is the k-th reveal as (time, PoI id, damaged),
    finishers[k] the robot that made it, and cost_curve[k + 1] the
    curve point at that reveal; cost_curve[0] is the start.  The
    totals are the curve's last point and the planner is the config's.
    """

    scenario_seed: int
    config: dict
    likelihoods: Dict[int, float]
    reveal_log: Tuple[Tuple[float, int, bool], ...]
    finishers: Tuple[int, ...]
    cost_curve: Tuple[CurvePoint, ...]
    planning_calls: PlanningCallStats

    @property
    def planner(self) -> str:
        return self.config["planner"]

    @property
    def total_time(self) -> float:
        return self.cost_curve[-1].time

    @property
    def total_distance(self) -> float:
        return self.cost_curve[-1].distance_traveled

    @property
    def total_expected_cost(self) -> float:
        return self.cost_curve[-1].expected_cost_accrued

    @property
    def total_realized_cost(self) -> float:
        return self.cost_curve[-1].realized_cost_accrued


def _dispatch(name: str, config: PlannerConfig):
    if name == "model":
        return lambda st: plan(st, config)
    if name == "optimistic":
        return baselines.optimistic_assign
    return baselines.greedy_assign


def _team_distance(before: PlanningState, after: PlanningState) -> float:
    """The length of every robot's leg between two states, summed.

    The sum keeps numpy's bits at every team size: numpy adds left to
    right from +0.0 below 8 legs, which a plain loop does for a fraction
    of np.sum's cost on a short list, and pairwise from 8 on, where
    np.sum is kept.  (Not the builtin sum, which compensates from Python
    3.12 on.)
    """
    legs = []
    for x0, y0, x1, y1 in zip(before.robot_x, before.robot_y, after.robot_x, after.robot_y):
        dx = x1 - x0
        dy = y1 - y0
        legs.append(math.sqrt(dx * dx + dy * dy))
    if len(legs) >= 8:
        return float(np.sum(legs))
    total = 0.0
    for leg in legs:
        total += leg
    return total


def run_mission(
    scenario: Scenario,
    config: MissionConfig,
    likelihoods: Optional[Dict[int, float]] = None,
) -> MissionTrace:
    """Simulate one mission; deterministic given scenario and config."""
    raw = dict(likelihoods) if likelihoods is not None else resolve_likelihoods(scenario, config.estimator)
    missing = [p.id for p in scenario.pois if p.id not in raw]
    if missing:
        raise ValueError(f"likelihood map missing PoI ids {missing}")
    clamped = clamp_for_planner(raw)
    choose = _dispatch(config.planner, config.planner_config)

    pois = {p.id: p for p in scenario.pois}
    damaged_left = sum(1 for p in pois.values() if p.damaged)
    # Rows from scenario.pois, not pois, so make_state sees a repeated id.
    state = make_state(
        [(p.id, p.x, p.y, p.inspect_time, clamped[p.id]) for p in scenario.pois],
        [RobotState(i, scenario.start[0], scenario.start[1], config.speed) for i in range(config.n_robots)],
    )

    t = 0.0
    dist = 0.0
    exp_acc = 0.0
    real_acc = 0.0
    reveals: List[Tuple[float, int, bool]] = []
    finishers: List[int] = []
    curve: List[CurvePoint] = [CurvePoint(0.0, 0.0, 0.0, 0.0, damaged_left)]
    walls: List[float] = []

    while state.n_pois:
        t0 = time.perf_counter()
        action = choose(state)
        walls.append(time.perf_counter() - t0)
        if action is None or len(action.targets) != config.n_robots:
            raise RuntimeError(f"planner {config.planner!r} returned an invalid action")

        outcome = action_outcome(state, action)
        duration = outcome.duration
        dist += _team_distance(state, outcome.successor)

        # A left-to-right sum, like the planner's: the builtin sum
        # compensates from Python 3.12 on and would move the last bits.
        psum = 0.0
        for pid in state.poi_ids:
            psum += raw[pid]
        exp_acc += duration * psum
        real_acc += duration * damaged_left
        t += duration

        pid = outcome.first_poi
        was_damaged = pois[pid].damaged
        if was_damaged:
            damaged_left -= 1
        reveals.append((t, pid, was_damaged))
        finishers.append(outcome.finishing_robot)
        curve.append(CurvePoint(t, dist, exp_acc, real_acc, damaged_left))
        state = outcome.successor

    return MissionTrace(
        scenario_seed=scenario.seed,
        config={
            "planner": config.planner,
            "estimator": config.estimator,
            "n_robots": config.n_robots,
            "speed": config.speed,
            "seed": config.seed,
            "depth_cap": config.planner_config.depth_cap,
            "n_priority": config.planner_config.n_priority,
            "n_top_prob": config.planner_config.n_top_prob,
        },
        likelihoods=raw,
        reveal_log=tuple(reveals),
        finishers=tuple(finishers),
        cost_curve=tuple(curve),
        planning_calls=PlanningCallStats.from_walls(walls),
    )


# --- replay validation -------------------------------------------------------

REPLAY_TOL = 1e-6


@dataclass
class ReplayResult:
    ok: bool
    reasons: List[str]

    def __bool__(self) -> bool:
        return self.ok


def replay_check(trace: MissionTrace, scenario: Scenario) -> ReplayResult:
    """Validate a trace against the scenario's ground truth.

    Checks reveal completeness, damaged-flag agreement, that the reveal
    log, the finishers and the cost curve after its start line up one to
    one with equal times, per-robot kinematic feasibility of the reveal
    times at the configured speed, that both cost integrals match their
    closed forms in the reveal times within 1e-6, and that the cost
    curve's damaged-unreported counts follow the reveal log.
    """
    reasons: List[str] = []
    pois = {p.id: p for p in scenario.pois}
    speed = float(trace.config["speed"])
    log = trace.reveal_log
    curve = trace.cost_curve

    revealed = [pid for _, pid, _ in log]
    if sorted(revealed) != sorted(pois):
        reasons.append("reveal log does not cover every PoI exactly once")
    for t, pid, flag in log:
        if pid in pois and bool(pois[pid].damaged) != bool(flag):
            reasons.append(f"damaged flag mismatch for PoI {pid}")
        if t < 0:
            reasons.append(f"negative reveal time for PoI {pid}")

    # Everything below pairs the reveal log with the finishers and the
    # curve by position, so a trace whose lengths differ stops here.
    if not len(log) == len(trace.finishers) == len(curve) - 1:
        reasons.append("reveal log, finishers and cost curve differ in length")
        return ReplayResult(ok=False, reasons=reasons)
    if [c.time for c in curve[1:]] != [t for t, _, _ in log]:
        reasons.append("cost curve times differ from the reveal times")

    # Reveal times must be reachable: between two reveals by the same
    # robot it must at least fly the straight line and inspect.
    last_seen: Dict[int, Tuple[float, int]] = {}
    for (t, pid, _), robot in zip(log, trace.finishers):
        if pid not in pois:
            continue
        poi = pois[pid]
        if robot in last_seen:
            t_prev, pid_prev = last_seen[robot]
            prev = pois[pid_prev]
            lag = math.sqrt((poi.x - prev.x) ** 2 + (poi.y - prev.y) ** 2) / speed
        else:
            t_prev = 0.0
            lag = math.sqrt((poi.x - scenario.start[0]) ** 2 + (poi.y - scenario.start[1]) ** 2) / speed
        if t - t_prev < lag + poi.inspect_time - REPLAY_TOL:
            reasons.append(f"PoI {pid} revealed at t={t:.3f} sooner than robot {robot} could reach it")
        last_seen[robot] = (t, pid)

    reveal_time = {pid: t for t, pid, _ in log}
    if set(reveal_time) == set(pois):
        realized = sum(reveal_time[pid] for pid in pois if pois[pid].damaged)
        if abs(realized - trace.total_realized_cost) > REPLAY_TOL:
            reasons.append(
                f"realized cost {trace.total_realized_cost:.9f} differs from closed form {realized:.9f}"
            )
        if set(trace.likelihoods) >= set(pois):
            expected = sum(trace.likelihoods[pid] * reveal_time[pid] for pid in pois)
            if abs(expected - trace.total_expected_cost) > REPLAY_TOL:
                reasons.append(
                    f"expected cost {trace.total_expected_cost:.9f} differs from closed form {expected:.9f}"
                )
        else:
            reasons.append("trace likelihood map does not cover every PoI")

    for a, b in zip(curve, curve[1:]):
        if b.time < a.time or b.distance_traveled < a.distance_traveled - REPLAY_TOL:
            reasons.append("cost curve time or distance decreases")
            break
        if (
            b.expected_cost_accrued < a.expected_cost_accrued - REPLAY_TOL
            or b.realized_cost_accrued < a.realized_cost_accrued - REPLAY_TOL
        ):
            reasons.append("cost curve accruals decrease")
            break
    # The curve starts with every damaged PoI unreported and drops by
    # one at each damaged reveal.
    unreported = sum(1 for p in pois.values() if p.damaged)
    want = [unreported]
    for pid in revealed:
        if pid in pois and pois[pid].damaged:
            unreported -= 1
        want.append(unreported)
    if [c.n_damaged_unreported for c in curve] != want:
        reasons.append("cost curve damaged-unreported counts disagree with the reveal log")
    if curve[-1].n_damaged_unreported != 0:
        reasons.append("mission ended with damaged PoIs unreported")
    n_rob = int(trace.config["n_robots"])
    if trace.total_distance > n_rob * speed * trace.total_time + REPLAY_TOL:
        reasons.append("total distance exceeds what the team can fly")

    return ReplayResult(ok=not reasons, reasons=reasons)


# --- trace files -------------------------------------------------------------

# The JSON keys of an event record's cost-curve fields, in CurvePoint's
# order after time.
_CURVE_KEYS = ("distance", "expected_cost", "realized_cost", "n_damaged_unreported")


def write_trace(trace: MissionTrace, path: str) -> None:
    """JSON-lines trace: one event record per reveal, a mission_end
    event record, then a summary record.

    The k-th reveal's record carries cost-curve point k + 1 (point 0 is
    the start), and mission_end carries the last point.  Points are
    matched by position, not time: reveals can share a timestamp.
    """
    records = [
        {"type": "event", "time": t, "kind": EVENT_INSPECTION, "poi": pid, "robot": robot, "damaged": flag}
        for (t, pid, flag), robot in zip(trace.reveal_log, trace.finishers)
    ]
    records.append({"type": "event", "time": trace.total_time, "kind": EVENT_MISSION_END, "poi": None, "robot": None})
    with open(path, "w") as f:
        for rec, point in zip(records, trace.cost_curve[1:] + trace.cost_curve[-1:]):
            rec.update(zip(_CURVE_KEYS, point[1:]))
            f.write(json.dumps(rec) + "\n")
        summary = {
            "type": "summary",
            "scenario_seed": trace.scenario_seed,
            "planner": trace.planner,
            "config": trace.config,
            "total_time": trace.total_time,
            "total_distance": trace.total_distance,
            "total_expected_cost": trace.total_expected_cost,
            "total_realized_cost": trace.total_realized_cost,
            "planning_calls": asdict(trace.planning_calls),
            "likelihoods": {str(k): v for k, v in trace.likelihoods.items()},
        }
        f.write(json.dumps(summary) + "\n")


def load_trace(path: str) -> MissionTrace:
    """Rebuild a trace from the reveals' event records of a trace file.

    The summary's totals and the mission_end record repeat the last
    curve point; a file where they differ from it is a ValueError.
    """
    reveals: List[Tuple[float, int, bool]] = []
    finishers: List[int] = []
    curve: List[CurvePoint] = []
    summary = last = None
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["type"] == "summary":
                summary = rec
                continue
            last = rec
            if rec["kind"] == EVENT_INSPECTION:
                reveals.append((rec["time"], rec["poi"], bool(rec["damaged"])))
                finishers.append(rec["robot"])
                curve.append(CurvePoint(rec["time"], *(rec[key] for key in _CURVE_KEYS)))
    if summary is None or last is None:
        raise ValueError(f"trace file {path} lacks its event or summary records")
    initial = CurvePoint(0.0, 0.0, 0.0, 0.0, sum(1 for _, _, d in reveals if d))
    trace = MissionTrace(
        scenario_seed=summary["scenario_seed"],
        config=summary["config"],
        likelihoods={int(k): float(v) for k, v in summary["likelihoods"].items()},
        reveal_log=tuple(reveals),
        finishers=tuple(finishers),
        cost_curve=tuple([initial] + curve),
        planning_calls=PlanningCallStats(**summary["planning_calls"]),
    )
    for key in ("time", "distance", "expected_cost", "realized_cost"):
        total = f"total_{key}"
        if not summary[total] == last[key] == getattr(trace, total):
            raise ValueError(
                f"trace file {path}: {total} is {summary[total]!r} in the summary and {last[key]!r} "
                f"in the last event record, but the reveals end at {getattr(trace, total)!r}"
            )
    return trace
