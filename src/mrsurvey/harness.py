"""Batch experiments: paired trials, aggregation, and file outputs.

Trial i of every cell uses scenario seed seed_base + i, so all planners
(and all robot counts) face identical scenarios and per-trial costs are
directly comparable.  One task per (PoI count, seed) builds that world
and resolves its likelihoods once, then flies every robot count and
planner on it.  Aggregation follows task order, which a pool keeps, so
results do not depend on worker scheduling.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .estimator import resolve_likelihoods
from .planner import PlannerConfig
from .scenario import generate_scenario
from .simulator import PLANNER_NAMES, CurvePoint, MissionConfig, replay_check, run_mission


@dataclass(frozen=True)
class ExperimentSpec:
    n_trials: int = 100
    n_pois: Tuple[int, ...] = (12,)
    n_robots: Tuple[int, ...] = (1, 3, 5)
    seed_base: int = 0
    planners: Tuple[str, ...] = PLANNER_NAMES
    estimator: str = "oracle"
    planner_config: PlannerConfig = field(default_factory=PlannerConfig)
    speed: float = 1.0
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not self.n_pois or not self.n_robots or not self.planners:
            raise ValueError("n_pois, n_robots and planners must be non-empty")
        if any(len(set(v)) < len(v) for v in (self.n_pois, self.n_robots, self.planners)):
            raise ValueError("n_pois, n_robots and planners must not repeat an entry")
        if min(self.n_pois) < 0:
            raise ValueError("n_pois must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        # Every mission's config, so a bad one fails before the first world.
        for n_robots in self.n_robots:
            for planner in self.planners:
                MissionConfig(planner, self.planner_config, self.estimator, n_robots, self.speed)


Cell = Tuple[str, int, int]  # (planner, n_pois, n_robots)


@dataclass(frozen=True)
class MissionOutcome:
    """One mission: its cost, time and distance are its curve's last point."""

    seed: int
    curve: Tuple[CurvePoint, ...]
    planning_wall_median: float
    replay_reasons: Tuple[str, ...]


@dataclass(frozen=True)
class CellStats:
    """One cell's missions, in seed order; every aggregate is read from them."""

    outcomes: Tuple[MissionOutcome, ...]

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(o.seed for o in self.outcomes)

    @property
    def costs(self) -> Tuple[float, ...]:
        return tuple(o.curve[-1].realized_cost_accrued for o in self.outcomes)

    @property
    def planning_wall_medians(self) -> Tuple[float, ...]:
        return tuple(o.planning_wall_median for o in self.outcomes)

    @property
    def mean(self) -> float:
        return float(statistics.fmean(self.costs))

    @property
    def median(self) -> float:
        return float(statistics.median(self.costs))

    @property
    def std(self) -> float:
        costs = self.costs
        return float(statistics.stdev(costs)) if len(costs) > 1 else 0.0

    @property
    def mean_distance(self) -> float:
        return float(statistics.fmean(o.curve[-1].distance_traveled for o in self.outcomes))

    @property
    def mean_time(self) -> float:
        return float(statistics.fmean(o.curve[-1].time for o in self.outcomes))


@dataclass
class AggregateReport:
    """The spec and its cells in grid order (PoI count, then robot count,
    then planner); curves, replay failures and improvements are read
    from the cells."""

    spec: ExperimentSpec
    cells: Dict[Cell, CellStats]

    @property
    def curves(self) -> Dict[Cell, Tuple[Tuple[int, Tuple[CurvePoint, ...]], ...]]:
        """Each cell's (seed, cost curve) pairs, in seed order."""
        return {key: tuple((o.seed, o.curve) for o in c.outcomes) for key, c in self.cells.items()}

    @property
    def replay_failures(self) -> Tuple[Tuple[int, int, int, str, Tuple[str, ...]], ...]:
        """(n_pois, n_robots, seed, planner, reasons) of each mission that
        failed replay, in cell order, then seed order."""
        return tuple(
            (n_p, n_r, o.seed, planner, o.replay_reasons)
            for (planner, n_p, n_r), c in self.cells.items()
            for o in c.outcomes
            if o.replay_reasons
        )

    @property
    def improvements(self) -> Dict[Tuple[int, int, str], float]:
        """The model's paired gain over each baseline, in percent of the
        baseline's mean cost, keyed (n_pois, n_robots, baseline); empty
        without the model."""
        if "model" not in self.spec.planners:
            return {}
        gains = {}
        for (planner, n_p, n_r), c in self.cells.items():
            if planner != "model":
                model_mean = self.cells[("model", n_p, n_r)].mean
                gains[(n_p, n_r, planner)] = 100.0 * (c.mean - model_mean) / c.mean if c.mean else 0.0
        return gains


def _run_trial(spec: ExperimentSpec, n_pois: int, seed: int) -> List[Tuple[Cell, MissionOutcome]]:
    """Trial seed at n_pois PoIs: every planner at every robot count, on
    one world generated and resolved once, each outcome keyed by its
    (planner, n_pois, n_robots) cell."""
    scenario = generate_scenario(seed, n_pois)
    likelihoods = resolve_likelihoods(scenario, spec.estimator)
    pairs = []
    for n_robots in spec.n_robots:
        for planner in spec.planners:
            config = MissionConfig(
                planner=planner,
                planner_config=spec.planner_config,
                estimator=spec.estimator,
                n_robots=n_robots,
                speed=spec.speed,
                seed=seed,
            )
            trace = run_mission(scenario, config, likelihoods=likelihoods)
            outcome = MissionOutcome(
                seed=seed,
                curve=trace.cost_curve,
                planning_wall_median=trace.planning_calls.median_wall,
                replay_reasons=tuple(replay_check(trace, scenario).reasons),
            )
            pairs.append(((planner, n_pois, n_robots), outcome))
    return pairs


def run_experiment(spec: ExperimentSpec) -> AggregateReport:
    """Run every (n_pois, n_robots) cell for every planner with paired seeds."""
    tasks = [(n_p, spec.seed_base + i) for n_p in spec.n_pois for i in range(spec.n_trials)]
    if spec.parallelism > 1:
        # Imported here: the pool's modules cost every serial caller an
        # import and their memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            trials = list(pool.map(_run_trial, [spec] * len(tasks), *zip(*tasks), chunksize=1))
    else:
        trials = [_run_trial(spec, n_p, seed) for n_p, seed in tasks]
    # Task order (pool.map keeps it) puts the cells in grid order and the
    # seeds in ascending order within each cell.
    by_cell: Dict[Cell, List[MissionOutcome]] = {}
    for pairs in trials:
        for key, outcome in pairs:
            by_cell.setdefault(key, []).append(outcome)
    return AggregateReport(spec, {key: CellStats(tuple(outs)) for key, outs in by_cell.items()})


# --- file outputs ------------------------------------------------------------


def emit_outputs(report: AggregateReport, out_dir: str) -> List[str]:
    """Write summary.csv, per-cell scatter CSVs, cost-curve files, stats.json.

    Deterministic: rerunning on the same report reproduces every file
    byte for byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    spec = report.spec
    baselines = [p for p in spec.planners if p != "model"]
    improvements = report.improvements

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w") as f:
        f.write("planner,n_pois,n_robots,mean,median,std,pct_improvement\n")
        for (planner, n_p, n_r), c in report.cells.items():
            # pct_improvement: a baseline row shows the model's gain over
            # that baseline, the model row its gain over the better one.
            if not improvements:
                pct = ""
            elif planner == "model":
                pct = repr(min(improvements[(n_p, n_r, b)] for b in baselines))
            else:
                pct = repr(improvements[(n_p, n_r, planner)])
            f.write(f"{planner},{n_p},{n_r},{c.mean!r},{c.median!r},{c.std!r},{pct}\n")
    written.append(summary_path)

    scatter_paths = []
    if improvements:
        for n_p in spec.n_pois:
            for n_r in spec.n_robots:
                path = os.path.join(out_dir, f"scatter_p{n_p}_r{n_r}.csv")
                model = report.cells[("model", n_p, n_r)]
                with open(path, "w") as f:
                    f.write("seed,model_cost,baseline_cost,baseline_name\n")
                    for b in baselines:
                        base = report.cells[(b, n_p, n_r)]
                        for seed, mc, bc in zip(model.seeds, model.costs, base.costs):
                            f.write(f"{seed},{mc!r},{bc!r},{b}\n")
                scatter_paths.append(path)
                written.append(path)
        if len(spec.n_pois) * len(spec.n_robots) == 1:
            plain = os.path.join(out_dir, "scatter.csv")
            with open(scatter_paths[0]) as src, open(plain, "w") as dst:
                dst.write(src.read())
            written.append(plain)

    cells = sorted(report.cells.items())
    for (planner, n_p, n_r), c in cells:
        path = os.path.join(out_dir, f"curves_p{n_p}_r{n_r}_{planner}.jsonl")
        with open(path, "w") as f:
            for o in c.outcomes:
                f.write(json.dumps({"seed": o.seed, "curve": [list(pt) for pt in o.curve]}) + "\n")
        written.append(path)

    stats_path = os.path.join(out_dir, "stats.json")
    with open(stats_path, "w") as f:
        json.dump(
            {
                "spec": {
                    "n_trials": spec.n_trials,
                    "n_pois": list(spec.n_pois),
                    "n_robots": list(spec.n_robots),
                    "seed_base": spec.seed_base,
                    "planners": list(spec.planners),
                    "estimator": spec.estimator,
                    "speed": spec.speed,
                    "depth_cap": spec.planner_config.depth_cap,
                    "n_priority": spec.planner_config.n_priority,
                },
                "cells": [
                    {
                        "planner": planner,
                        "n_pois": n_p,
                        "n_robots": n_r,
                        "mean": c.mean,
                        "median": c.median,
                        "std": c.std,
                        "mean_distance": c.mean_distance,
                        "mean_time": c.mean_time,
                        "median_planning_wall": float(statistics.median(c.planning_wall_medians)),
                    }
                    for (planner, n_p, n_r), c in cells
                ],
                "improvements": [
                    {"n_pois": k[0], "n_robots": k[1], "baseline": k[2], "pct": v}
                    for k, v in sorted(improvements.items())
                ],
                "replay_failures": [
                    {
                        "n_pois": r[0],
                        "n_robots": r[1],
                        "seed": r[2],
                        "planner": r[3],
                        "reasons": list(r[4]),
                    }
                    for r in report.replay_failures
                ],
            },
            f,
            indent=2,
        )
        f.write("\n")
    written.append(stats_path)
    return written
