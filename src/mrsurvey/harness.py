"""Batch experiments: paired trials, aggregation, and file outputs.

Trial i of every cell uses scenario seed seed_base + i, so all planners
(and all robot counts) face identical scenarios and per-trial costs are
directly comparable.  Aggregation is keyed and sorted by seed, which
keeps results independent of worker scheduling when a pool is used.
"""

from __future__ import annotations

import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .estimator import resolve_likelihoods
from .planner import PlannerConfig
from .scenario import GenerativeParams, generate_scenario
from .simulator import PLANNER_NAMES, MissionConfig, replay_check, run_mission


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
    gen_params: GenerativeParams = field(default_factory=GenerativeParams)
    parallelism: int = 1

    def validate(self) -> None:
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not self.n_pois or not self.n_robots or not self.planners:
            raise ValueError("n_pois, n_robots and planners must be non-empty")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.planner_config.validate()
        self.gen_params.validate()


@dataclass(frozen=True)
class MissionOutcome:
    cost: float
    total_time: float
    total_distance: float
    planning_wall_median: float
    curve: Tuple[Tuple[float, float, float, float, int], ...]
    replay_ok: bool
    replay_reasons: Tuple[str, ...]


@dataclass(frozen=True)
class CellStats:
    planner: str
    n_pois: int
    n_robots: int
    mean: float
    median: float
    std: float
    mean_distance: float
    mean_time: float
    planning_wall_medians: Tuple[float, ...]
    seeds: Tuple[int, ...]
    costs: Tuple[float, ...]


@dataclass
class AggregateReport:
    spec: ExperimentSpec
    cells: Dict[Tuple[str, int, int], CellStats]
    improvements: Dict[Tuple[int, int, str], float]
    curves: Dict[Tuple[str, int, int], Tuple[Tuple[int, tuple], ...]]
    replay_failures: Tuple[Tuple[int, int, int, str, Tuple[str, ...]], ...]


def _run_trial(
    spec: ExperimentSpec, n_pois: int, n_robots: int, seed: int
) -> Tuple[int, int, int, Dict[str, MissionOutcome]]:
    scenario = generate_scenario(seed, n_pois, spec.gen_params)
    likelihoods = resolve_likelihoods(scenario, spec.estimator)
    out: Dict[str, MissionOutcome] = {}
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
        result = replay_check(trace, scenario)
        curve = tuple(
            (c.time, c.distance_traveled, c.expected_cost_accrued, c.realized_cost_accrued, c.n_damaged_unreported)
            for c in trace.cost_curve
        )
        out[planner] = MissionOutcome(
            cost=trace.total_realized_cost,
            total_time=trace.total_time,
            total_distance=trace.total_distance,
            planning_wall_median=trace.planning_calls.median_wall,
            curve=curve,
            replay_ok=result.ok,
            replay_reasons=tuple(result.reasons),
        )
    return n_pois, n_robots, seed, out


def run_experiment(spec: ExperimentSpec) -> AggregateReport:
    """Run every (n_pois, n_robots) cell for every planner with paired seeds."""
    spec.validate()
    tasks = [
        (n_p, n_r, spec.seed_base + i)
        for n_p in spec.n_pois
        for n_r in spec.n_robots
        for i in range(spec.n_trials)
    ]
    if spec.parallelism > 1:
        with ProcessPoolExecutor(max_workers=spec.parallelism) as pool:
            results = list(
                pool.map(
                    _run_trial,
                    [spec] * len(tasks),
                    [t[0] for t in tasks],
                    [t[1] for t in tasks],
                    [t[2] for t in tasks],
                    chunksize=1,
                )
            )
    else:
        results = [_run_trial(spec, n_p, n_r, seed) for n_p, n_r, seed in tasks]
    results.sort(key=lambda r: (r[0], r[1], r[2]))

    cells: Dict[Tuple[str, int, int], CellStats] = {}
    curves: Dict[Tuple[str, int, int], Tuple[Tuple[int, tuple], ...]] = {}
    failures: List[Tuple[int, int, int, str, Tuple[str, ...]]] = []
    for n_p in spec.n_pois:
        for n_r in spec.n_robots:
            rows = [r for r in results if r[0] == n_p and r[1] == n_r]
            for planner in spec.planners:
                seeds = tuple(r[2] for r in rows)
                outs = [r[3][planner] for r in rows]
                costs = tuple(o.cost for o in outs)
                cells[(planner, n_p, n_r)] = CellStats(
                    planner=planner,
                    n_pois=n_p,
                    n_robots=n_r,
                    mean=float(statistics.fmean(costs)),
                    median=float(statistics.median(costs)),
                    std=float(statistics.stdev(costs)) if len(costs) > 1 else 0.0,
                    mean_distance=float(statistics.fmean(o.total_distance for o in outs)),
                    mean_time=float(statistics.fmean(o.total_time for o in outs)),
                    planning_wall_medians=tuple(o.planning_wall_median for o in outs),
                    seeds=seeds,
                    costs=costs,
                )
                curves[(planner, n_p, n_r)] = tuple((r[2], r[3][planner].curve) for r in rows)
                for r in rows:
                    o = r[3][planner]
                    if not o.replay_ok:
                        failures.append((n_p, n_r, r[2], planner, o.replay_reasons))

    improvements: Dict[Tuple[int, int, str], float] = {}
    if "model" in spec.planners:
        for n_p in spec.n_pois:
            for n_r in spec.n_robots:
                model_mean = cells[("model", n_p, n_r)].mean
                for planner in spec.planners:
                    if planner == "model":
                        continue
                    base_mean = cells[(planner, n_p, n_r)].mean
                    pct = 100.0 * (base_mean - model_mean) / base_mean if base_mean else 0.0
                    improvements[(n_p, n_r, planner)] = pct

    return AggregateReport(
        spec=spec,
        cells=cells,
        improvements=improvements,
        curves=curves,
        replay_failures=tuple(failures),
    )


# --- file outputs ------------------------------------------------------------


def _improvement_for_row(report: AggregateReport, planner: str, n_p: int, n_r: int) -> str:
    """pct_improvement column: model row shows gain over the better
    baseline; baseline rows show the model's gain over that baseline."""
    if "model" not in report.spec.planners:
        return ""
    baselines = [p for p in report.spec.planners if p != "model"]
    if not baselines:
        return ""
    if planner == "model":
        pct = min(report.improvements[(n_p, n_r, b)] for b in baselines)
    else:
        pct = report.improvements[(n_p, n_r, planner)]
    return repr(pct)


def emit_outputs(report: AggregateReport, out_dir: str) -> List[str]:
    """Write summary.csv, per-cell scatter CSVs, cost-curve files, stats.json.

    Deterministic: rerunning on the same report reproduces every file
    byte for byte.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    spec = report.spec

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w") as f:
        f.write("planner,n_pois,n_robots,mean,median,std,pct_improvement\n")
        for n_p in spec.n_pois:
            for n_r in spec.n_robots:
                for planner in spec.planners:
                    c = report.cells[(planner, n_p, n_r)]
                    f.write(
                        f"{planner},{n_p},{n_r},{c.mean!r},{c.median!r},{c.std!r},"
                        f"{_improvement_for_row(report, planner, n_p, n_r)}\n"
                    )
    written.append(summary_path)

    baselines = [p for p in spec.planners if p != "model"]
    scatter_paths = []
    if "model" in spec.planners and baselines:
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

    for (planner, n_p, n_r), rows in sorted(report.curves.items()):
        path = os.path.join(out_dir, f"curves_p{n_p}_r{n_r}_{planner}.jsonl")
        with open(path, "w") as f:
            for seed, curve in rows:
                f.write(json.dumps({"seed": seed, "curve": [list(pt) for pt in curve]}) + "\n")
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
                    "cost_rate": spec.planner_config.cost_rate,
                },
                "cells": [
                    {
                        "planner": c.planner,
                        "n_pois": c.n_pois,
                        "n_robots": c.n_robots,
                        "mean": c.mean,
                        "median": c.median,
                        "std": c.std,
                        "mean_distance": c.mean_distance,
                        "mean_time": c.mean_time,
                        "median_planning_wall": (
                            float(statistics.median(c.planning_wall_medians))
                            if c.planning_wall_medians
                            else 0.0
                        ),
                    }
                    for _, c in sorted(report.cells.items())
                ],
                "improvements": [
                    {"n_pois": k[0], "n_robots": k[1], "baseline": k[2], "pct": v}
                    for k, v in sorted(report.improvements.items())
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
