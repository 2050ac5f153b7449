"""Command-line entry points: generate, fit, run, simulate.

Every flag can also be supplied through a JSON config file
(--config path, keys named like the flags with underscores); explicit
flags override the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from .estimator import fit_estimator, write_fitted
from .harness import ExperimentSpec, emit_outputs, run_experiment
from .planner import PlannerConfig
from .scenario import build_graph, generate_scenario, load_scenario, write_graph, write_scenario
from .simulator import MissionConfig, replay_check, run_mission, write_trace

# Flag defaults come from the dataclasses, so the command line always
# runs what ExperimentSpec() and PlannerConfig() describe.
_SPEC = ExperimentSpec()
_PLANNER = _SPEC.planner_config

DEFAULTS = {
    "n_pois": _SPEC.n_pois,
    "n_robots": _SPEC.n_robots,
    "n_trials": _SPEC.n_trials,
    "seed": _SPEC.seed_base,
    "planner": _SPEC.planners,
    "estimator": _SPEC.estimator,
    "depth_cap": _PLANNER.depth_cap,
    "n_priority": _PLANNER.n_priority,
    "cost_rate": _PLANNER.cost_rate,
    "speed": _SPEC.speed,
    "out_dir": "out",
    "parallelism": _SPEC.parallelism,
    "scenario": None,
}


def _as_int_tuple(v) -> Tuple[int, ...]:
    if isinstance(v, int):
        return (v,)
    if isinstance(v, (list, tuple)):
        return tuple(int(x) for x in v)
    return tuple(int(x) for x in str(v).split(",") if x.strip())


def _as_str_tuple(v) -> Tuple[str, ...]:
    if isinstance(v, str):
        return tuple(x.strip() for x in v.split(",") if x.strip())
    return tuple(str(x) for x in v)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrsurvey",
        description="Multi-robot search-and-inspection planning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with flag values (flags override)")
        p.add_argument("--n-pois", dest="n_pois", help="PoI count, or comma list for run")
        p.add_argument("--n-robots", dest="n_robots", help="robot count, or comma list for run")
        p.add_argument("--n-trials", dest="n_trials", type=int)
        p.add_argument("--seed", type=int, help="base scenario seed")
        p.add_argument("--planner", help="model, optimistic, greedy (comma list for run)")
        p.add_argument("--estimator", help="oracle, fitted:<path>, or external:<path>")
        p.add_argument("--depth-cap", dest="depth_cap", type=int)
        p.add_argument("--n-priority", dest="n_priority", type=int)
        p.add_argument("--cost-rate", dest="cost_rate", type=float)
        p.add_argument("--speed", type=float)
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--parallelism", type=int)
        return p

    add("generate", "write scenario and graph JSON files")
    add("fit", "fit damage-model parameters on generated scenarios")
    add("run", "run a batch experiment and write summary files")
    p_sim = add("simulate", "run one mission and write its trace")
    p_sim.add_argument("--scenario", help="scenario JSON to load instead of generating")
    return parser


def _effective(args: argparse.Namespace) -> Dict:
    file_cfg: Dict = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            file_cfg = json.load(f)
    eff = dict(DEFAULTS)
    for key, val in file_cfg.items():
        if key not in DEFAULTS:
            raise SystemExit(f"unknown config key {key!r}")
        eff[key] = val
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            eff[key] = val
    eff["n_pois"] = _as_int_tuple(eff["n_pois"])
    eff["n_robots"] = _as_int_tuple(eff["n_robots"])
    eff["planner"] = _as_str_tuple(eff["planner"])
    return eff


def _planner_config(eff: Dict) -> PlannerConfig:
    n_priority = int(eff["n_priority"])
    return dataclasses.replace(
        _PLANNER,
        depth_cap=int(eff["depth_cap"]),
        n_priority=n_priority,
        n_top_prob=min(_PLANNER.n_top_prob, n_priority),
        cost_rate=float(eff["cost_rate"]),
    )


def _experiment_spec(eff: Dict) -> ExperimentSpec:
    return dataclasses.replace(
        _SPEC,
        n_trials=int(eff["n_trials"]),
        n_pois=eff["n_pois"],
        n_robots=eff["n_robots"],
        seed_base=int(eff["seed"]),
        planners=eff["planner"],
        estimator=eff["estimator"],
        planner_config=_planner_config(eff),
        speed=float(eff["speed"]),
        parallelism=int(eff["parallelism"]),
    )


def _cmd_generate(eff: Dict) -> int:
    out_dir = eff["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    n = eff["n_pois"][0]
    for i in range(int(eff["n_trials"])):
        seed = int(eff["seed"]) + i
        scenario = generate_scenario(seed, n)
        write_scenario(scenario, os.path.join(out_dir, f"scenario_{seed:06d}.json"))
        write_graph(build_graph(scenario), os.path.join(out_dir, f"graph_{seed:06d}.json"))
    print(f"wrote {eff['n_trials']} scenario/graph pairs to {out_dir}")
    return 0


def _cmd_fit(eff: Dict) -> int:
    scenarios = [
        generate_scenario(int(eff["seed"]) + i, eff["n_pois"][0])
        for i in range(int(eff["n_trials"]))
    ]
    params = fit_estimator(scenarios)
    out_dir = eff["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "fitted_params.json")
    write_fitted(params, path)
    if not params.converged:
        print("warning: fit hit the sweep cap without converging", file=sys.stderr)
    print(
        f"sigma_hat={params.sigma_hat:.3f} "
        + " ".join(f"{k}={v:.4f}" for k, v in params.susceptibility_hat.items())
        + f" ll={params.train_log_likelihood:.3f} -> {path}"
    )
    return 0


def _cmd_run(eff: Dict) -> int:
    spec = _experiment_spec(eff)
    report = run_experiment(spec)
    written = emit_outputs(report, eff["out_dir"])
    for n_p in spec.n_pois:
        for n_r in spec.n_robots:
            for planner in spec.planners:
                c = report.cells[(planner, n_p, n_r)]
                print(
                    f"{planner:>10s} pois={n_p:<3d} robots={n_r:<2d} "
                    f"mean={c.mean:10.2f} median={c.median:10.2f} std={c.std:9.2f}"
                )
    if report.replay_failures:
        print(f"warning: {len(report.replay_failures)} trace(s) failed replay validation", file=sys.stderr)
    print(f"wrote {len(written)} files to {eff['out_dir']}")
    return 0


def _cmd_simulate(eff: Dict) -> int:
    if eff.get("scenario"):
        scenario = load_scenario(eff["scenario"])
    else:
        scenario = generate_scenario(int(eff["seed"]), eff["n_pois"][0])
    planner = eff["planner"][0]
    config = MissionConfig(
        planner=planner,
        planner_config=_planner_config(eff),
        estimator=eff["estimator"],
        n_robots=eff["n_robots"][0],
        speed=float(eff["speed"]),
        seed=scenario.seed,
    )
    trace = run_mission(scenario, config)
    out_dir = eff["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{planner}_{scenario.seed:06d}.jsonl")
    write_trace(trace, path)
    result = replay_check(trace, scenario)
    print(
        f"planner={planner} seed={scenario.seed} time={trace.total_time:.1f}s "
        f"distance={trace.total_distance:.1f}m realized_cost={trace.total_realized_cost:.2f} "
        f"replay={'ok' if result.ok else 'FAILED'}"
    )
    for reason in result.reasons:
        print(f"  replay: {reason}", file=sys.stderr)
    print(f"trace -> {path}")
    return 0 if result.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    eff = _effective(args)
    if args.command == "generate":
        return _cmd_generate(eff)
    if args.command == "fit":
        return _cmd_fit(eff)
    if args.command == "run":
        return _cmd_run(eff)
    if args.command == "simulate":
        return _cmd_simulate(eff)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
