"""Command-line entry points: generate, fit, run, simulate.

Each command accepts only the values it reads (see `OPTIONS`), by flag
or through a JSON config file (--config path, keys named like the flags
with underscores); explicit flags override the file.  `run` takes comma
lists of PoI counts, robot counts and planners; every other command
takes one value of each.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from .estimator import fit_estimator, resolve_likelihoods, write_fitted
from .harness import ExperimentSpec, emit_outputs, run_experiment
from .planner import PlannerConfig
from .scenario import build_graph, generate_scenario, load_scenario, read_object, value, write_graph, write_scenario
from .simulator import MissionConfig, replay_check, run_mission, write_trace

# Flag defaults come from the dataclasses, so the command line always
# runs what ExperimentSpec() and PlannerConfig() describe.
_SPEC = ExperimentSpec()
_PLANNER = _SPEC.planner_config

COMMANDS = {
    "generate": "write scenario and graph JSON files",
    "fit": "fit damage-model parameters on generated scenarios",
    "run": "run a batch experiment and write summary files",
    "simulate": "run one mission and write its trace",
}
_ALL = tuple(COMMANDS)
_MISSION = ("run", "simulate")

# Every settable value, in --help order: its default, the commands that
# read it (and so accept it), and its argparse settings.  The list
# values (`_LISTS`) default, outside `run`, to their first entry.
OPTIONS: Dict[str, Tuple[object, Tuple[str, ...], Dict]] = {
    "n_pois": (_SPEC.n_pois, _ALL, {"help": "PoI count, or comma list for run"}),
    "n_robots": (_SPEC.n_robots, _MISSION, {"help": "robot count, or comma list for run"}),
    "n_trials": (_SPEC.n_trials, ("generate", "fit", "run"), {"type": int}),
    "seed": (_SPEC.seed_base, _ALL, {"type": int, "help": "base scenario seed"}),
    "planner": (_SPEC.planners, _MISSION, {"help": "model, optimistic, greedy (comma list for run)"}),
    "estimator": (_SPEC.estimator, _MISSION, {"help": "oracle, fitted:<path>, or external:<path>"}),
    "depth_cap": (_PLANNER.depth_cap, _MISSION, {"type": int}),
    "n_priority": (_PLANNER.n_priority, _MISSION, {"type": int}),
    "speed": (_SPEC.speed, _MISSION, {"type": float}),
    "out_dir": ("out", _ALL, {}),
    "parallelism": (_SPEC.parallelism, ("run",), {"type": int}),
    "scenario": (None, ("simulate",), {"help": "scenario JSON to load instead of generating"}),
}


# The values `run` takes as comma lists, with the type of one entry.
_LISTS = {"n_pois": int, "n_robots": int, "planner": str}


def _reads(command: str) -> Tuple[str, ...]:
    return tuple(key for key, (_, commands, _) in OPTIONS.items() if command in commands)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrsurvey",
        description="Multi-robot search-and-inspection planning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        # Usage errors found after parsing show this command's usage.
        p.set_defaults(command_parser=p)
        p.add_argument("--config", help="JSON file with flag values (flags override)")
        for key in _reads(command):
            p.add_argument("--" + key.replace("_", "-"), dest=key, **OPTIONS[key][2])
    return parser


def _entry(obj, key, kind, where: Optional[str]):
    """obj[key] as one value of kind.  Text (a flag, or a JSON string in
    a config file) converts the way the flag does; any other JSON value
    must already be of the kind (`scenario.value`)."""
    val = obj[key]
    return kind(val) if isinstance(val, str) else value(obj, key, kind, where)


def _option(obj, key: str, where: Optional[str]):
    """obj[key] as option key takes it; a list value is a tuple, given as
    comma-separated text, a JSON list of entries, or one entry."""
    kind = _LISTS.get(key) or OPTIONS[key][2].get("type", str)
    val = obj[key]
    if key not in _LISTS:
        return _entry(obj, key, kind, where)
    if isinstance(val, str):
        return tuple(kind(x.strip()) for x in val.split(",") if x.strip())
    if isinstance(val, list):
        return tuple(_entry(val, i, kind, where) for i in range(len(val)))
    return (_entry(obj, key, kind, where),)


def _effective(args: argparse.Namespace) -> Dict:
    """The command's values: defaults, then the config file, then flags.

    Every given value is converted by `_option`.  `run` gets a tuple for
    each list value; every other command gets the one entry.  A config
    file that cannot be read as a JSON object, a key the command does
    not read, a value that does not convert, and a list of other than
    one entry outside `run` are usage errors of the command, raised
    before it writes anything; a config file's are named by its path.
    """
    command, parser = args.command, args.command_parser
    reads = _reads(command)
    eff = {key: OPTIONS[key][0] for key in reads}
    if command != "run":
        eff.update((key, eff[key][0]) for key in _LISTS if key in eff)
    # Where each given value is read from: the config file, unless a flag
    # overrides it.
    given = {}
    if args.config:
        where = f"--config {args.config}"
        with _usage_errors(parser):
            config = read_object(args.config, where)
        for key in config:
            if key not in reads:
                parser.error(f"unknown config key {key!r} for {command}")
            given[key] = (config, where)
    flags = vars(args)
    given.update((key, (flags, None)) for key in reads if flags[key] is not None)
    for key, (obj, where) in given.items():
        try:
            eff[key] = _option(obj, key, where)
        except ValueError:
            parser.error(f"{where + ': ' if where else ''}invalid {key} value: {obj[key]!r}")
        if key in _LISTS and command != "run":
            if len(eff[key]) != 1:
                parser.error(f"{command} takes one {key} value, got {obj[key]!r}")
            eff[key] = eff[key][0]
    return eff


def _planner_config(eff: Dict) -> PlannerConfig:
    return dataclasses.replace(_PLANNER, depth_cap=eff["depth_cap"], n_priority=eff["n_priority"])


def _experiment_spec(eff: Dict) -> ExperimentSpec:
    return dataclasses.replace(
        _SPEC,
        n_trials=eff["n_trials"],
        n_pois=eff["n_pois"],
        n_robots=eff["n_robots"],
        seed_base=eff["seed"],
        planners=eff["planner"],
        estimator=eff["estimator"],
        planner_config=_planner_config(eff),
        speed=eff["speed"],
        parallelism=eff["parallelism"],
    )


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Make a ValueError, OSError or KeyError raised while a command's
    inputs are built and checked a usage error of the command.  Errors
    raised once the command runs (inside a mission, say) keep their
    traceback."""
    try:
        yield
    except KeyError as exc:
        parser.error(str(exc.args[0]))
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _check_counts(parser: argparse.ArgumentParser, eff: Dict, **floors: int) -> None:
    """A count or seed below its floor is a usage error, raised before
    any world is built."""
    for key, floor in floors.items():
        if eff[key] < floor:
            parser.error(f"{key} must be >= {floor}, got {eff[key]}")


def _cmd_generate(eff: Dict, parser: argparse.ArgumentParser) -> int:
    _check_counts(parser, eff, n_trials=0, n_pois=0, seed=0)
    out_dir = eff["out_dir"]
    for i in range(eff["n_trials"]):
        seed = eff["seed"] + i
        scenario = generate_scenario(seed, eff["n_pois"])
        os.makedirs(out_dir, exist_ok=True)
        write_scenario(scenario, os.path.join(out_dir, f"scenario_{seed:06d}.json"))
        write_graph(build_graph(scenario), os.path.join(out_dir, f"graph_{seed:06d}.json"))
    print(f"wrote {eff['n_trials']} scenario/graph pairs to {out_dir}")
    return 0


def _cmd_fit(eff: Dict, parser: argparse.ArgumentParser) -> int:
    # The fit needs at least one PoI to learn from.
    _check_counts(parser, eff, n_trials=1, n_pois=1, seed=0)
    # A generator: the fit reads one world at a time and keeps none.
    seed, n_pois = eff["seed"], eff["n_pois"]
    params = fit_estimator(generate_scenario(seed + i, n_pois) for i in range(eff["n_trials"]))
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


def _cmd_run(eff: Dict, parser: argparse.ArgumentParser) -> int:
    with _usage_errors(parser):
        spec = _experiment_spec(eff)
        # Every world resolves its likelihoods the same way, so an unknown
        # choice or a missing or malformed file fails here, on the first.
        resolve_likelihoods(generate_scenario(spec.seed_base, spec.n_pois[0]), spec.estimator)
    report = run_experiment(spec)
    written = emit_outputs(report, eff["out_dir"])
    for (planner, n_p, n_r), c in report.cells.items():
        print(
            f"{planner:>10s} pois={n_p:<3d} robots={n_r:<2d} "
            f"mean={c.mean:10.2f} median={c.median:10.2f} std={c.std:9.2f}"
        )
    failures = report.replay_failures
    if failures:
        print(f"warning: {len(failures)} trace(s) failed replay validation", file=sys.stderr)
    print(f"wrote {len(written)} files to {eff['out_dir']}")
    return 1 if failures else 0


def _cmd_simulate(eff: Dict, parser: argparse.ArgumentParser) -> int:
    planner = eff["planner"]
    with _usage_errors(parser):
        if eff["scenario"]:
            scenario = load_scenario(eff["scenario"])
        else:
            scenario = generate_scenario(eff["seed"], eff["n_pois"])
        config = MissionConfig(
            planner=planner,
            planner_config=_planner_config(eff),
            estimator=eff["estimator"],
            n_robots=eff["n_robots"],
            speed=eff["speed"],
            seed=scenario.seed,
        )
        likelihoods = resolve_likelihoods(scenario, config.estimator)
    trace = run_mission(scenario, config, likelihoods)
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


_HANDLERS = {"generate": _cmd_generate, "fit": _cmd_fit, "run": _cmd_run, "simulate": _cmd_simulate}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.command_parser.error("unrecognized arguments: " + " ".join(unknown))
    return _HANDLERS[args.command](_effective(args), args.command_parser)


if __name__ == "__main__":
    sys.exit(main())
