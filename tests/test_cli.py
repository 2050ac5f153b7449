"""Tests for the command-line entry points."""

import copy
import functools
import gc
import json
import math
import operator
import random
import re
import shutil
import weakref

import pytest

from mrsurvey import cli, harness
from mrsurvey.harness import ExperimentSpec
from mrsurvey.planner import PlannerConfig
from mrsurvey.scenario import generate_scenario, load_scenario, scenario_to_dict
from mrsurvey.simulator import MissionConfig, ReplayResult, load_trace


class TestGenerate:
    def test_writes_scenario_and_graph_pairs(self, tmp_path):
        rc = cli.main(["generate", "--n-trials", "2", "--seed", "5",
                       "--n-pois", "4", "--out-dir", str(tmp_path)])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["graph_000005.json", "graph_000006.json",
                         "scenario_000005.json", "scenario_000006.json"]
        scen = load_scenario(str(tmp_path / "scenario_000005.json"))
        assert scen.seed == 5
        assert len(scen.pois) == 4
        graph = json.loads((tmp_path / "graph_000005.json").read_text())
        assert set(graph) == {"nodes", "edges"}


class TestFit:
    def test_writes_fitted_params(self, tmp_path):
        rc = cli.main(["fit", "--n-trials", "40", "--n-pois", "8", "--seed", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        raw = json.loads((tmp_path / "fitted_params.json").read_text())
        assert raw["sigma_hat"] > 0
        assert set(raw["susceptibility_hat"]) == {"forest", "field", "building"}

    def test_holds_at_most_two_worlds_at_a_time(self, tmp_path, monkeypatch):
        made, alive_at_call = [], []
        generate = cli.generate_scenario

        def tracked(seed, n_pois, params=None):
            gc.collect()
            alive_at_call.append(sum(ref() is not None for ref in made))
            world = generate(seed, n_pois, params)
            made.append(weakref.ref(world))
            return world

        monkeypatch.setattr(cli, "generate_scenario", tracked)
        rc = cli.main(["fit", "--n-trials", "30", "--n-pois", "12", "--seed", "5",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len(made) == 30
        assert max(alive_at_call) <= 2


class TestRun:
    def test_experiment_outputs(self, tmp_path, capsys):
        rc = cli.main(["run", "--n-trials", "2", "--n-pois", "5", "--n-robots", "1",
                       "--seed", "11", "--depth-cap", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "summary.csv" in names
        assert "scatter_p5_r1.csv" in names
        out = capsys.readouterr().out
        assert "model" in out and "optimistic" in out and "greedy" in out

    def test_comma_lists_expand_the_grid(self, tmp_path):
        rc = cli.main(["run", "--n-trials", "1", "--n-pois", "4", "--n-robots", "1,2",
                       "--planner", "optimistic,greedy", "--seed", "2",
                       "--depth-cap", "3", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        # header plus 2 planners x 2 robot counts
        assert len(lines) == 5

    def test_replay_failure_exits_1_after_writing_every_file(self, tmp_path, capsys, monkeypatch):
        # One mission (greedy, seed 12) fails replay; the run still writes
        # its files and warns, but exits 1, as simulate does.
        replay, run, reports = harness.replay_check, cli.run_experiment, []

        def failing(trace, world):
            if trace.planner == "greedy" and world.seed == 12:
                return ReplayResult(False, ["reveal of PoI 0 is too early"])
            return replay(trace, world)

        def kept(spec):
            reports.append(run(spec))
            return reports[-1]

        monkeypatch.setattr(harness, "replay_check", failing)
        monkeypatch.setattr(cli, "run_experiment", kept)
        rc = cli.main(["run", "--n-trials", "2", "--n-pois", "4", "--n-robots", "1",
                       "--planner", "optimistic,greedy", "--seed", "11", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "warning: 1 trace(s) failed replay validation" in capsys.readouterr().err
        assert reports[0].replay_failures == ((4, 1, 12, "greedy", ("reveal of PoI 0 is too early",)),)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curves_p4_r1_greedy.jsonl", "curves_p4_r1_optimistic.jsonl", "stats.json", "summary.csv"]
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["replay_failures"] == [
            {"n_pois": 4, "n_robots": 1, "seed": 12, "planner": "greedy", "reasons": ["reveal of PoI 0 is too early"]}]


class TestSimulate:
    def test_mission_from_scenario_file(self, tmp_path):
        gen_dir = tmp_path / "scenarios"
        cli.main(["generate", "--n-trials", "1", "--seed", "9", "--n-pois", "5",
                  "--out-dir", str(gen_dir)])
        out_dir = tmp_path / "out"
        rc = cli.main(["simulate", "--scenario", str(gen_dir / "scenario_000009.json"),
                       "--planner", "optimistic", "--out-dir", str(out_dir)])
        assert rc == 0
        trace = load_trace(str(out_dir / "trace_optimistic_000009.jsonl"))
        assert trace.scenario_seed == 9
        assert len(trace.reveal_log) == 5

    def test_mission_from_seed(self, tmp_path):
        rc = cli.main(["simulate", "--seed", "13", "--n-pois", "4", "--n-robots", "2",
                       "--planner", "model", "--depth-cap", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "trace_model_000013.jsonl").exists()


def _assert_usage_error(capsys, command, args, message):
    """command with args exits 2, showing its usage and then message."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mrsurvey {command} ")
    assert message in err


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_pois": 6, "n_trials": 1, "seed": 21}))
        out_a = tmp_path / "a"
        rc = cli.main(["generate", "--config", str(cfg), "--out-dir", str(out_a)])
        assert rc == 0
        assert len(load_scenario(str(out_a / "scenario_000021.json")).pois) == 6
        out_b = tmp_path / "b"
        rc = cli.main(["generate", "--config", str(cfg), "--n-pois", "3",
                       "--out-dir", str(out_b)])
        assert rc == 0
        assert len(load_scenario(str(out_b / "scenario_000021.json")).pois) == 3

    def test_no_flags_run_the_dataclass_defaults(self):
        eff = cli._effective(cli._build_parser().parse_args(["run"]))
        assert cli._planner_config(eff) == PlannerConfig()
        assert cli._experiment_spec(eff) == ExperimentSpec()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read --config"),
        ('{"n_trials": 1, "n_po', "cannot read --config"),
        ('[["n_trials", 1]]', "does not hold a JSON object"),
    ], ids=["missing", "truncated", "list"])
    def test_bad_config_file_is_a_usage_error(self, content, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "out"
        _assert_usage_error(capsys, "fit", ["--config", str(cfg), "--out-dir", str(out)], message)
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            cli.main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path)])


# The flags each command accepts: those of the values it reads.
FLAGS = {
    "generate": {"--config", "--seed", "--n-trials", "--n-pois", "--out-dir"},
    "fit": {"--config", "--seed", "--n-trials", "--n-pois", "--out-dir"},
    "run": {"--config", "--seed", "--n-trials", "--n-pois", "--n-robots", "--planner",
            "--estimator", "--depth-cap", "--n-priority", "--speed", "--out-dir", "--parallelism"},
    "simulate": {"--config", "--seed", "--n-pois", "--n-robots", "--planner",
                 "--estimator", "--depth-cap", "--n-priority", "--speed", "--out-dir", "--scenario"},
}

# Values that keep each command small, so a case that is wrongly
# accepted still finishes quickly.
SMALL = {
    "generate": {"n_trials": 1, "n_pois": 3},
    "fit": {"n_trials": 5, "n_pois": 4},
    "run": {"n_trials": 1, "n_pois": 3, "n_robots": 1, "planner": "greedy"},
    "simulate": {"n_pois": 3, "planner": "greedy"},
}


def _small_flags(command):
    return [x for key, val in SMALL[command].items() for x in ("--" + key.replace("_", "-"), str(val))]


class TestEachCommandReadsItsOwnValues:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == FLAGS[command]

    @pytest.mark.parametrize("command, flag", [
        ("fit", ["--parallelism", "2"]),
        ("generate", ["--planner", "model"]),
        ("simulate", ["--n-trials", "3"]),
        ("fit", ["--speed", "2"]),
    ])
    def test_flag_not_read_is_rejected(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *_small_flags(command), *flag, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, key, val", [
        ("fit", "parallelism", 2),
        ("generate", "planner", "model"),
        ("simulate", "n_trials", 3),
        ("run", "scenario", "world.json"),
    ])
    def test_config_key_not_read_is_rejected(self, command, key, val, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL[command], key: val}))
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, ["--config", str(cfg), "--out-dir", str(out)],
                            f"unknown config key {key!r} for {command}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("fit", ["--n-pois", "12,36"]),
        ("generate", ["--n-pois", "4,5"]),
        ("simulate", ["--n-robots", "1,3"]),
        ("simulate", ["--planner", "greedy,optimistic"]),
        ("simulate", ["--n-pois", ","]),
    ])
    def test_single_value_command_rejects_a_list(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), *flag, "--out-dir", str(out)],
                            f"{command} takes one {flag[0][2:].replace('-', '_')} value")
        assert not out.exists()

    def test_single_value_command_rejects_a_list_in_its_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trials": 5, "n_pois": [12, 36]}))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "fit", ["--config", str(cfg), "--out-dir", str(out)],
                            "fit takes one n_pois value")
        assert not out.exists()

    def test_single_value_defaults_are_the_first_entries(self):
        parse = cli._build_parser().parse_args
        spec, mission = ExperimentSpec(), MissionConfig()
        sim = cli._effective(parse(["simulate"]))
        assert (sim["n_pois"], sim["n_robots"], sim["planner"]) == (spec.n_pois[0], mission.n_robots, mission.planner)
        for command in ("generate", "fit"):
            eff = cli._effective(parse([command]))
            assert (eff["n_pois"], eff["n_trials"]) == (spec.n_pois[0], spec.n_trials)

    @pytest.mark.parametrize("command, flag", [
        ("fit", ["--parallelism", "2"]),
        ("simulate", ["--n-trials", "3"]),
    ])
    def test_flag_not_read_shows_the_command_usage(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *flag, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mrsurvey {command} ")
        assert f"mrsurvey {command}: error: unrecognized arguments: " + " ".join(flag) in err


class TestMalformedValues:
    """A value that does not convert to its option's type is a usage
    error of the command given it, raised before anything is written."""

    @pytest.mark.parametrize("command, flag", [
        ("fit", ["--n-pois", "abc"]),
        ("generate", ["--n-pois", "4,x"]),
        ("run", ["--n-robots", "1,three"]),
        ("simulate", ["--n-robots", "2.5"]),
    ])
    def test_flag(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *_small_flags(command), *flag, "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mrsurvey {command} ")
        assert f"invalid {flag[0][2:].replace('-', '_')} value: {flag[1]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, val", [
        ("generate", "n_trials", "many"),
        ("fit", "seed", [3]),
        ("run", "depth_cap", "deep"),
        ("run", "n_pois", {"n": 3}),
        ("simulate", "speed", "fast"),
        ("simulate", "planner", 7),
    ])
    def test_config_value(self, command, key, val, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL[command], key: val}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out-dir", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mrsurvey {command} ")
        assert f"invalid {key} value: {val!r}" in err
        assert not out.exists()

    def test_config_values_take_their_option_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trials": "2", "n_pois": "3,4", "n_robots": [1, "2"], "speed": 2,
                                   "planner": ["greedy"], "depth_cap": "3"}))
        parse = cli._build_parser().parse_args
        eff = cli._effective(parse(["run", "--config", str(cfg)]))
        assert (eff["n_trials"], eff["n_pois"], eff["n_robots"], eff["planner"]) == (2, (3, 4), (1, 2), ("greedy",))
        assert type(eff["speed"]) is float and eff["speed"] == 2.0
        spec = cli._experiment_spec(eff)
        assert spec.planner_config == PlannerConfig(depth_cap=3)


class TestBadInputs:
    """Inputs that convert but that the command cannot use are usage
    errors of the command, raised before it writes anything; a fault
    once the command runs keeps its traceback."""

    @pytest.mark.parametrize("command, flag, message", [
        ("run", ["--planner", "foo"], "unknown planner 'foo'"),
        ("run", ["--n-pois", "3,3"], "must not repeat an entry"),
        ("run", ["--n-robots", "0"], "n_robots must be >= 1"),
        ("simulate", ["--n-robots", "0"], "n_robots must be >= 1"),
        ("run", ["--speed", "-1"], "speed must be finite and > 0"),
        ("simulate", ["--speed", "-1"], "speed must be finite and > 0"),
        ("run", ["--depth-cap", "0"], "depth_cap must be >= 1"),
        ("simulate", ["--depth-cap", "0"], "depth_cap must be >= 1"),
        ("generate", ["--n-pois", "-1"], "n_pois must be >= 0, got -1"),
        ("run", ["--estimator", "bogus"], "unknown estimator choice 'bogus'"),
        ("simulate", ["--estimator", "bogus"], "unknown estimator choice 'bogus'"),
        ("run", ["--n-pois", "-1"], "n_pois must be >= 0"),
        ("fit", ["--n-pois", "-1"], "n_pois must be >= 1, got -1"),
        ("fit", ["--n-pois", "0"], "n_pois must be >= 1, got 0"),
        ("fit", ["--n-trials", "0"], "n_trials must be >= 1, got 0"),
        ("generate", ["--n-trials", "-1"], "n_trials must be >= 0, got -1"),
    ])
    def test_flag(self, command, flag, message, tmp_path, capsys):
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), *flag, "--out-dir", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("run", "--estimator"),
        ("simulate", "--estimator"),
        ("simulate", "--scenario"),
    ])
    def test_missing_file(self, command, flag, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        value = f"fitted:{missing}" if flag == "--estimator" else str(missing)
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), flag, value, "--out-dir", str(out)],
                            f"No such file or directory: {str(missing)!r}")
        assert not out.exists()

    def test_counts_are_checked_before_any_world_is_built(self, tmp_path, capsys, monkeypatch):
        def world(*args):
            raise AssertionError("a world was built")

        monkeypatch.setattr(cli, "generate_scenario", world)
        out = tmp_path / "out"
        for command, flag in (("fit", "--n-pois"), ("fit", "--n-trials"), ("generate", "--n-trials")):
            _assert_usage_error(capsys, command, [*_small_flags(command), flag, "-1", "--out-dir", str(out)],
                                f"{flag[2:].replace('-', '_')} must be >= ")
            assert not out.exists()

    def test_no_trials_generates_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["generate", "--n-trials", "0", "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 0 scenario/graph pairs to {out}\n"
        assert not out.exists()

    def test_missing_external_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out"
        _assert_usage_error(capsys, "run", [*_small_flags("run"), "--estimator", f"external:{missing}",
                                            "--out-dir", str(out)],
                            f"No such file or directory: {str(missing)!r}")
        assert not out.exists()

    @pytest.mark.parametrize("kind, content, message", [
        ("fitted", "{", "Expecting property name"),
        ("fitted", "[1, 2]", "does not hold a JSON object"),
        ("fitted", '{"sigma_hat": 60.0}', "lacks one of sigma_hat, susceptibility_hat and train_log_likelihood"),
        ("external", "[1, 2]", "does not hold a JSON object"),
        ("external", '{"0": 0.5}', "external likelihoods missing PoI ids [1, 2]"),
        ("external", '{"7": {"0": 0.5}}', "external likelihood file has no entry for seed 0"),
    ])
    def test_malformed_estimator_file(self, kind, content, message, tmp_path, capsys):
        bad = tmp_path / "likelihoods.json"
        bad.write_text(content)
        out = tmp_path / "out"
        _assert_usage_error(capsys, "run", [*_small_flags("run"), "--estimator", f"{kind}:{bad}",
                                            "--out-dir", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("kind, content, message", [
        ("fitted", '{"sigma_hat": 60, "susceptibility_hat": 5, "train_log_likelihood": 0}',
         "susceptibility_hat is not a JSON object"),
        ("fitted", '{"sigma_hat": [60], "susceptibility_hat": {}, "train_log_likelihood": 0}',
         "[60] is not a number"),
        ("external", '{"0": [0.5]}', "[0.5] is not a number"),
    ], ids=["fitted_susceptibility", "fitted_sigma", "external_value"])
    def test_wrong_typed_estimator_file(self, command, kind, content, message, tmp_path, capsys):
        bad = tmp_path / "likelihoods.json"
        bad.write_text(content)
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), "--estimator", f"{kind}:{bad}",
                                              "--out-dir", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        ({"combine_rule": "min"}, "unknown combine_rule 'min'"),
        ({"susceptibility": {"forest": 3.0, "field": 0.8, "building": 0.2}},
         "susceptibility['forest'] must be in [0, 1], got 3.0"),
        ({"sigma": -5}, "sigma must be finite and positive, got -5.0"),
        ({"map_radius": 0}, "map_radius must be finite and positive, got 0.0"),
        ({"n_wind_pockets": -1}, "n_wind_pockets must be >= 0, got -1"),
    ], ids=["combine_rule", "susceptibility", "sigma", "map_radius", "n_wind_pockets"])
    def test_scenario_file_with_bad_params(self, edit, message, tmp_path, capsys):
        world = scenario_to_dict(generate_scenario(9, 5))
        world["params"].update(edit)
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "simulate", ["--scenario", str(path), "--planner", "greedy",
                                                 "--out-dir", str(out)], message)
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("id", 1, "pois: duplicate PoI ids [1]"),
        ("inspect_time", -5.0, "pois: inspect times of PoI ids [2] must be finite and >= 0"),
    ], ids=["repeated_id", "negative_inspect_time"])
    def test_scenario_file_with_unusable_pois(self, key, value, message, tmp_path, capsys):
        world = scenario_to_dict(generate_scenario(9, 5))
        world["pois"][2][key] = value
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "simulate", ["--scenario", str(path), "--planner", "greedy",
                                                 "--out-dir", str(out)], f"{path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("at, key, value, message", [
        ((), "pois", 5, "pois is not a JSON list"),
        (("params",), "susceptibility", 5, "params: susceptibility is not a JSON object"),
        (("pois", 2), "x", [1], "pois[2]: x = [1] is not a number"),
        (("pois", 2), "x", math.nan, "pois[2]: x = nan is not a number"),
        (("pois", 2), "y", 10**400, f"pois[2]: y = {10**400} is not a number"),
        ((), "start", [math.inf, 0], "start[0] = inf is not a number"),
        ((), "start", [0], "start[1] is missing"),
        ((), "params", [], "params is not a JSON object"),
        ((), "wind_pockets", None, "wind_pockets is not a JSON list"),
        (("pois", 2), "damaged", "no", "pois[2]: damaged = 'no' is not true or false"),
        (("params",), "n_wind_pockets", 2.7, "params: n_wind_pockets = 2.7 is not an integer"),
        (("pois", 2), "id", 1.5, "pois[2]: id = 1.5 is not an integer"),
        ((), "seed", ..., "seed is missing"),
        (("params",), "n_wind_pockets", 3, "params: n_wind_pockets = 3, but wind_pockets holds 2"),
        ((), "wind_pockets", [], "params: n_wind_pockets = 2, but wind_pockets holds 0"),
        (("params",), "susceptibility", {}, "params: susceptibility: forest is missing"),
        (("pois", 2), "class", "house", "pois[2]: class = 'house' is not one of forest, field, building"),
    ], ids=["pois", "susceptibility", "x_list", "x_nan", "y_beyond_float", "start_inf", "start_short", "params",
            "wind_pockets", "damaged", "n_wind_pockets", "id", "seed_missing", "pocket_count", "pockets_emptied",
            "susceptibility_empty", "unknown_class"])
    def test_scenario_file_with_wrong_typed_values(self, at, key, value, message, tmp_path, capsys):
        world = scenario_to_dict(generate_scenario(9, 5))
        obj = functools.reduce(operator.getitem, at, world)
        if value is ...:
            del obj[key]
        else:
            obj[key] = value
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "simulate", ["--scenario", str(path), "--planner", "greedy",
                                                 "--out-dir", str(out)], f"{path}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("at, key, value, message", [
        (("params",), "susceptibility", {}, "params: susceptibility: forest is missing"),
        (("pois", 2), "class", "house", "pois[2]: class = 'house' is not one of forest, field, building"),
    ], ids=["susceptibility_empty", "unknown_class"])
    def test_scenario_file_checked_under_external_likelihoods(self, at, key, value, message, tmp_path, capsys):
        # External likelihoods never read a PoI's class or susceptibility,
        # so the scenario file's own check is the one that stops it.
        world = scenario_to_dict(generate_scenario(9, 5))
        functools.reduce(operator.getitem, at, world)[key] = value
        path, likelihoods = tmp_path / "world.json", tmp_path / "likelihoods.json"
        path.write_text(json.dumps(world))
        likelihoods.write_text(json.dumps({str(pid): 0.5 for pid in range(5)}))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "simulate", ["--scenario", str(path), "--planner", "greedy",
                                                 "--estimator", f"external:{likelihoods}", "--out-dir", str(out)],
                            f"{path}: {message}")
        assert not out.exists()

    def test_scenario_file_holding_a_list(self, tmp_path, capsys):
        path = tmp_path / "world.json"
        path.write_text(json.dumps([scenario_to_dict(generate_scenario(9, 5))]))
        out = tmp_path / "out"
        _assert_usage_error(capsys, "simulate", ["--scenario", str(path), "--out-dir", str(out)],
                            f"{path} does not hold a JSON object")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("kind, content, message", [
        ("fitted", {"sigma_hat": True, "susceptibility_hat": {"forest": 1.0, "field": 0.8, "building": 0.2},
                    "train_log_likelihood": 0.0}, "sigma_hat = True is not a number"),
        ("external", {"0": 0.5, "1": True, "2": 0.5}, "1 = True is not a number"),
        ("external", {"0": 0.5, "1": 0.5, "2": 0.5, "a": 0.5}, "keys ['a'] are not PoI ids"),
    ], ids=["fitted_bool", "external_bool", "external_key"])
    def test_estimator_file_value_named_with_its_file(self, command, kind, content, message, tmp_path, capsys):
        bad = tmp_path / "likelihoods.json"
        bad.write_text(json.dumps(content))
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), "--estimator", f"{kind}:{bad}",
                                              "--out-dir", str(out)], f"{bad}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, val", [
        ("simulate", "depth_cap", 2.7),
        ("generate", "seed", 2.9),
        ("generate", "n_pois", True),
        ("simulate", "n_pois", True),
    ])
    def test_config_value_of_the_wrong_kind(self, command, key, val, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL[command], key: val}))
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, ["--config", str(cfg), "--out-dir", str(out)],
                            f"--config {cfg}: invalid {key} value: {val!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fit"])
    def test_negative_seed(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        _assert_usage_error(capsys, command, [*_small_flags(command), "--seed", "-1", "--out-dir", str(out)],
                            "seed must be >= 0, got -1")
        assert not out.exists()

    def test_external_file_missing_a_later_seed_is_a_fault_of_the_run(self, tmp_path):
        # The first world's likelihoods are checked up front; a seed the
        # file lacks for a later world fails once the run is under way.
        ext = tmp_path / "ext.json"
        ext.write_text(json.dumps({"0": {str(i): 0.5 for i in range(3)}}))
        out = tmp_path / "out"
        with pytest.raises(KeyError, match="no entry for seed 1"):
            cli.main(["run", "--n-trials", "2", "--n-pois", "3", "--n-robots", "1", "--planner", "greedy",
                      "--estimator", f"external:{ext}", "--out-dir", str(out)])

    def test_fault_in_a_mission_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def fault(*args):
            raise ValueError("fault inside the mission")

        monkeypatch.setattr(cli, "run_mission", fault)
        with pytest.raises(ValueError, match="fault inside the mission"):
            cli.main(["simulate", *_small_flags("simulate"), "--out-dir", str(tmp_path / "out")])


def _paths(doc, at=()):
    """The path of every value inside doc (a JSON object or list)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield at + (key,)
        yield from _paths(val, at + (key,))


# Replacements of another JSON kind than the value they replace.
_OTHER_KINDS = ["x", True, None, 1.5, 7, [1], {"k": 1}, [], {}]


def _mutant(doc, rng):
    """doc with one value changed by one of the mutations a hand-edited
    input file may hold, or a top-level value that is not an object."""
    doc = copy.deepcopy(doc)
    mutation = rng.choice(["kind", "nan", "inf", "-inf", "negative", "missing", "empty", "top"])
    if mutation == "top":
        return rng.choice([[doc], 5, "doc", None, []])
    path = rng.choice(list(_paths(doc)))
    obj = functools.reduce(operator.getitem, path[:-1], doc)
    old = obj[path[-1]]
    if mutation == "missing":
        del obj[path[-1]]
    else:
        obj[path[-1]] = {
            "kind": lambda: rng.choice([v for v in _OTHER_KINDS if type(v) is not type(old)]),
            "nan": lambda: math.nan,
            "inf": lambda: math.inf,
            "-inf": lambda: -math.inf,
            "negative": lambda: -abs(old) - 1 if type(old) in (int, float) else -1,
            "empty": lambda: rng.choice([[], {}]),
        }[mutation]()
    return doc


class TestMutatedInputs:
    """A property of every input file: with one value changed to another
    kind, NaN, an infinity, a negative number, a missing key or an empty
    container, or with a top level that is not an object, a command
    either runs (exit 0) or stops with a usage error before it writes
    anything (exit 2); it never ends in a traceback."""

    def _files(self):
        fitted = {"sigma_hat": 60.0, "susceptibility_hat": {"forest": 1.0, "field": 0.8, "building": 0.2},
                  "train_log_likelihood": -12.5}
        small = ["--n-pois", "3", "--planner", "greedy"]
        # (file contents, command with the file's path as {})
        return [
            (scenario_to_dict(generate_scenario(9, 4)), ["simulate", "--planner", "greedy", "--scenario", "{}"]),
            (fitted, ["simulate", *small, "--estimator", "fitted:{}"]),
            ({"0": 0.5, "1": 0.25, "2": 1.0}, ["simulate", *small, "--estimator", "external:{}"]),
            ({"0": {"0": 0.5, "1": 0.25, "2": 1.0}, "1": {"0": 0.0}}, ["simulate", *small, "--estimator", "external:{}"]),
            ({"n_pois": 3, "n_robots": 1, "planner": "greedy", "seed": 4, "speed": 2.0, "depth_cap": 2,
              "n_priority": 4, "estimator": "oracle"}, ["simulate", "--config", "{}"]),
        ]

    def test_no_mutant_ends_in_a_traceback(self, tmp_path, capsys):
        rng = random.Random(20)
        path, out = tmp_path / "input.json", tmp_path / "out"
        files = self._files()
        exits = {0: 0, 2: 0}
        for case in range(500):
            doc, command = files[case % len(files)]
            mutant = _mutant(doc, rng)
            path.write_text(json.dumps(mutant))
            argv = [a.replace("{}", str(path)) for a in command] + ["--out-dir", str(out)]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                pytest.fail(f"{' '.join(argv)} on {json.dumps(mutant)} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in exits, (argv, mutant, err)
            if code == 2:
                assert err.startswith(f"usage: mrsurvey {command[0]} "), (mutant, err)
                assert not out.exists(), mutant
            shutil.rmtree(out, ignore_errors=True)
            exits[code] += 1
        # Both outcomes occur, so the cases reach past the first check.
        assert min(exits.values()) >= 25, exits
