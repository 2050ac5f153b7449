"""Tests for the command-line entry points."""

import json

import pytest

from mrsurvey import cli
from mrsurvey.harness import ExperimentSpec
from mrsurvey.planner import PlannerConfig
from mrsurvey.scenario import load_scenario
from mrsurvey.simulator import load_trace


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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit):
            cli.main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path)])
