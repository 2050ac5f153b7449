"""Tests for the batch experiment driver and its output files."""

import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import textwrap

import pytest

import mrsurvey as m
from mrsurvey import harness
from mrsurvey.harness import ExperimentSpec, emit_outputs, run_experiment


def _tiny_spec(**overrides):
    base = dict(
        n_trials=4,
        n_pois=(5,),
        n_robots=(1,),
        seed_base=300,
        planners=("model", "optimistic", "greedy"),
        planner_config=m.PlannerConfig(depth_cap=3, n_priority=12),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _without_walls(stats_bytes):
    """stats.json with its planning wall times, which differ between runs,
    taken out."""
    stats = json.loads(stats_bytes)
    for cell in stats["cells"]:
        del cell["median_planning_wall"]
    return json.dumps(stats).encode()


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(_tiny_spec())


BAD_SPECS = [
    ({"n_trials": 0}, "n_trials must be >= 1"),
    ({"n_pois": ()}, "must be non-empty"),
    ({"n_robots": ()}, "must be non-empty"),
    ({"planners": ()}, "must be non-empty"),
    ({"n_pois": (5, 5)}, "must not repeat an entry"),
    ({"n_pois": (5, -1)}, "n_pois must be >= 0"),
    ({"parallelism": 0}, "parallelism must be >= 1"),
    ({"planners": ("model", "foo")}, "unknown planner 'foo'"),
    ({"n_robots": (1, 0)}, "n_robots must be >= 1"),
    ({"speed": math.nan}, "speed must be finite and > 0"),
]


class TestExperimentSpec:
    @pytest.mark.parametrize("edit, message", BAD_SPECS)
    def test_bad_value_cannot_be_made(self, edit, message):
        with pytest.raises(ValueError, match=message):
            _tiny_spec(**edit)

    @pytest.mark.parametrize("edit, message", BAD_SPECS)
    def test_bad_value_cannot_be_replaced_in(self, edit, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(_tiny_spec(), **edit)


class TestRunExperiment:
    def test_smallest_spec(self):
        rep = run_experiment(_tiny_spec(n_trials=1, planners=("optimistic",)))
        assert set(rep.cells) == {("optimistic", 5, 1)}
        cell = rep.cells[("optimistic", 5, 1)]
        assert cell.seeds == (300,)
        assert len(cell.costs) == 1
        assert rep.improvements == {}

    def test_repeated_grid_entry_rejected(self):
        # A repeated entry would name one cell twice.
        for key, val in (("n_pois", (5, 5)), ("n_robots", (1, 2, 1)), ("planners", ("greedy", "greedy"))):
            with pytest.raises(ValueError, match="must not repeat"):
                run_experiment(_tiny_spec(**{key: val}))

    @pytest.mark.parametrize("overrides, message", [
        ({"planners": ("model", "foo")}, "unknown planner 'foo'"),
        ({"n_robots": (1, 0)}, "n_robots must be >= 1"),
        ({"speed": -1.0}, "speed must be finite and > 0"),
        ({"planner_config": {"depth_cap": 0}}, "depth_cap must be >= 1"),
    ])
    def test_bad_mission_config_rejected_before_the_first_world(self, overrides, message, monkeypatch):
        worlds = []
        monkeypatch.setattr(harness, "generate_scenario", lambda *a: worlds.append(a))
        with pytest.raises(ValueError, match=message):
            # A planner_config entry holds PlannerConfig arguments, which
            # are checked when the config is made.
            if "planner_config" in overrides:
                overrides = {**overrides, "planner_config": m.PlannerConfig(**overrides["planner_config"])}
            run_experiment(_tiny_spec(**overrides))
        assert worlds == []

    def test_cells_cover_the_grid(self, tiny_report):
        assert set(tiny_report.cells) == {
            (p, 5, r) for p in ("model", "optimistic", "greedy") for r in (1,)
        }

    def test_trials_are_paired_across_planners(self, tiny_report):
        seeds = {key: cell.seeds for key, cell in tiny_report.cells.items()}
        assert len(set(seeds.values())) == 1
        assert seeds[("model", 5, 1)] == tuple(range(300, 304))

    def test_aggregates_match_independent_recomputation(self, tiny_report):
        for cell in tiny_report.cells.values():
            costs = list(cell.costs)
            assert len(costs) == 4
            assert abs(cell.mean - statistics.fmean(costs)) <= 1e-9
            assert abs(cell.median - statistics.median(costs)) <= 1e-9
            want_std = statistics.stdev(costs) if len(costs) > 1 else 0.0
            assert abs(cell.std - want_std) <= 1e-9

    def test_improvement_definition(self, tiny_report):
        model = tiny_report.cells[("model", 5, 1)].mean
        for base in ("optimistic", "greedy"):
            base_mean = tiny_report.cells[(base, 5, 1)].mean
            want = 100.0 * (base_mean - model) / base_mean if base_mean else 0.0
            assert abs(tiny_report.improvements[(5, 1, base)] - want) <= 1e-9

    def test_traces_validated_during_run(self, tiny_report):
        assert tiny_report.replay_failures == ()

    def test_curves_kept_per_cell(self, tiny_report):
        for key, cell in tiny_report.cells.items():
            curves = tiny_report.curves[key]
            assert tuple(seed for seed, _ in curves) == cell.seeds
            for _, curve in curves:
                # curve rows are (time, distance, expected, realized, unreported)
                assert curve[-1][4] == 0

    def test_deterministic_rerun(self):
        a = run_experiment(_tiny_spec())
        b = run_experiment(_tiny_spec())
        for key in a.cells:
            assert a.cells[key].costs == b.cells[key].costs

    def test_parallel_matches_serial(self):
        serial = run_experiment(_tiny_spec(n_trials=3))
        parallel = run_experiment(_tiny_spec(n_trials=3, parallelism=2))
        for key in serial.cells:
            assert serial.cells[key].costs == parallel.cells[key].costs

    def test_each_world_is_built_and_resolved_once_per_trial(self, monkeypatch):
        calls = {"generate": [], "resolve": []}

        def counted(name, fn):
            def call(*args):
                calls[name].append(args[:2] if name == "generate" else args[0].seed)
                return fn(*args)
            return call

        monkeypatch.setattr(harness, "generate_scenario", counted("generate", harness.generate_scenario))
        monkeypatch.setattr(harness, "resolve_likelihoods", counted("resolve", harness.resolve_likelihoods))
        rep = run_experiment(_tiny_spec(n_trials=3, n_pois=(4, 5), n_robots=(1, 2, 3),
                                        planners=("optimistic", "greedy")))
        assert sorted(calls["generate"]) == [(300 + i, n) for i in range(3) for n in (4, 5)]
        assert sorted(calls["resolve"]) == sorted(300 + i for i in range(3) for _ in (4, 5))
        assert len(rep.cells) == 2 * 2 * 3
        for cell in rep.cells.values():
            assert cell.seeds == (300, 301, 302)

    def test_pool_outputs_are_byte_identical(self, tmp_path):
        spec = _tiny_spec(n_trials=3, n_pois=(4, 5), n_robots=(1, 2, 3))
        emit_outputs(run_experiment(spec), str(tmp_path / "serial"))
        emit_outputs(run_experiment(dataclasses.replace(spec, parallelism=2)), str(tmp_path / "pool"))
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
        for name in names:
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "pool" / name).read_bytes()
            if name == "stats.json":
                a, b = _without_walls(a), _without_walls(b)
            assert a == b, name

    def test_import_leaves_the_process_pool_unloaded(self):
        # A fresh interpreter: only a run with parallelism > 1 needs the pool.
        child = textwrap.dedent("""
            import sys
            import mrsurvey
            print(sorted(m for m in sys.modules if m.startswith(("concurrent.futures.process", "multiprocessing"))))
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_multi_cell_grid(self):
        rep = run_experiment(_tiny_spec(n_trials=2, n_robots=(1, 2),
                                        planners=("optimistic", "greedy")))
        assert len(rep.cells) == 4
        assert ("optimistic", 5, 2) in rep.cells


class TestEmitOutputs:
    def test_file_set_and_summary_schema(self, tiny_report, tmp_path):
        files = emit_outputs(tiny_report, str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "summary.csv" in names
        assert "scatter_p5_r1.csv" in names
        assert "stats.json" in names
        assert {f"curves_p5_r1_{p}.jsonl" for p in ("model", "optimistic", "greedy")} <= set(names)
        assert sorted(files) == sorted(str(tmp_path / n) for n in names)

        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "planner,n_pois,n_robots,mean,median,std,pct_improvement"
        assert len(lines) == 1 + len(tiny_report.cells)
        for line in lines[1:]:
            planner, n_p, n_r, mean, median, std, imp = line.split(",")
            cell = tiny_report.cells[(planner, int(n_p), int(n_r))]
            assert float(mean) == cell.mean
            assert float(median) == cell.median

    def test_scatter_pairs_have_full_length(self, tiny_report, tmp_path):
        emit_outputs(tiny_report, str(tmp_path))
        lines = (tmp_path / "scatter_p5_r1.csv").read_text().strip().split("\n")
        assert lines[0] == "seed,model_cost,baseline_cost,baseline_name"
        rows = [line.split(",") for line in lines[1:]]
        for base in ("optimistic", "greedy"):
            sub = [r for r in rows if r[3] == base]
            assert [int(r[0]) for r in sub] == list(range(300, 304))
            for r in sub:
                assert float(r[1]) == tiny_report.cells[("model", 5, 1)].costs[int(r[0]) - 300]

    def test_curve_files_are_jsonl(self, tiny_report, tmp_path):
        emit_outputs(tiny_report, str(tmp_path))
        lines = (tmp_path / "curves_p5_r1_model.jsonl").read_text().strip().split("\n")
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert rec["seed"] == 300
        assert rec["curve"][-1][4] == 0

    def test_stats_json_contents(self, tiny_report, tmp_path):
        emit_outputs(tiny_report, str(tmp_path))
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["spec"]["n_trials"] == 4
        assert list(stats["spec"]) == ["n_trials", "n_pois", "n_robots", "seed_base", "planners", "estimator",
                                       "speed", "depth_cap", "n_priority"]
        assert stats["replay_failures"] == []
        cells = {(c["planner"], c["n_pois"], c["n_robots"]) for c in stats["cells"]}
        assert cells == set((p, 5, 1) for p in ("model", "optimistic", "greedy"))

    def test_reemit_is_byte_identical(self, tiny_report, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        emit_outputs(tiny_report, str(dir_a))
        emit_outputs(tiny_report, str(dir_b))
        for pa in sorted(dir_a.iterdir()):
            assert pa.read_bytes() == (dir_b / pa.name).read_bytes()

    def test_rerun_emits_byte_identical_csvs(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        emit_outputs(run_experiment(_tiny_spec(n_trials=2)), str(dir_a))
        emit_outputs(run_experiment(_tiny_spec(n_trials=2)), str(dir_b))
        for name in ("summary.csv", "scatter_p5_r1.csv", "scatter.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
