"""Workload inputs, one pass of each workload, and output digests.

Every workload is a closed loop: one caller, and each call into the
package starts when the previous one has returned.

The seed does not draw new worlds: it mirrors each pinned world across
the x axis or leaves it, a coin flip per world.  Negating y changes no
distance, likelihood, tie-break or robot order (the search sorts robots
by x before y, and robots with equal x here also share y), so plans,
costs and search counts repeat bit for bit for every seed while the
coordinates the program reads differ.  Fresh worlds would not do: one
world's cost and planner work differ from the next one's several-fold,
so ten worlds per pass cannot give figures that hold from seed to seed.
Quarter turns and order-keeping PoI renames would not either: both
change the search order, and with it the node count by up to 12%.
Seed 0 is the identity.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import mrsurvey
from mrsurvey import cli, harness
from spans import Patches, Recorder

PINNED_SEED = 0


def mirrored(seed: int, scenario: mrsurvey.Scenario) -> mrsurvey.Scenario:
    """The scenario, mirrored across the x axis when the seed's coin says so."""
    if seed == PINNED_SEED or np.random.default_rng([seed, scenario.seed]).random() < 0.5:
        return scenario
    pois = tuple(
        mrsurvey.PoI(p.id, p.x, -p.y, p.poi_class, p.inspect_time, p.damaged) for p in scenario.pois
    )
    return mrsurvey.Scenario(
        seed=scenario.seed,
        params=scenario.params,
        start=(scenario.start[0], -scenario.start[1]),
        pois=pois,
        wind_pockets=tuple(mrsurvey.WindPocket(w.x, -w.y) for w in scenario.wind_pockets),
    )


def _span(rec: Optional[Recorder], name: str):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Verifier:
    """Compares each named output with its first value, or with a recorded one.

    With a record, a name the record lacks is a mismatch; without one,
    the first value seen becomes the reference for the rest of the run.
    """

    def __init__(self, recorded: Optional[Dict[str, object]] = None):
        self.strict = recorded is not None
        self.values: Dict[str, object] = dict(recorded or {})
        self.errors: List[str] = []

    def check(self, key: str, value) -> bool:
        if key not in self.values:
            if self.strict:
                self.errors.append(f"{key}: no recorded value")
                return False
            self.values[key] = value
            return True
        if self.values[key] != value:
            self.errors.append(f"{key}: {value!r} != {self.values[key]!r}")
            return False
        return True


@dataclass
class PassResult:
    wall: float = 0.0
    missions: int = 0
    failed: int = 0
    costs: List[float] = field(default_factory=list)
    replan_medians: List[float] = field(default_factory=list)
    fit_s: Optional[float] = None
    sigma_hat: Optional[float] = None


# --- model-planner workloads -------------------------------------------------


def mission_digest(trace: mrsurvey.MissionTrace) -> str:
    reveals = [[t, pid, bool(flag)] for t, pid, flag in trace.reveal_log]
    return _sha(json.dumps([trace.scenario_seed, reveals, trace.total_realized_cost]).encode())


@dataclass(frozen=True)
class PlanWorkload:
    """Model-planner missions on consecutive scenario seeds 0..n_scenarios-1."""

    n_pois: int
    n_robots: int
    n_scenarios: int

    def build(self, seed: int, workdir: str, rec: Optional[Recorder] = None) -> List[mrsurvey.Scenario]:
        worlds = []
        for k in range(self.n_scenarios):
            with _span(rec, "scenario.generate"):
                scenario = mrsurvey.generate_scenario(k, self.n_pois)
            worlds.append(mirrored(seed, scenario))
        return worlds

    def run_pass(
        self,
        worlds: List[mrsurvey.Scenario],
        verifier: Verifier,
        rec: Optional[Recorder] = None,
        corrupt: Optional[Callable[[mrsurvey.MissionTrace], None]] = None,
    ) -> PassResult:
        out = PassResult()
        for scenario in worlds:
            config = mrsurvey.MissionConfig(planner="model", n_robots=self.n_robots, seed=scenario.seed)
            out.missions += 1
            t0 = time.perf_counter()
            try:
                with _span(rec, "simulator.mission"):
                    trace = mrsurvey.run_mission(scenario, config)
                if corrupt is not None:
                    corrupt(trace)
                with _span(rec, "simulator.replay"):
                    replay = mrsurvey.replay_check(trace, scenario)
            except Exception:
                out.wall += time.perf_counter() - t0
                traceback.print_exc()
                out.failed += 1
                continue
            out.wall += time.perf_counter() - t0
            ok = replay.ok
            if not ok:
                print(f"replay failed on scenario {scenario.seed}: {replay.reasons}", file=sys.stderr)
            ok &= verifier.check(f"mission:{scenario.seed}", mission_digest(trace))
            out.failed += not ok
            out.costs.append(trace.total_realized_cost)
            out.replan_medians.append(trace.planning_calls.median_wall)
        return out


# --- the user pipeline through the command line ------------------------------


def output_digests(fit_dir: str, run_dir: str) -> Dict[str, str]:
    """sha256 of every output file; stats.json without its wall-time fields."""
    digests = {}
    paths = [os.path.join(fit_dir, "fitted_params.json")]
    paths += [os.path.join(run_dir, name) for name in sorted(os.listdir(run_dir))]
    for path in paths:
        name = os.path.basename(path)
        with open(path, "rb") as f:
            data = f.read()
        if name == "stats.json":
            # Wall times, and the path of this run's fitted file, differ
            # between identical runs.
            stats = json.loads(data)
            for cell in stats["cells"]:
                del cell["median_planning_wall"]
            stats["spec"]["estimator"] = stats["spec"]["estimator"].replace(os.path.dirname(fit_dir), "<workdir>")
            data = json.dumps(stats, sort_keys=True).encode()
        digests[name] = _sha(data)
    return digests


@dataclass(frozen=True)
class SurveyWorkload:
    """mrsurvey fit, then mrsurvey run with the baselines and the fitted estimator."""

    fit_trials: int = 2000
    fit_pois: int = 12
    fit_seed: int = 100_000
    run_trials: int = 60
    run_pois: int = 36
    n_robots: str = "1,3,5"
    planners: str = "optimistic,greedy"

    def build(self, seed: int, workdir: str, rec: Optional[Recorder] = None):
        return seed, workdir

    def run_pass(
        self,
        inputs,
        verifier: Verifier,
        rec: Optional[Recorder] = None,
        corrupt: Optional[Callable[[str], None]] = None,
    ) -> PassResult:
        seed, workdir = inputs
        fit_dir = os.path.join(workdir, "fit")
        run_dir = os.path.join(workdir, "run")
        fit_args = [
            "fit", "--seed", str(self.fit_seed), "--n-trials", str(self.fit_trials),
            "--n-pois", str(self.fit_pois), "--out-dir", fit_dir,
        ]
        run_args = [
            "run", "--seed", "0", "--n-trials", str(self.run_trials), "--n-pois", str(self.run_pois),
            "--n-robots", self.n_robots, "--planner", self.planners,
            "--estimator", "fitted:" + os.path.join(fit_dir, "fitted_params.json"),
            "--parallelism", "1", "--out-dir", run_dir,
        ]
        fits, reports = [], []

        def keep(fn, into):
            def call(arg):
                into.append(fn(arg))
                return into[-1]

            return call

        def moved(generate):
            return lambda s, n, params=None: mirrored(seed, generate(s, n, params))

        patches = Patches()
        patches.set(cli, "fit_estimator", keep(cli.fit_estimator, fits))
        patches.set(cli, "run_experiment", keep(cli.run_experiment, reports))
        patches.set(cli, "generate_scenario", moved(cli.generate_scenario))
        patches.set(harness, "generate_scenario", moved(harness.generate_scenario))
        out = PassResult()
        out.missions = self.run_trials * len(self.n_robots.split(",")) * len(self.planners.split(","))
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                with _span(rec, "cli.fit"):
                    rc_fit = cli.main(fit_args)
                out.fit_s = time.perf_counter() - t0
                with _span(rec, "cli.run"):
                    rc_run = cli.main(run_args)
        except Exception:
            traceback.print_exc()
            rc_fit = rc_run = -1
        finally:
            out.wall = time.perf_counter() - t0
            patches.restore()
        converged = bool(fits) and fits[-1].converged
        if rc_fit != 0 or rc_run != 0 or not reports or not converged:
            print(f"survey pass failed: fit exit {rc_fit}, converged {converged}, run exit {rc_run}", file=sys.stderr)
            out.failed = out.missions
            return out

        out.sigma_hat = fits[-1].sigma_hat

        report = reports[-1]
        for failure in report.replay_failures:
            print(f"replay failed: {failure}", file=sys.stderr)
        out.failed = len(report.replay_failures)
        for cell in report.cells.values():
            out.costs.extend(cell.costs)
            out.replan_medians.extend(cell.planning_wall_medians)
        if corrupt is not None:
            corrupt(run_dir)
        digests = output_digests(fit_dir, run_dir)
        if not all([verifier.check(f"file:{name}", d) for name, d in sorted(digests.items())]):
            out.failed = out.missions
        shutil.rmtree(fit_dir)
        shutil.rmtree(run_dir)
        return out


WORKLOADS = {
    "plan-deep": PlanWorkload(n_pois=12, n_robots=5, n_scenarios=10),
    "plan-wide": PlanWorkload(n_pois=36, n_robots=3, n_scenarios=8),
    "survey": SurveyWorkload(),
}
