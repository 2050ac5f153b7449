"""mrsurvey benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload plan-wide --seed 0 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Counts that must repeat exactly between passes, runs and processes.
EXACT_COUNTS = (
    "planner.nodes_expanded",
    "planner.children_pruned",
    "planner.decide.calls",
    "estimator.fit.sweeps",
    "harness.emit.files",
)
# Metrics kept out of the one-line result because they are 0 on some
# workloads (failed_frac) or exist on survey only (fit_*); --workload all
# prints them with the rest.
EXTRA_UNITS = {"failed_frac": "ratio", "fit_s": "s", "fit_sigma_err": "ratio"}


def import_package():
    """Import mrsurvey from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mrsurvey
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mrsurvey from {SRC}: {exc}")
    if not Path(mrsurvey.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: mrsurvey was imported from {mrsurvey.__file__}, not {SRC}")


def median(values):
    return float(statistics.median(values)) if values else 0.0


def p90(values):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10)[-1])


def layer_metrics(rec, true_sigma):
    """Per-layer counts and times of one traced pass."""
    spans = rec.spans
    selfs = rec.self_times()
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def count(name):
        return len(by[name])

    def total(name):
        return sum(spans[i].duration for i in by[name])

    def self_total(*names):
        return sum(selfs[i] for name in names for i in by[name])

    def attrs(name, key):
        return [spans[i].attrs[key] for i in by[name] if spans[i].attrs is not None]

    nodes = attrs("planner.decide", "nodes")
    pruned = attrs("planner.decide", "pruned")
    prune_base = sum(nodes) + sum(pruned)
    decide_ms = [spans[i].duration * 1e3 for i in by["planner.decide"]]
    mission_ms = total("simulator.mission") * 1e3
    sigmas = attrs("estimator.fit", "sigma")
    return {
        "scenario.generate.calls": count("scenario.generate"),
        "scenario.generate.ms": total("scenario.generate") * 1e3,
        "estimator.fit.s": total("estimator.fit"),
        "estimator.fit.sweeps": sum(attrs("estimator.fit", "sweeps")),
        "estimator.fit.sigma_err": median([abs(s - true_sigma) / true_sigma for s in sigmas]),
        "estimator.resolve.calls": count("estimator.resolve"),
        "estimator.resolve.ms": total("estimator.resolve") * 1e3,
        "planner.decide.calls": count("planner.decide"),
        "planner.decide.ms": sum(decide_ms),
        "planner.decide.ms_p50": median(decide_ms),
        "planner.decide.ms_p90": p90(decide_ms),
        "planner.decide.share": sum(decide_ms) / mission_ms if mission_ms else 0.0,
        "planner.nodes_expanded": sum(nodes),
        "planner.nodes_expanded.p90": p90(nodes),
        "planner.children_pruned": sum(pruned),
        "planner.prune_ratio": sum(pruned) / prune_base if prune_base else 0.0,
        "planner.prune_ratio.base": prune_base,
        "planner.subset.ms": total("planner.subset") * 1e3,
        "planner.subset_size.mean": statistics.fmean(attrs("planner.decide", "subset")) if nodes else 0.0,
        "planner.remaining_size.mean": statistics.fmean(attrs("planner.decide", "remaining")) if nodes else 0.0,
        "baselines.assign.calls": count("baselines.assign"),
        "baselines.assign.ms": total("baselines.assign") * 1e3,
        "simulator.mission.ms": mission_ms,
        "simulator.self.ms": self_total("simulator.mission") * 1e3,
        "simulator.make_state.ms": total("simulator.make_state") * 1e3,
        "simulator.step.calls": count("simulator.step"),
        "simulator.step.ms": total("simulator.step") * 1e3,
        "simulator.replay.calls": count("simulator.replay"),
        "simulator.replay.ms": total("simulator.replay") * 1e3,
        "harness.run_experiment.s": total("harness.run_experiment"),
        "harness.self.ms": self_total("harness.run_experiment") * 1e3,
        "harness.emit.ms": total("harness.emit") * 1e3,
        "harness.emit.bytes": sum(attrs("harness.emit", "bytes")),
        "harness.emit.files": sum(attrs("harness.emit", "files")),
        "cli.fit.s": total("cli.fit"),
        "cli.run.s": total("cli.run"),
        "cli.self.ms": self_total("cli.fit", "cli.run") * 1e3,
        "trace.spans": len(spans),
    }


def sanity_checks(workload, layers):
    """(description, passed) pairs: does the workload stress what it should?"""
    checks = []
    if workload == "survey":
        checks.append(("planner.decide.calls is 0", layers["planner.decide.calls"] == 0))
    else:
        share = layers["planner.decide.share"]
        checks.append((f"planner.decide.ms is {share:.1%} of simulator.mission.ms (>= 95%)", share >= 0.95))
        cut = layers["planner.subset_size.mean"] < layers["planner.remaining_size.mean"]
        want = workload == "plan-wide"
        checks.append((f"priority subset {'cuts' if want else 'keeps'} the remaining set", cut == want))
    return checks


def read_text(path):
    """The file's text, or "" where the system has no such file."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def environment(args):
    import numpy
    import scipy

    cpu = [line.split(":", 1)[1].strip() for line in read_text("/proc/cpuinfo").splitlines() if line.startswith("model name")]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "loadavg_start": read_text("/proc/loadavg").split()[:3],
    }


def setup_seconds(args):
    """Median over fresh interpreters of importing mrsurvey and building the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def measure(args, spec):
    import mrsurvey
    from spans import Patches, Recorder, install_hooks
    from workloads import PINNED_SEED, WORKLOADS, Verifier

    env = environment(args)
    setup_s = setup_seconds(args)
    expected_path = HERE / "expected.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    pinned = args.seed == PINNED_SEED and not args.record
    verifier = Verifier(expected.get(args.workload, {}) if pinned else None)
    workload = WORKLOADS[args.workload]
    true_sigma = mrsurvey.GenerativeParams().sigma

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes = []
    try:
        build_rec = Recorder()
        inputs = workload.build(args.seed, str(workdir), build_rec if args.trace else None)
        start = time.perf_counter()
        while True:
            # The traced run alternates untraced and traced passes so that
            # the tracing overhead is measured on the same inputs.
            traced = bool(args.trace) and len(passes) % 2 == 1
            rec, patches = None, Patches()
            if traced:
                rec = Recorder()
                rec.spans.extend(build_rec.spans)
                install_hooks(rec, patches)
            try:
                result = workload.run_pass(inputs, verifier, rec)
            finally:
                patches.restore()
            layers = layer_metrics(rec, true_sigma) if traced else None
            if result.costs:
                verifier.check("mean_realized_cost", statistics.fmean(result.costs))
            if traced:
                for key in EXACT_COUNTS:
                    verifier.check(f"count:{key}", layers[key])
            passes.append((traced, result, layers))
            elapsed = time.perf_counter() - start
            if len(passes) >= 1 + args.trace and elapsed * (1 + 1 / len(passes)) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.missions for _, r, _ in passes)
    failed = sum(r.failed for _, r, _ in passes)
    plain = [r for traced, r, _ in passes if not traced]
    if args.trace:
        traced_layers = [layers for traced, _, layers in passes if traced]
        metrics = {key: median([layers[key] for layers in traced_layers]) for key in traced_layers[0]}
        traced_wall = median([r.wall for traced, r, _ in passes if traced])
        metrics["trace.overhead_frac"] = traced_wall / median([r.wall for r in plain]) - 1.0
        metrics["failed_frac"] = failed / attempted
        checks = sanity_checks(args.workload, metrics)
        metrics["sanity.failed"] = sum(not ok for _, ok in checks)
        names = spec["per_layer"]
    else:
        checks = []
        metrics = {
            "setup_s": setup_s,
            # Medians over the passes, and over every mission of every pass.
            "missions_per_s": plain[0].missions / median([r.wall for r in plain]),
            "replan_ms_p50": 1e3 * median([m for r in plain for m in r.replan_medians]),
            "mean_realized_cost": statistics.fmean(plain[0].costs) if plain[0].costs else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": failed / attempted,
        }
        fits = [r for r in plain if r.fit_s is not None]
        if fits:
            metrics["fit_s"] = median([r.fit_s for r in fits])
            metrics["fit_sigma_err"] = abs(fits[0].sigma_hat - true_sigma) / true_sigma
        names = spec["end_to_end"]

    for text, ok in checks:
        print(f"sanity {'ok  ' if ok else 'FAIL'} {args.workload}: {text}", file=sys.stderr)
    for error in verifier.errors:
        print(f"check failed: {error}", file=sys.stderr)
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    finite = all(math.isfinite(v["value"]) for v in shown.values())
    out = {
        "correct": failed == 0 and not verifier.errors and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }

    if args.record:
        if args.seed != PINNED_SEED or not args.trace:
            raise SystemExit("perfbench: --record needs --seed 0 and --trace 1")
        expected[args.workload] = dict(sorted(verifier.values.items()))
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    env["loadavg_end"] = read_text("/proc/loadavg").split()[:3]
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    log = args.log or results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    log.write_text(json.dumps({"env": env, "result": out, "all_metrics": metrics, "pass_walls": [r.wall for _, r, _ in passes], "errors": verifier.errors}, indent=1) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(out), flush=True)
    return 0


def run_all(args, spec, workloads):
    """Every workload, untraced then traced, each in a fresh interpreter, one after another."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            log = HERE / "_results" / f"all-{workload}-trace{trace}-{os.getpid()}.json"
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--log", str(log),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not log.exists():
                print(f"== {workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            record = json.loads(log.read_text())
            result = record["result"]
            ok &= result["correct"]
            print(
                f"== {workload} trace={trace} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, value in record["all_metrics"].items():
                print(f"  {name:30s} {value:16.6f} {units[name]}")
    return 0 if ok else 1


def self_test():
    """Corrupt one reveal and one output byte; failed_frac must rise from 0."""
    from workloads import PlanWorkload, SurveyWorkload, Verifier

    def frac(result):
        return result.failed / result.missions

    plan = PlanWorkload(n_pois=12, n_robots=3, n_scenarios=2)
    worlds = plan.build(0, "")
    verifier = Verifier()
    clean = plan.run_pass(worlds, verifier)
    hit = []

    def flip_reveal(trace):
        if not hit:
            t, pid, damaged = trace.reveal_log[0]
            trace.reveal_log = ((t, pid, not damaged),) + trace.reveal_log[1:]
            hit.append(pid)

    bad = plan.run_pass(worlds, verifier, corrupt=flip_reveal)
    results = [("plan: one reveal flipped", frac(clean), frac(bad))]

    survey = SurveyWorkload(fit_trials=40, run_trials=2, run_pois=12, n_robots="1,3")
    workdir = HERE / "_work" / f"self-test-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = survey.build(0, str(workdir))
        verifier = Verifier()
        clean = survey.run_pass(inputs, verifier)

        def flip_byte(run_dir):
            path = os.path.join(run_dir, "summary.csv")
            with open(path, "r+b") as f:
                data = bytearray(f.read())
                data[len(data) // 2] ^= 1
                f.seek(0)
                f.write(data)

        bad = survey.run_pass(inputs, verifier, corrupt=flip_byte)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results.append(("survey: one byte of summary.csv flipped", frac(clean), frac(bad)))

    ok = True
    for text, before, after in results:
        rose = before == 0.0 and after > 0.0
        ok &= rose
        print(f"self-test {'ok  ' if rose else 'FAIL'} {text}: failed_frac {before:.3f} -> {after:.3f}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("plan-deep", "plan-wide", "survey", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the pinned-seed outputs in expected.json")
    parser.add_argument("--self-test", action="store_true", help="show that corrupted outputs count as failures")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--log", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    import_package()
    if args.self_test:
        return self_test()
    from workloads import WORKLOADS

    if args.setup_probe:
        WORKLOADS[args.workload].build(args.seed, "")
        print(time.perf_counter() - _T0)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec, WORKLOADS)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
