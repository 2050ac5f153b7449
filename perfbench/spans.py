"""In-memory spans recorded around calls into mrsurvey's modules.

A hook replaces a function under the name its caller looks up at call
time (for example ``mrsurvey.simulator.plan``), records one span per
call and forwards to the original.  Spans stay in memory; the
benchmark turns them into per-layer metrics when a pass ends.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: Optional[Dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store for one thread; a span's parent is the span open when it began."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """fn with a span around every call; attrs(result) annotates the span."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if attrs is not None:
                s.attrs = attrs(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> List[float]:
        """Per span: its duration minus the time its direct children cover.

        Spans come from one thread, so siblings never overlap and the
        children's durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


class Patches:
    """Module attributes replaced for a while, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, module, name: str, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


def install_hooks(rec: Recorder, patches: Patches) -> None:
    """Trace every layer boundary the workloads cross.

    The planner hook calls plan_detailed and returns its action, which
    is what plan() does, so node counts and subset sizes reach the span
    without any change to the package.
    """
    from mrsurvey import baselines, cli, harness, planner, simulator

    def decide(state, config):
        with rec.span("planner.decide") as s:
            result = planner.plan_detailed(state, config)
        s.attrs = {
            "nodes": result.nodes_expanded,
            "pruned": result.children_pruned,
            "subset": len(result.subset_ids),
            "remaining": state.n_pois,
        }
        return result.action

    def fit_attrs(params):
        return {"sweeps": len(params.ll_history) - 1, "sigma": params.sigma_hat}

    def emit_attrs(paths):
        return {"files": len(paths), "bytes": sum(os.path.getsize(p) for p in paths)}

    patches.set(simulator, "plan", decide)
    for module, name, span, attrs in (
        (simulator, "make_state", "simulator.make_state", None),
        (simulator, "action_outcome", "simulator.step", None),
        (simulator, "resolve_likelihoods", "estimator.resolve", None),
        (planner, "select_priority_subset", "planner.subset", None),
        (baselines, "optimistic_assign", "baselines.assign", None),
        (baselines, "greedy_assign", "baselines.assign", None),
        (harness, "generate_scenario", "scenario.generate", None),
        (harness, "resolve_likelihoods", "estimator.resolve", None),
        (harness, "run_mission", "simulator.mission", None),
        (harness, "replay_check", "simulator.replay", None),
        (cli, "generate_scenario", "scenario.generate", None),
        (cli, "fit_estimator", "estimator.fit", fit_attrs),
        (cli, "run_experiment", "harness.run_experiment", None),
        (cli, "emit_outputs", "harness.emit", emit_attrs),
    ):
        patches.set(module, name, rec.wrap(span, getattr(module, name), attrs))
