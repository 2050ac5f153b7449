"""Multi-robot planning and simulation for time-critical inspection.

Scenario generation, damage-likelihood estimation, expected-cost
joint-action planning with branch-and-bound, baseline policies, an
event-driven mission simulator, and a batch experiment harness.
"""

from .baselines import greedy_assign, optimistic_assign
from .estimator import (
    FittedParams,
    clamp_for_planner,
    fit_estimator,
    jitter_pockets,
    load_fitted,
    oracle_likelihoods,
    predict,
    resolve_likelihoods,
    write_fitted,
)
from .harness import AggregateReport, CellStats, ExperimentSpec, emit_outputs, run_experiment
from .planner import (
    ActionOutcome,
    JointAction,
    PlannerConfig,
    PlanningState,
    PlanResult,
    RobotState,
    action_outcome,
    make_state,
    plan,
    plan_detailed,
    select_priority_subset,
)
from .scenario import (
    GenerativeParams,
    PoI,
    Scenario,
    ScenarioGraph,
    WindPocket,
    build_graph,
    damage_probability,
    generate_scenario,
    load_scenario,
    write_graph,
    write_scenario,
)
from .simulator import (
    CurvePoint,
    MissionConfig,
    MissionTrace,
    PlanningCallStats,
    ReplayResult,
    SimEvent,
    load_trace,
    replay_check,
    run_mission,
    write_trace,
)

__version__ = "0.1.0"
