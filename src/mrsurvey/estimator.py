"""Damage-likelihood estimators feeding the planner.

Two interchangeable sources of per-PoI damage probabilities:

* oracle: evaluate the true generative model on the scenario, and
* fitted: maximum-likelihood parameters (sigma and per-class
  susceptibility) recovered from a training set of scenarios with
  observed damaged flags, then evaluated like the oracle.

The fitted family is the noisy-OR Gaussian falloff model regardless of
the generative combine_rule knob; mis-specification under the "max"
ablation is deliberate.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .scenario import (
    POI_CLASSES,
    GenerativeParams,
    Scenario,
    WindPocket,
    damage_probability,
)

SIGMA_BRACKET = (5.0, 500.0)
SUSCEPTIBILITY_BRACKET = (1e-6, 1.0)
MISSING_CLASS_SUSCEPTIBILITY = 0.5
FIT_SIGMA_INIT = 100.0
SWEEP_TOL = 1e-9
MAX_SWEEPS = 200

# Planner-facing probabilities are kept away from exactly 0 and 1; raw
# values are what reports and cost curves use.
PLANNER_PROB_EPS = 1e-6


@dataclass(frozen=True)
class FittedParams:
    """MLE of the damage model; extra diagnostics are not serialized."""

    sigma_hat: float
    susceptibility_hat: Dict[str, float]
    train_log_likelihood: float
    converged: bool = True
    ll_history: Tuple[float, ...] = ()


def oracle_likelihoods(scenario: Scenario) -> Dict[int, float]:
    """True generative damage probability for every PoI."""
    return {
        poi.id: damage_probability(poi.position, poi.poi_class, scenario.wind_pockets, scenario.params)
        for poi in scenario.pois
    }


def predict(params: FittedParams, scenario: Scenario) -> Dict[int, float]:
    """Per-PoI damage probabilities under fitted parameters.

    Uses the scenario's (possibly jittered) wind-pocket observations and
    the noisy-OR combination.
    """
    gen = GenerativeParams(
        sigma=params.sigma_hat,
        susceptibility=dict(params.susceptibility_hat),
        n_wind_pockets=len(scenario.wind_pockets),
        map_radius=scenario.params.map_radius,
        combine_rule="noisy_or",
    )
    return {
        poi.id: damage_probability(poi.position, poi.poi_class, scenario.wind_pockets, gen)
        for poi in scenario.pois
    }


def clamp_for_planner(likelihoods: Dict[int, float], eps: float = PLANNER_PROB_EPS) -> Dict[int, float]:
    return {k: min(max(v, eps), 1.0 - eps) for k, v in likelihoods.items()}


def jitter_pockets(scenario: Scenario, std: float, seed: int) -> Scenario:
    """Scenario copy whose pocket observations get Gaussian position noise."""
    if std < 0.0:
        raise ValueError(f"jitter std must be >= 0, got {std}")
    if std == 0.0 or not scenario.wind_pockets:
        return scenario
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, std, size=(len(scenario.wind_pockets), 2))
    pockets = tuple(
        WindPocket(pk.x + float(noise[k, 0]), pk.y + float(noise[k, 1]))
        for k, pk in enumerate(scenario.wind_pockets)
    )
    return dataclasses.replace(scenario, wind_pockets=pockets)


# --- maximum-likelihood fit -------------------------------------------------


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns:
        (argmax, f(argmax)) after the bracket shrinks below ~1e-12 of
        its initial span or `iters` iterations, whichever is first.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    tol = 1e-12 * (hi - lo)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


class _TrainingSet:
    """Flattened (distances^2, class, damaged) arrays over all PoIs."""

    def __init__(self, scenarios: Sequence[Scenario]):
        max_pockets = max((len(s.wind_pockets) for s in scenarios), default=0)
        d_sq_rows: List[List[float]] = []
        class_idx: List[int] = []
        damaged: List[bool] = []
        for s in scenarios:
            for poi in s.pois:
                row = [
                    (poi.x - pk.x) ** 2 + (poi.y - pk.y) ** 2 for pk in s.wind_pockets
                ]
                row.extend([math.inf] * (max_pockets - len(row)))
                d_sq_rows.append(row)
                class_idx.append(POI_CLASSES.index(poi.poi_class))
                damaged.append(poi.damaged)
        self.d_sq = np.asarray(d_sq_rows, dtype=float).reshape(len(d_sq_rows), max_pockets)
        self.class_idx = np.asarray(class_idx, dtype=int)
        self.damaged = np.asarray(damaged, dtype=bool)
        self.class_rows = [np.nonzero(self.class_idx == c)[0] for c in range(len(POI_CLASSES))]

    def gauss(self, sigma: float) -> np.ndarray:
        # exp(-inf) = 0 handles the padding columns.
        with np.errstate(under="ignore"):
            return np.exp(-self.d_sq / (2.0 * sigma * sigma))


def _log_no_damage(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-row log P(no damage) = sum over pockets of log1p(-s * g).

    Below 8 pockets a row sum adds left to right from +0.0, so adding
    the columns one at a time gives the same bits, sign of zero included,
    without a per-row reduce.  From 8 on numpy sums pairwise, so the row
    sum is kept.
    """
    terms = np.log1p(-np.minimum(s[:, None] * g, 1.0 - 1e-12))
    if terms.shape[1] >= 8:
        return terms.sum(axis=1)
    log_q = np.zeros(len(terms))
    for k in range(terms.shape[1]):
        log_q += terms[:, k]
    return log_q


def _bernoulli_ll(g: np.ndarray, damaged: np.ndarray, s: np.ndarray) -> float:
    """Log-likelihood of damaged flags under noisy-OR with factors s * g.

    Args:
        g: (n, n_pockets) Gaussian falloff per PoI and pocket.
        damaged: (n,) observed flags.
        s: (n,) susceptibility per PoI (already class-expanded).

    Returns:
        Sum of log P(flag | model), computed via log1p on the survival
        side so probabilities near 0 and 1 stay accurate.
    """
    if g.size == 0:
        return 0.0
    log_q = _log_no_damage(g, s)
    ll = float(log_q[~damaged].sum())
    if damaged.any():
        p = -np.expm1(log_q[damaged])
        ll += float(np.log(np.maximum(p, 1e-300)).sum())
    return ll


def fit_estimator(scenarios: Sequence[Scenario]) -> FittedParams:
    """Fit sigma and per-class susceptibilities by coordinate descent.

    Each sweep runs a golden-section search on sigma over [5, 500] and
    then on each class susceptibility over [1e-6, 1].  Stops when a
    sweep improves the log-likelihood by less than 1e-9, or flags
    non-convergence after 200 sweeps.  Classes absent from the training
    set fall back to susceptibility 0.5.
    """
    data = _TrainingSet(scenarios)
    if data.damaged.size == 0:
        raise ValueError("training set must contain at least one PoI")
    present = [c for c in range(len(POI_CLASSES)) if data.class_rows[c].size > 0]

    sigma = FIT_SIGMA_INIT
    susc = np.full(len(POI_CLASSES), 0.5)

    def full_ll(sig: float, s_vec: np.ndarray) -> float:
        g = data.gauss(sig)
        return _bernoulli_ll(g, data.damaged, s_vec[data.class_idx])

    ll = full_ll(sigma, susc)
    history = [ll]
    converged = False
    for _ in range(MAX_SWEEPS):
        sigma, _ = _golden_max(
            lambda sig: full_ll(sig, susc), SIGMA_BRACKET[0], SIGMA_BRACKET[1]
        )
        g = data.gauss(sigma)
        for c in present:
            rows = data.class_rows[c]
            gc, yc = g[rows], data.damaged[rows]

            def class_ll(s_val: float, gc=gc, yc=yc) -> float:
                return _bernoulli_ll(gc, yc, np.full(len(gc), s_val))

            susc[c], _ = _golden_max(
                class_ll, SUSCEPTIBILITY_BRACKET[0], SUSCEPTIBILITY_BRACKET[1]
            )
        new_ll = full_ll(sigma, susc)
        history.append(new_ll)
        if new_ll - ll < SWEEP_TOL:
            converged = True
            ll = max(ll, new_ll)
            break
        ll = new_ll

    susceptibility_hat = {
        cls: float(susc[c]) if c in present else MISSING_CLASS_SUSCEPTIBILITY
        for c, cls in enumerate(POI_CLASSES)
    }
    return FittedParams(
        sigma_hat=float(sigma),
        susceptibility_hat=susceptibility_hat,
        train_log_likelihood=float(ll),
        converged=converged,
        ll_history=tuple(history),
    )


# --- serialization and likelihood resolution --------------------------------


def fitted_to_dict(params: FittedParams) -> dict:
    return {
        "sigma_hat": params.sigma_hat,
        "susceptibility_hat": {cls: params.susceptibility_hat[cls] for cls in POI_CLASSES},
        "train_log_likelihood": params.train_log_likelihood,
    }


def write_fitted(params: FittedParams, path: str) -> None:
    with open(path, "w") as f:
        json.dump(fitted_to_dict(params), f, indent=2)
        f.write("\n")


def load_fitted(path: str) -> FittedParams:
    with open(path) as f:
        data = json.load(f)
    return FittedParams(
        sigma_hat=float(data["sigma_hat"]),
        susceptibility_hat={k: float(v) for k, v in data["susceptibility_hat"].items()},
        train_log_likelihood=float(data["train_log_likelihood"]),
    )


def resolve_likelihoods(scenario: Scenario, choice: str) -> Dict[int, float]:
    """Map an estimator choice string to per-PoI probabilities.

    Choices: "oracle", "fitted:<params.json>", or "external:<map.json>"
    where the external file is either {seed: {poi_id: prob}} covering
    several scenarios or a flat {poi_id: prob} object; each of the
    scenario's PoIs needs a value in [0, 1].
    """
    if choice == "oracle":
        return oracle_likelihoods(scenario)
    if choice.startswith("fitted:"):
        return predict(load_fitted(choice.split(":", 1)[1]), scenario)
    if choice.startswith("external:"):
        with open(choice.split(":", 1)[1]) as f:
            data = json.load(f)
        if data and all(isinstance(v, dict) for v in data.values()):
            key = str(scenario.seed)
            if key not in data:
                raise KeyError(f"external likelihood file has no entry for seed {key}")
            data = data[key]
        probs = {int(k): float(v) for k, v in data.items()}
        missing = [poi.id for poi in scenario.pois if poi.id not in probs]
        if missing:
            raise KeyError(f"external likelihoods missing PoI ids {missing}")
        outside = [poi.id for poi in scenario.pois if not 0.0 <= probs[poi.id] <= 1.0]
        if outside:
            raise ValueError(f"external likelihoods of PoI ids {outside} are not in [0, 1]")
        return {poi.id: probs[poi.id] for poi in scenario.pois}
    raise ValueError(f"unknown estimator choice {choice!r}")
