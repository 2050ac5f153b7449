"""Damage-likelihood estimators feeding the planner.

Three interchangeable sources of per-PoI damage probabilities, chosen
by `resolve_likelihoods`:

* oracle: evaluate the true generative model on the scenario,
* fitted: maximum-likelihood parameters (sigma and per-class
  susceptibility) recovered from a training set of scenarios with
  observed damaged flags, then evaluated like the oracle, and
* external: read per-PoI probabilities from a JSON file.

The fitted family is the noisy-OR Gaussian falloff model regardless of
the generative combine_rule knob; mis-specification under the "max"
ablation is deliberate.

The fit keeps its training data pocket-major, one column per PoI, in
two orders: all PoIs with the undamaged ones first (for the sigma
search) and the same columns class by class (for the susceptibility
searches).  Each likelihood probe then reads contiguous slices where
it would otherwise gather rows.  The order of the columns changes no
bit of the result: every element goes through the same ufuncs, each
PoI's pocket terms are added in pocket order as before, and each sum
over PoIs meets the same values in the same order as in reading order,
since both layouts keep reading order within every group.
"""

from __future__ import annotations

import dataclasses
import json
import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from .scenario import (
    POI_CLASSES,
    GenerativeParams,
    Scenario,
    WindPocket,
    damage_probability,
    read_object,
    value,
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
    the noisy-OR combination.  Parameters are checked like generative
    ones: sigma_hat must be finite and positive, and every PoI class
    needs a susceptibility in [0, 1]; anything else raises ValueError.
    """
    missing = [cls for cls in POI_CLASSES if cls not in params.susceptibility_hat]
    if missing:
        raise ValueError(f"fitted parameters have no susceptibility for classes {missing}")
    gen = GenerativeParams(
        sigma=params.sigma_hat,
        susceptibility=dict(params.susceptibility_hat),
        n_wind_pockets=len(scenario.wind_pockets),
        map_radius=scenario.params.map_radius,
        combine_rule="noisy_or",
    )
    return oracle_likelihoods(dataclasses.replace(scenario, params=gen))


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
    """The training worlds' PoIs as pocket-major arrays, rows in two orders.

    Reads the worlds once, one at a time, so the caller may stream them,
    and keeps two (pockets, rows) arrays of negated squared pocket
    distances, padded with -inf up to the widest pocket count:

    * neg_d_sq: every PoI, the undamaged ones first and then the damaged
      ones, each group in reading order; class_idx gives each column's
      class and n_miss the undamaged count;
    * by_class: the same columns class by class, each class's undamaged
      PoIs before its damaged ones, in reading order; class_spans gives
      each class's (start, stop, undamaged count).

    A likelihood then reads its undamaged and damaged terms, and each
    class reads its columns, as contiguous slices instead of gathering
    rows.  The fit keeps the bits it has on rows in reading order: a
    negated distance is the value np.negative gives, the -inf padding is
    the negated inf padding, and a sum over a slice meets the same values
    in the same order as a sum over the gathered rows, since every group
    keeps reading order.
    """

    def __init__(self, scenarios: Iterable[Scenario]):
        # Per damaged flag: the flat distances row by row, pocket counts
        # and classes, in reading order.
        groups = [(array("d"), array("q"), array("q")) for _ in range(2)]
        for s in scenarios:
            for poi in s.pois:
                flat, widths, classes = groups[poi.damaged]
                flat.extend(
                    -((poi.x - pk.x) ** 2 + (poi.y - pk.y) ** 2) for pk in s.wind_pockets
                )
                widths.append(len(s.wind_pockets))
                classes.append(POI_CLASSES.index(poi.poi_class))
        self.n_miss = len(groups[0][1])
        max_pockets = max(max(widths, default=0) for _, widths, _ in groups)
        self.neg_d_sq = np.full((max_pockets, self.n_miss + len(groups[1][1])), -math.inf)
        for (flat, widths, _), block in zip(groups, np.split(self.neg_d_sq, [self.n_miss], axis=1)):
            # A row-major mask over the transposed block takes the flat
            # values PoI by PoI.
            mask = np.arange(max_pockets) < np.asarray(widths, dtype=int)[:, None]
            block.T[mask] = np.asarray(flat, dtype=float)
        self.class_idx = np.concatenate([np.asarray(classes, dtype=int) for _, _, classes in groups])
        # A stable sort on (class, damaged) orders the columns by class.
        key = 2 * self.class_idx
        key[self.n_miss:] += 1
        self.by_class = np.take(self.neg_d_sq, np.argsort(key, kind="stable"), axis=1)
        self.class_spans = []
        start = 0
        for n_miss_c, n_hit_c in np.bincount(key, minlength=2 * len(POI_CLASSES)).reshape(-1, 2).tolist():
            self.class_spans.append((start, start + n_miss_c + n_hit_c, n_miss_c))
            start += n_miss_c + n_hit_c


class _Likelihood:
    """The fit's one log-likelihood evaluator, on pocket-major columns.

    Works in buffers that every probe reuses: two of the training arrays'
    shape, one for the Gaussian falloff and one for the per-pocket terms,
    and log_q, which holds each PoI's log P(no damage) from the last
    log_likelihood call.
    """

    def __init__(self, shape: Tuple[int, int]):
        self._g = np.empty(shape)
        self._t = np.empty(shape)
        self.log_q = np.empty(shape[1])

    def falloff(self, neg_d_sq: np.ndarray, sigma: float) -> np.ndarray:
        """exp(-d^2 / (2 sigma^2)) per pocket and PoI, in the first buffer.

        exp(-inf) = 0 handles the padding.
        """
        g = self._g
        np.divide(neg_d_sq, 2.0 * sigma * sigma, out=g)
        with np.errstate(under="ignore"):
            return np.exp(g, out=g)

    def log_likelihood(self, g: np.ndarray, s, n_miss: int) -> float:
        """Log-likelihood of damaged flags under noisy-OR with factors s * g.

        Args:
            g: (n_pockets, n) Gaussian falloff, a column slice of falloff().
            s: (n,) susceptibility per PoI (already class-expanded), or a
                scalar for all of them.
            n_miss: the first n_miss columns are the undamaged PoIs, the
                rest the damaged ones.

        Returns:
            Sum of log P(flag | model), computed via log1p on the survival
            side so probabilities near 0 and 1 stay accurate.
        """
        if g.size == 0:
            return 0.0
        t = self._t[:, : g.shape[1]]
        np.multiply(g, s, out=t)
        np.minimum(t, 1.0 - 1e-12, out=t)
        np.negative(t, out=t)
        np.log1p(t, out=t)
        # log P(no damage) per PoI, the sum of its pocket terms.  Below 8
        # pockets a row sum adds left to right from +0.0, so adding the
        # pocket rows one at a time gives its bits, sign of zero included.
        # From 8 on numpy sums pairwise, so the row sum is kept.
        log_q = self.log_q[: t.shape[1]]
        if len(t) >= 8:
            t.T.copy().sum(axis=1, out=log_q)
        else:
            log_q.fill(0.0)
            for row in t:
                log_q += row
        ll = float(log_q[:n_miss].sum())
        if n_miss < len(log_q):
            p = np.expm1(log_q[n_miss:])
            np.negative(p, out=p)
            np.maximum(p, 1e-300, out=p)
            ll += float(np.log(p, out=p).sum())
        return ll


def fit_estimator(scenarios: Iterable[Scenario]) -> FittedParams:
    """Fit sigma and per-class susceptibilities by coordinate descent.

    Reads `scenarios` once, one world at a time, so a generator of
    worlds is fitted without holding them all.  Each sweep runs a
    golden-section search on sigma over [5, 500] and then on each class
    susceptibility over [1e-6, 1].  Stops when a sweep improves the
    log-likelihood by less than 1e-9, or flags non-convergence after
    200 sweeps.  Classes absent from the training set fall back to
    susceptibility 0.5.
    """
    data = _TrainingSet(scenarios)
    if data.class_idx.size == 0:
        raise ValueError("training set must contain at least one PoI")
    present = [c for c, (start, stop, _) in enumerate(data.class_spans) if stop > start]
    lik = _Likelihood(data.neg_d_sq.shape)

    def full_ll(sig: float, s_rows: np.ndarray) -> float:
        return lik.log_likelihood(lik.falloff(data.neg_d_sq, sig), s_rows, data.n_miss)

    sigma = FIT_SIGMA_INIT
    susc = np.full(len(POI_CLASSES), 0.5)
    # One susceptibility per PoI, expanded once per sweep: the sigma
    # search does not change them.
    s_rows = susc[data.class_idx]
    ll = full_ll(sigma, s_rows)
    history = [ll]
    converged = False
    for _ in range(MAX_SWEEPS):
        sigma, _ = _golden_max(
            lambda sig: full_ll(sig, s_rows), SIGMA_BRACKET[0], SIGMA_BRACKET[1]
        )
        # One falloff per sweep; each class reads its own columns.
        g = lik.falloff(data.by_class, sigma)
        for c in present:
            start, stop, n_miss = data.class_spans[c]

            def class_ll(s_val: float, gc=g[:, start:stop], n_miss=n_miss) -> float:
                return lik.log_likelihood(gc, s_val, n_miss)

            susc[c], _ = _golden_max(
                class_ll, SUSCEPTIBILITY_BRACKET[0], SUSCEPTIBILITY_BRACKET[1]
            )
        s_rows = susc[data.class_idx]
        new_ll = full_ll(sigma, s_rows)
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
    data = read_object(path)
    if not {"sigma_hat", "susceptibility_hat", "train_log_likelihood"} <= data.keys():
        raise ValueError(f"{path} lacks one of sigma_hat, susceptibility_hat and train_log_likelihood")
    susceptibility = value(data, "susceptibility_hat", dict, path)
    return FittedParams(
        sigma_hat=value(data, "sigma_hat", float, path),
        susceptibility_hat={k: value(susceptibility, k, float, f"{path}: susceptibility_hat") for k in susceptibility},
        train_log_likelihood=value(data, "train_log_likelihood", float, path),
    )


def resolve_likelihoods(scenario: Scenario, choice: str) -> Dict[int, float]:
    """Map an estimator choice string to per-PoI probabilities.

    Choices: "oracle", "fitted:<params.json>", or "external:<map.json>"
    where the external file is either {seed: {poi_id: prob}} covering
    several scenarios or a flat {poi_id: prob} object.  Its keys are
    ids written as JSON writes an int key ("7", "-2"), and each of the
    scenario's PoIs needs a number in [0, 1].
    """
    if choice == "oracle":
        return oracle_likelihoods(scenario)
    if choice.startswith("fitted:"):
        return predict(load_fitted(choice.split(":", 1)[1]), scenario)
    if choice.startswith("external:"):
        path = choice.split(":", 1)[1]
        data, where = read_object(path), path
        if data and all(isinstance(v, dict) for v in data.values()):
            key = str(scenario.seed)
            if key not in data:
                raise KeyError(f"external likelihood file has no entry for seed {key}")
            data, where = data[key], f"{path}: seed {key}"
        bad = [k for k in data if not k.removeprefix("-").isdecimal()]
        if bad:
            raise ValueError(f"{where}: keys {bad} are not PoI ids")
        probs = {k: value(data, k, float, where) for k in data}
        likelihoods = {poi.id: probs.get(str(poi.id)) for poi in scenario.pois}
        missing = [i for i, p in likelihoods.items() if p is None]
        if missing:
            raise KeyError(f"external likelihoods missing PoI ids {missing}")
        outside = [i for i, p in likelihoods.items() if not 0.0 <= p <= 1.0]
        if outside:
            raise ValueError(f"external likelihoods of PoI ids {outside} are not in [0, 1]")
        return likelihoods
    raise ValueError(f"unknown estimator choice {choice!r}")
