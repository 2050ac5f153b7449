"""Synthetic storm-damage scenarios for search-and-inspection missions.

A scenario is a disc-shaped map with points of interest (PoIs) of three
classes (forest, field, building), a small number of wind-gust pockets,
and a Bernoulli damaged flag per PoI drawn from a Gaussian falloff model:
the probability that a pocket at distance d damages a PoI is

    p = susceptibility(class) * exp(-d^2 / (2 * sigma^2))

and the contributions of several pockets combine with noisy-OR
(1 - prod(1 - p_i)) by default.  Everything is deterministic given the
seed and the generative parameters.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

# PoI classes and their default susceptibility to wind damage.
POI_CLASSES = ("forest", "field", "building")
DEFAULT_SUSCEPTIBILITY = {"forest": 1.0, "field": 0.8, "building": 0.2}
DEFAULT_SIGMA = 60.0
DEFAULT_INSPECT_TIME = 30.0

# Graph export: nodes within this distance (meters) are connected with a
# linearly decaying weight; building PoIs occupy the "cabin" slot.
GRAPH_EDGE_CUTOFF = 400.0
ONEHOT_ORDER = ("field", "forest", "cabin", "wind_gust_pocket")

COMBINE_RULES = ("noisy_or", "max")


@dataclass(frozen=True)
class GenerativeParams:
    """Knobs of the damage model and map geometry."""

    sigma: float = DEFAULT_SIGMA
    susceptibility: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SUSCEPTIBILITY)
    )
    n_wind_pockets: int = 2
    map_radius: float = 500.0
    combine_rule: str = "noisy_or"

    def __post_init__(self) -> None:
        if not math.isfinite(self.map_radius) or self.map_radius <= 0.0:
            raise ValueError(f"map_radius must be finite and positive, got {self.map_radius}")
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.n_wind_pockets < 0:
            raise ValueError(f"n_wind_pockets must be >= 0, got {self.n_wind_pockets}")
        if self.combine_rule not in COMBINE_RULES:
            raise ValueError(f"unknown combine_rule {self.combine_rule!r}")
        for cls, s in self.susceptibility.items():
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"susceptibility[{cls!r}] must be in [0, 1], got {s}")


@dataclass(frozen=True)
class PoI:
    id: int
    x: float
    y: float
    poi_class: str
    inspect_time: float = DEFAULT_INSPECT_TIME
    damaged: bool = False

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class WindPocket:
    x: float
    y: float

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Scenario:
    seed: int
    params: GenerativeParams
    start: Tuple[float, float]
    pois: Tuple[PoI, ...]
    wind_pockets: Tuple[WindPocket, ...]


def damage_probability(
    position: Tuple[float, float],
    poi_class: str,
    pockets: Sequence[WindPocket],
    params: GenerativeParams,
) -> float:
    """Probability that the PoI at `position` is damaged.

    Args:
        position: (x, y) of the PoI.
        poi_class: one of POI_CLASSES.
        pockets: wind-gust pocket locations.
        params: generative parameters (sigma, susceptibility, combine rule).

    Returns:
        Damage probability in [0, 1].  Zero when there are no pockets.
    """
    if poi_class not in params.susceptibility:
        raise ValueError(f"unknown PoI class {poi_class!r}")
    s = params.susceptibility[poi_class]
    two_sigma_sq = 2.0 * params.sigma * params.sigma
    per_pocket = []
    for pk in pockets:
        dx = position[0] - pk.x
        dy = position[1] - pk.y
        d_sq = dx * dx + dy * dy
        per_pocket.append(s * math.exp(-d_sq / two_sigma_sq))
    if not per_pocket:
        return 0.0
    if params.combine_rule == "max":
        return max(per_pocket)
    # noisy-OR: independent chances from each pocket.
    q = 1.0
    for p in per_pocket:
        q *= 1.0 - p
    return 1.0 - q


def generate_scenario(seed: int, n_pois: int, params: GenerativeParams | None = None) -> Scenario:
    """Draw a scenario: PoI layout, classes, pockets, then damaged flags.

    Draw order is fixed (positions, classes, pockets, flags) so equal
    seeds give equal scenarios byte for byte once serialized.
    """
    if params is None:
        params = GenerativeParams()
    if n_pois < 0:
        raise ValueError(f"n_pois must be >= 0, got {n_pois}")

    rng = np.random.default_rng(seed)
    radius = params.map_radius

    # Uniform over the disc: r = R * sqrt(u).
    r = radius * np.sqrt(rng.random(n_pois))
    theta = 2.0 * math.pi * rng.random(n_pois)
    xs = r * np.cos(theta)
    ys = r * np.sin(theta)
    class_idx = rng.integers(0, len(POI_CLASSES), size=n_pois)

    m = params.n_wind_pockets
    pr = radius * np.sqrt(rng.random(m))
    ptheta = 2.0 * math.pi * rng.random(m)
    pockets = tuple(
        WindPocket(float(pr[k] * math.cos(ptheta[k])), float(pr[k] * math.sin(ptheta[k])))
        for k in range(m)
    )

    damage_u = rng.random(n_pois)
    pois = []
    for i in range(n_pois):
        cls = POI_CLASSES[int(class_idx[i])]
        pos = (float(xs[i]), float(ys[i]))
        p = damage_probability(pos, cls, pockets, params)
        pois.append(
            PoI(
                id=i,
                x=pos[0],
                y=pos[1],
                poi_class=cls,
                inspect_time=DEFAULT_INSPECT_TIME,
                damaged=bool(damage_u[i] < p),
            )
        )
    return Scenario(
        seed=int(seed),
        params=params,
        start=(0.0, 0.0),
        pois=tuple(pois),
        wind_pockets=pockets,
    )


# --- serialization ---------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready dict; coordinates rounded to two decimals on write."""
    p = scenario.params
    return {
        "seed": scenario.seed,
        "params": {
            "sigma": p.sigma,
            "susceptibility": {cls: p.susceptibility[cls] for cls in POI_CLASSES},
            "n_wind_pockets": p.n_wind_pockets,
            "map_radius": p.map_radius,
            "combine_rule": p.combine_rule,
        },
        "start": [round(scenario.start[0], 2), round(scenario.start[1], 2)],
        "pois": [
            {
                "id": poi.id,
                "x": round(poi.x, 2),
                "y": round(poi.y, 2),
                "class": poi.poi_class,
                "inspect_time": poi.inspect_time,
                "damaged": poi.damaged,
            }
            for poi in scenario.pois
        ],
        "wind_pockets": [
            {"x": round(pk.x, 2), "y": round(pk.y, 2)} for pk in scenario.wind_pockets
        ],
    }


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario a dict from scenario_to_dict describes.

    Bad generative parameters, a repeated PoI id and an inspect time
    that is negative or not finite raise ValueError.
    """
    params = GenerativeParams(
        sigma=float(data["params"]["sigma"]),
        susceptibility={k: float(v) for k, v in data["params"]["susceptibility"].items()},
        n_wind_pockets=int(data["params"]["n_wind_pockets"]),
        map_radius=float(data["params"]["map_radius"]),
        combine_rule=str(data["params"]["combine_rule"]),
    )
    pois = tuple(
        PoI(
            id=int(d["id"]),
            x=float(d["x"]),
            y=float(d["y"]),
            poi_class=str(d["class"]),
            inspect_time=float(d["inspect_time"]),
            damaged=bool(d["damaged"]),
        )
        for d in data["pois"]
    )
    repeated = sorted(i for i, n in Counter(poi.id for poi in pois).items() if n > 1)
    if repeated:
        raise ValueError(f"duplicate PoI ids {repeated}")
    bad = [poi.id for poi in pois if not 0.0 <= poi.inspect_time < math.inf]
    if bad:
        raise ValueError(f"inspect times of PoI ids {bad} must be finite and >= 0")
    pockets = tuple(WindPocket(float(d["x"]), float(d["y"])) for d in data["wind_pockets"])
    return Scenario(
        seed=int(data["seed"]),
        params=params,
        start=(float(data["start"][0]), float(data["start"][1])),
        pois=pois,
        wind_pockets=pockets,
    )


def write_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(scenario), f, indent=2)
        f.write("\n")


def load_scenario(path: str) -> Scenario:
    with open(path) as f:
        return scenario_from_dict(json.load(f))


# --- graph export ----------------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    id: int
    onehot: Tuple[float, float, float, float]


@dataclass(frozen=True)
class GraphEdge:
    src: int
    dst: int
    w: float


@dataclass(frozen=True)
class ScenarioGraph:
    nodes: Tuple[GraphNode, ...]
    edges: Tuple[GraphEdge, ...]


def _onehot(slot: str) -> Tuple[float, float, float, float]:
    vec = [0.0, 0.0, 0.0, 0.0]
    vec[ONEHOT_ORDER.index(slot)] = 1.0
    return tuple(vec)


def build_graph(scenario: Scenario) -> ScenarioGraph:
    """Export the scenario as a graph of PoIs and wind pockets.

    Nodes carry a one-hot class over (field, forest, cabin,
    wind_gust_pocket).  Every node gets a self-edge of weight 1; pairs at
    distance d <= GRAPH_EDGE_CUTOFF get two directed edges of weight
    1 - d / GRAPH_EDGE_CUTOFF.
    """
    nodes: List[GraphNode] = []
    positions: List[Tuple[float, float]] = []
    for poi in scenario.pois:
        slot = "cabin" if poi.poi_class == "building" else poi.poi_class
        nodes.append(GraphNode(poi.id, _onehot(slot)))
        positions.append(poi.position)
    next_id = max((poi.id for poi in scenario.pois), default=-1) + 1
    for k, pk in enumerate(scenario.wind_pockets):
        nodes.append(GraphNode(next_id + k, _onehot("wind_gust_pocket")))
        positions.append(pk.position)

    edges: List[GraphEdge] = []
    for i, node in enumerate(nodes):
        edges.append(GraphEdge(node.id, node.id, 1.0))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            d = math.sqrt(dx * dx + dy * dy)
            if d <= GRAPH_EDGE_CUTOFF:
                w = 1.0 - d / GRAPH_EDGE_CUTOFF
                edges.append(GraphEdge(nodes[i].id, nodes[j].id, w))
                edges.append(GraphEdge(nodes[j].id, nodes[i].id, w))
    return ScenarioGraph(nodes=tuple(nodes), edges=tuple(edges))


def graph_to_dict(graph: ScenarioGraph) -> dict:
    return {
        "nodes": [{"id": n.id, "onehot": list(n.onehot)} for n in graph.nodes],
        "edges": [{"src": e.src, "dst": e.dst, "w": e.w} for e in graph.edges],
    }


def write_graph(graph: ScenarioGraph, path: str) -> None:
    with open(path, "w") as f:
        json.dump(graph_to_dict(graph), f, indent=2)
        f.write("\n")
