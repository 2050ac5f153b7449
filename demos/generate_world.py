"""Generate a survey world and inspect its damage field.

A scenario is a disc-shaped map holding classed points of interest and
hidden wind-gust pockets.  Each PoI's damage flag is drawn once, with
probability set by its class susceptibility and its distance to the
pockets.  The same seed always rebuilds the same world, so file output
is purely a convenience.
"""

import json
import tempfile
from pathlib import Path

import mrsurvey as m
from mrsurvey.scenario import scenario_to_dict

scenario = m.generate_scenario(seed=2027, n_pois=10)
params = scenario.params

print(f"seed {scenario.seed}: {len(scenario.pois)} PoIs, "
      f"{len(scenario.wind_pockets)} wind pockets, "
      f"map radius {params.map_radius:.0f} m")
print(f"generative model: sigma={params.sigma:.0f}, "
      f"susceptibility={params.susceptibility}, rule={params.combine_rule}")
print()

# Ground truth next to the model's marginal for every PoI.
print(f"{'id':>3} {'class':>9} {'x':>8} {'y':>8} {'p(damage)':>10} {'damaged':>8}")
for poi in scenario.pois:
    p = m.damage_probability((poi.x, poi.y), poi.poi_class,
                             scenario.wind_pockets, params)
    print(f"{poi.id:>3} {poi.poi_class:>9} {poi.x:>8.1f} {poi.y:>8.1f} "
          f"{p:>10.4f} {str(poi.damaged):>8}")

# The probability decays with distance to the nearest pocket.
pocket = scenario.wind_pockets[0]
print(f"\ndecay away from the pocket at ({pocket.x:.1f}, {pocket.y:.1f}):")
for d in (0.0, 30.0, 60.0, 120.0, 240.0):
    p = m.damage_probability((pocket.x + d, pocket.y), "forest",
                             (pocket,), params)
    print(f"  forest at {d:>5.0f} m: {p:.4f}")

# The proximity graph connects nodes within 400 m, weighted 1 - d/400,
# with one-hot class features per node.
graph = m.build_graph(scenario)
n_cross = sum(1 for e in graph.edges if e.src != e.dst)
print(f"\nproximity graph: {len(graph.nodes)} nodes, "
      f"{n_cross} cross edges within cutoff")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    m.write_scenario(scenario, out / "scenario.json")
    m.write_graph(graph, out / "graph.json")
    loaded = m.load_scenario(out / "scenario.json")
    assert scenario_to_dict(loaded) == scenario_to_dict(scenario)
    size = (out / "graph.json").stat().st_size
    print(f"round trip through scenario.json ok, graph file {size} bytes")
    print(json.dumps(json.loads((out / "scenario.json").read_text())["pois"][0]))
