"""Tests for world generation, the damage model, and graph export."""

import dataclasses
import json
import math
import re
import random

import pytest

from mrsurvey.scenario import (
    GenerativeParams,
    PoI,
    Scenario,
    WindPocket,
    build_graph,
    damage_probability,
    generate_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_graph,
    write_scenario,
)

import reference


def _single_pocket_scenario(poi_class, distance):
    params = GenerativeParams()
    poi = PoI(id=0, x=distance, y=0.0, poi_class=poi_class)
    return poi, (WindPocket(0.0, 0.0),), params


class TestDamageProbability:
    def test_forest_at_pocket_is_susceptibility(self):
        poi, pockets, params = _single_pocket_scenario("forest", 0.0)
        assert damage_probability((poi.x, poi.y), poi.poi_class, pockets, params) == 1.0

    def test_forest_at_one_sigma(self):
        poi, pockets, params = _single_pocket_scenario("forest", 60.0)
        p = damage_probability((poi.x, poi.y), poi.poi_class, pockets, params)
        assert abs(p - math.exp(-0.5)) <= 1e-12

    def test_building_at_two_sigma(self):
        poi, pockets, params = _single_pocket_scenario("building", 120.0)
        p = damage_probability((poi.x, poi.y), poi.poi_class, pockets, params)
        assert abs(p - 0.2 * math.exp(-2.0)) <= 1e-12

    def test_no_pockets_gives_zero(self):
        params = GenerativeParams()
        assert damage_probability((10.0, 5.0), "field", (), params) == 0.0

    def test_unknown_class_rejected(self):
        params = GenerativeParams()
        with pytest.raises((KeyError, ValueError)):
            damage_probability((0.0, 0.0), "swamp", (WindPocket(0.0, 0.0),), params)

    def test_two_pockets_noisy_or(self):
        params = GenerativeParams()
        pockets = (WindPocket(0.0, 0.0), WindPocket(100.0, 0.0))
        got = damage_probability((30.0, 40.0), "field", pockets, params)
        want = reference.damage_prob_ref((30.0, 40.0), "field", [(0.0, 0.0), (100.0, 0.0)])
        assert abs(got - want) <= 1e-15

    def test_two_pockets_max_rule(self):
        params = GenerativeParams(combine_rule="max")
        pockets = (WindPocket(0.0, 0.0), WindPocket(100.0, 0.0))
        got = damage_probability((30.0, 40.0), "field", pockets, params)
        want = reference.damage_prob_ref((30.0, 40.0), "field", [(0.0, 0.0), (100.0, 0.0)],
                                         combine_rule="max")
        assert abs(got - want) <= 1e-15

    def test_monotone_in_distance_and_susceptibility(self):
        params = GenerativeParams()
        pockets = (WindPocket(0.0, 0.0),)
        rng = random.Random(5)
        for _ in range(50):
            d1 = rng.uniform(0.0, 400.0)
            d2 = d1 + rng.uniform(0.0, 200.0)
            p_near = damage_probability((d1, 0.0), "field", pockets, params)
            p_far = damage_probability((d2, 0.0), "field", pockets, params)
            assert p_far <= p_near + 1e-15
            # susceptibility ordering building < field < forest at equal distance
            p_b = damage_probability((d1, 0.0), "building", pockets, params)
            p_f = damage_probability((d1, 0.0), "forest", pockets, params)
            assert p_b <= p_near <= p_f

    def test_bounded_by_max_susceptibility(self):
        params = GenerativeParams()
        rng = random.Random(6)
        pockets = tuple(WindPocket(rng.uniform(-200, 200), rng.uniform(-200, 200)) for _ in range(4))
        for _ in range(100):
            pos = (rng.uniform(-300, 300), rng.uniform(-300, 300))
            cls = rng.choice(["forest", "field", "building"])
            p = damage_probability(pos, cls, pockets, params)
            assert 0.0 <= p <= max(params.susceptibility.values()) <= 1.0


class TestGenerateScenario:
    def test_counts_and_layout(self):
        scen = generate_scenario(7, 12)
        assert len(scen.pois) == 12
        assert len(scen.wind_pockets) == 2
        assert tuple(scen.start) == (0.0, 0.0)
        assert [p.id for p in scen.pois] == list(range(12))
        for p in scen.pois:
            assert p.poi_class in {"forest", "field", "building"}
            assert p.inspect_time == 30.0
            assert math.hypot(p.x, p.y) <= scen.params.map_radius + 1e-9
        for w in scen.wind_pockets:
            assert math.hypot(w.x, w.y) <= scen.params.map_radius + 1e-9

    def test_empty_poi_list_valid(self):
        scen = generate_scenario(3, 0)
        assert scen.pois == ()
        assert len(scen.wind_pockets) == 2

    def test_deterministic_in_seed(self):
        a = generate_scenario(11, 9)
        b = generate_scenario(11, 9)
        assert scenario_to_dict(a) == scenario_to_dict(b)
        c = generate_scenario(12, 9)
        assert scenario_to_dict(a) != scenario_to_dict(c)

    def test_rejects_bad_map_radius(self):
        with pytest.raises(ValueError):
            generate_scenario(0, 3, GenerativeParams(map_radius=0.0))
        with pytest.raises(ValueError):
            generate_scenario(0, 3, GenerativeParams(map_radius=float("nan")))

    def test_damage_flags_follow_model_probabilities(self):
        # binomial check: total damaged count within 3 sigma of the
        # summed per-PoI probabilities over 10,000 sampled PoIs
        scen = generate_scenario(42, 10_000)
        probs = [
            damage_probability((p.x, p.y), p.poi_class, scen.wind_pockets, scen.params)
            for p in scen.pois
        ]
        observed = sum(p.damaged for p in scen.pois)
        expect = sum(probs)
        var = sum(q * (1.0 - q) for q in probs)
        assert abs(observed - expect) <= 3.0 * math.sqrt(var)

    def test_param_overrides_respected(self):
        params = GenerativeParams(sigma=30.0, n_wind_pockets=5, map_radius=200.0)
        scen = generate_scenario(2, 6, params)
        assert len(scen.wind_pockets) == 5
        for p in scen.pois:
            assert math.hypot(p.x, p.y) <= 200.0 + 1e-9


# One bad value of each generative knob, with the message it raises.
BAD_PARAMS = [
    ({"combine_rule": "min"}, "unknown combine_rule 'min'"),
    ({"susceptibility": {"forest": 3.0, "field": 0.8, "building": 0.2}},
     "susceptibility['forest'] must be in [0, 1], got 3.0"),
    ({"susceptibility": {"forest": 1.0, "field": math.nan, "building": 0.2}},
     "susceptibility['field'] must be in [0, 1], got nan"),
    ({"sigma": -5.0}, "sigma must be finite and positive, got -5.0"),
    ({"sigma": math.inf}, "sigma must be finite and positive, got inf"),
    ({"map_radius": 0.0}, "map_radius must be finite and positive, got 0.0"),
    ({"map_radius": math.nan}, "map_radius must be finite and positive, got nan"),
    ({"n_wind_pockets": -1}, "n_wind_pockets must be >= 0, got -1"),
]
BAD_IDS = ["combine_rule", "susceptibility", "susceptibility_nan", "sigma", "sigma_inf",
           "map_radius", "map_radius_nan", "n_wind_pockets"]


class TestGenerativeParams:
    @pytest.mark.parametrize("edit, message", BAD_PARAMS, ids=BAD_IDS)
    def test_bad_value_cannot_be_made(self, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GenerativeParams(**edit)

    @pytest.mark.parametrize("edit, message", BAD_PARAMS, ids=BAD_IDS)
    def test_bad_value_cannot_be_replaced_in(self, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(GenerativeParams(), **edit)


class TestSerialization:
    @pytest.mark.parametrize("edit, message", BAD_PARAMS, ids=BAD_IDS)
    def test_load_rejects_bad_params(self, edit, message, tmp_path):
        world = scenario_to_dict(generate_scenario(23, 5))
        world["params"].update(edit)
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(world))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(str(path))

    @pytest.mark.parametrize("key, value, message", [
        ("id", 1, "scenario: pois: duplicate PoI ids [1]"),
        ("inspect_time", -5.0, "scenario: pois: inspect times of PoI ids [2] must be finite and >= 0"),
        ("inspect_time", math.inf, "scenario: pois: inspect times of PoI ids [2] must be finite and >= 0"),
        ("class", "house", "scenario: pois[2]: class = 'house' is not one of forest, field, building"),
    ], ids=["repeated_id", "negative_inspect_time", "infinite_inspect_time", "unknown_class"])
    def test_load_rejects_pois_a_mission_cannot_use(self, key, value, message):
        world = scenario_to_dict(generate_scenario(23, 5))
        world["pois"][2][key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            scenario_from_dict(world)

    @pytest.mark.parametrize("edit, message", [
        (lambda w: w["params"].update(n_wind_pockets=3), "params: n_wind_pockets = 3, but wind_pockets holds 2"),
        (lambda w: w.update(wind_pockets=[]), "params: n_wind_pockets = 2, but wind_pockets holds 0"),
        (lambda w: w["params"].update(susceptibility={}), "params: susceptibility: forest is missing"),
        (lambda w: w["params"]["susceptibility"].pop("building"), "params: susceptibility: building is missing"),
    ], ids=["more_pockets_counted", "pockets_emptied", "susceptibility_empty", "susceptibility_short"])
    def test_load_rejects_a_world_at_odds_with_itself(self, edit, message, tmp_path):
        world = scenario_to_dict(generate_scenario(23, 5))
        edit(world)
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(world))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_scenario(str(path))

    def test_dict_round_trip_stable(self):
        scen = generate_scenario(19, 8)
        d1 = scenario_to_dict(scen)
        d2 = scenario_to_dict(scenario_from_dict(d1))
        assert d1 == d2

    def test_file_round_trip(self, tmp_path):
        scen = generate_scenario(23, 5)
        path = tmp_path / "scen.json"
        write_scenario(scen, str(path))
        loaded = load_scenario(str(path))
        assert scenario_to_dict(loaded) == scenario_to_dict(scen)
        raw = json.loads(path.read_text())
        assert set(raw) == {"seed", "params", "start", "pois", "wind_pockets"}

    def test_coordinates_written_at_two_decimals(self, tmp_path):
        scen = generate_scenario(29, 4)
        d = scenario_to_dict(scen)
        for row in d["pois"]:
            assert row["x"] == round(row["x"], 2)
            assert row["y"] == round(row["y"], 2)


def _two_poi_scenario(dist):
    params = GenerativeParams()
    pois = (
        PoI(id=0, x=0.0, y=0.0, poi_class="forest"),
        PoI(id=1, x=dist, y=0.0, poi_class="field"),
    )
    return Scenario(seed=0, params=params, start=(0.0, 0.0), pois=pois, wind_pockets=())


class TestBuildGraph:
    def test_edge_present_at_the_cutoff_with_zero_weight(self):
        g = build_graph(_two_poi_scenario(400.0))
        cross = {(e["src"], e["dst"]): e["w"] for e in g["edges"] if e["src"] != e["dst"]}
        assert cross == {(0, 1): 0.0, (1, 0): 0.0}

    def test_weight_linear_in_distance(self):
        g = build_graph(_two_poi_scenario(100.0))
        cross = {(e["src"], e["dst"]): e["w"] for e in g["edges"] if e["src"] != e["dst"]}
        assert cross == {(0, 1): 0.75, (1, 0): 0.75}

    def test_no_edge_past_the_cutoff(self):
        g = build_graph(_two_poi_scenario(400.5))
        assert all(e["src"] == e["dst"] for e in g["edges"])

    def test_single_node_graph_is_one_self_edge(self):
        params = GenerativeParams()
        scen = Scenario(seed=0, params=params, start=(0.0, 0.0),
                        pois=(PoI(id=0, x=1.0, y=2.0, poi_class="building"),),
                        wind_pockets=())
        g = build_graph(scen)
        assert len(g["nodes"]) == 1
        assert g["edges"] == [{"src": 0, "dst": 0, "w": 1.0}]

    def test_onehot_classes_and_pocket_nodes(self):
        params = GenerativeParams()
        scen = Scenario(
            seed=0, params=params, start=(0.0, 0.0),
            pois=(
                PoI(id=0, x=0.0, y=0.0, poi_class="field"),
                PoI(id=1, x=10.0, y=0.0, poi_class="forest"),
                PoI(id=2, x=20.0, y=0.0, poi_class="building"),
            ),
            wind_pockets=(WindPocket(30.0, 0.0),),
        )
        g = build_graph(scen)
        onehot = {n["id"]: n["onehot"] for n in g["nodes"]}
        assert onehot[0] == [1.0, 0.0, 0.0, 0.0]
        assert onehot[1] == [0.0, 1.0, 0.0, 0.0]
        assert onehot[2] == [0.0, 0.0, 1.0, 0.0]
        # the pocket node id continues after the highest PoI id
        assert onehot[3] == [0.0, 0.0, 0.0, 1.0]

    def test_symmetry_and_self_edges_on_generated_world(self):
        scen = generate_scenario(31, 10)
        g = build_graph(scen)
        n_nodes = len(scen.pois) + len(scen.wind_pockets)
        assert len(g["nodes"]) == n_nodes
        weights = {(e["src"], e["dst"]): e["w"] for e in g["edges"]}
        for node in g["nodes"]:
            assert weights[(node["id"], node["id"])] == 1.0
        for (u, v), w in weights.items():
            if u != v:
                assert weights[(v, u)] == w
                assert 0.0 <= w <= 1.0

    def test_graph_dict_schema(self, tmp_path):
        scen = generate_scenario(37, 4)
        g = build_graph(scen)
        assert set(g) == {"nodes", "edges"}
        assert all(set(n) == {"id", "onehot"} and len(n["onehot"]) == 4 for n in g["nodes"])
        assert all(set(e) == {"src", "dst", "w"} for e in g["edges"])
        path = tmp_path / "graph.json"
        write_graph(g, str(path))
        assert json.loads(path.read_text()) == g
