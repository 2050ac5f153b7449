"""Tests for likelihood estimation: oracle, parametric fit, plumbing."""

import json
import math
import re

import numpy as np
import pytest

import reference
from mrsurvey import estimator
from mrsurvey.estimator import (
    FittedParams,
    clamp_for_planner,
    fit_estimator,
    fitted_to_dict,
    jitter_pockets,
    load_fitted,
    oracle_likelihoods,
    predict,
    resolve_likelihoods,
    write_fitted,
)
from mrsurvey.scenario import (
    POI_CLASSES,
    GenerativeParams,
    PoI,
    Scenario,
    WindPocket,
    generate_scenario,
)


def _manual_scenario(pois, pockets, params=None):
    return Scenario(seed=0, params=params or GenerativeParams(), start=(0.0, 0.0),
                    pois=tuple(pois), wind_pockets=tuple(pockets))


TRUE_PARAMS = FittedParams(
    sigma_hat=60.0,
    susceptibility_hat={"forest": 1.0, "field": 0.8, "building": 0.2},
    train_log_likelihood=0.0,
)


class TestOracle:
    def test_matches_generative_model_exactly(self):
        scen = _manual_scenario(
            [PoI(id=0, x=0.0, y=0.0, poi_class="forest"),
             PoI(id=4, x=120.0, y=0.0, poi_class="building")],
            [WindPocket(0.0, 0.0)],
        )
        lik = oracle_likelihoods(scen)
        assert lik[0] == 1.0
        assert abs(lik[4] - 0.2 * math.exp(-2.0)) <= 1e-12

    def test_no_pockets_gives_all_zero(self):
        scen = _manual_scenario([PoI(id=0, x=5.0, y=5.0, poi_class="field")], [])
        assert oracle_likelihoods(scen) == {0: 0.0}

    def test_ignores_hidden_damage_flags(self):
        base = PoI(id=0, x=30.0, y=0.0, poi_class="field")
        scen_t = _manual_scenario([PoI(0, 30.0, 0.0, "field", 30.0, True)], [WindPocket(0.0, 0.0)])
        scen_f = _manual_scenario([base], [WindPocket(0.0, 0.0)])
        assert oracle_likelihoods(scen_t) == oracle_likelihoods(scen_f)

    def test_covers_every_poi(self):
        scen = generate_scenario(3, 15)
        lik = oracle_likelihoods(scen)
        assert sorted(lik) == [p.id for p in scen.pois]
        assert all(0.0 <= v <= 1.0 for v in lik.values())


class TestPredict:
    def test_true_params_reproduce_oracle_exactly(self):
        for seed in (1, 2, 3):
            scen = generate_scenario(seed, 10)
            assert predict(TRUE_PARAMS, scen) == oracle_likelihoods(scen)

    def test_closed_form_value(self):
        scen = _manual_scenario([PoI(id=2, x=60.0, y=0.0, poi_class="forest")],
                                [WindPocket(0.0, 0.0)])
        lik = predict(TRUE_PARAMS, scen)
        assert abs(lik[2] - math.exp(-0.5)) <= 1e-12

    def test_no_pockets_gives_zero_map(self):
        scen = _manual_scenario([PoI(id=0, x=1.0, y=1.0, poi_class="forest")], [])
        assert predict(TRUE_PARAMS, scen) == {0: 0.0}


class TestClamp:
    def test_extremes_pulled_inside_open_interval(self):
        out = clamp_for_planner({0: 0.0, 1: 1.0, 2: 0.5})
        assert out[0] == 1e-6
        assert out[1] == 1.0 - 1e-6
        assert out[2] == 0.5

    def test_custom_eps(self):
        out = clamp_for_planner({0: 0.0}, eps=0.01)
        assert out[0] == 0.01


class TestFit:
    def test_all_undamaged_drives_susceptibilities_to_floor(self):
        pois = [PoI(id=i, x=10.0 * i, y=0.0, poi_class=cls, damaged=False)
                for i, cls in enumerate(["forest", "field", "building"] * 4)]
        scens = [_manual_scenario(pois, [WindPocket(0.0, 0.0)])] * 3
        fp = fit_estimator(scens)
        for cls in ("forest", "field", "building"):
            assert abs(fp.susceptibility_hat[cls] - 1e-6) <= 1e-9

    def test_all_damaged_at_pocket_drives_susceptibility_to_ceiling(self):
        pois = [PoI(id=i, x=0.0, y=0.0, poi_class="forest", damaged=True) for i in range(8)]
        fp = fit_estimator([_manual_scenario(pois, [WindPocket(0.0, 0.0)])])
        assert abs(fp.susceptibility_hat["forest"] - 1.0) <= 1e-9

    def test_missing_class_falls_back_to_half(self):
        pois = [PoI(id=i, x=5.0 * i, y=0.0, poi_class="forest", damaged=(i % 2 == 0))
                for i in range(6)]
        fp = fit_estimator([_manual_scenario(pois, [WindPocket(0.0, 0.0)])])
        assert fp.susceptibility_hat["field"] == 0.5
        assert fp.susceptibility_hat["building"] == 0.5

    def test_log_likelihood_history_non_decreasing(self):
        scens = [generate_scenario(s, 8) for s in range(40)]
        fp = fit_estimator(scens)
        assert fp.converged
        assert len(fp.ll_history) >= 1
        for a, b in zip(fp.ll_history, fp.ll_history[1:]):
            assert b >= a - 1e-12
        assert fp.train_log_likelihood == fp.ll_history[-1]

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            fit_estimator([])
        with pytest.raises(ValueError):
            fit_estimator([_manual_scenario([], [WindPocket(0.0, 0.0)])])

    def test_recovers_parameters_on_moderate_sample(self):
        # looser bands than the large-sample acceptance check
        scens = [generate_scenario(s, 12) for s in range(400)]
        fp = fit_estimator(scens)
        assert 45.0 <= fp.sigma_hat <= 75.0
        assert abs(fp.susceptibility_hat["forest"] - 1.0) <= 0.2
        assert abs(fp.susceptibility_hat["field"] - 0.8) <= 0.2
        assert abs(fp.susceptibility_hat["building"] - 0.2) <= 0.2


def _reference_bernoulli_ll(g, damaged, s):
    # the log-likelihood as first written: one row sum over the pockets
    if g.size == 0:
        return 0.0
    sg = np.minimum(s[:, None] * g, 1.0 - 1e-12)
    log_q = np.log1p(-sg).sum(axis=1)
    ll = float(log_q[~damaged].sum())
    if damaged.any():
        p = -np.expm1(log_q[damaged])
        ll += float(np.log(np.maximum(p, 1e-300)).sum())
    return ll


def _padded_falloff(rng, n, width, sigma=60.0):
    # rows with 0..width pockets, padded with inf distances as in a
    # training set of mixed pocket counts
    d_sq = rng.uniform(0.0, 500.0, size=(n, width)) ** 2
    d_sq[np.arange(width)[None, :] >= rng.integers(0, width + 1, size=n)[:, None]] = math.inf
    return np.exp(-d_sq / (2.0 * sigma * sigma))


def _pocket_major(g, damaged):
    # g's rows as the fit lays them out: one column per row, the
    # undamaged rows first, then the damaged ones, each in row order
    order = np.concatenate([np.flatnonzero(~damaged), np.flatnonzero(damaged)])
    return np.ascontiguousarray(g.T[:, order]), order, int(np.count_nonzero(~damaged))


def _fit_hex(fp):
    return (
        fp.sigma_hat.hex(),
        {cls: v.hex() for cls, v in fp.susceptibility_hat.items()},
        fp.train_log_likelihood.hex(),
        [ll.hex() for ll in fp.ll_history],
        fp.converged,
    )


class TestPocketSum:
    @pytest.mark.parametrize("width", range(1, 11))
    def test_bit_identical_to_the_row_sum(self, width):
        rng = np.random.default_rng(width)
        g = _padded_falloff(rng, 3000, width)
        s = rng.choice([0.0, 1e-6, 0.2, 0.8, 1.0], size=len(g))
        want = np.log1p(-np.minimum(s[:, None] * g, 1.0 - 1e-12)).sum(axis=1)
        damaged = rng.random(len(g)) < 0.3
        cols, order, n_miss = _pocket_major(g, damaged)
        lik = estimator._Likelihood(cols.shape)
        ll = lik.log_likelihood(cols, s[order], n_miss)
        got = np.empty_like(lik.log_q)
        got[order] = lik.log_q  # back to row order
        # the rows with no pocket in reach sum to zero; compare its sign too
        assert np.any(want == 0.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ll == _reference_bernoulli_ll(g, damaged, s)

    @pytest.mark.parametrize("width", range(1, 11))
    def test_scalar_susceptibility_is_bit_identical_to_a_full_row(self, width):
        rng = np.random.default_rng(100 + width)
        g = _padded_falloff(rng, 3000, width)
        damaged = rng.random(len(g)) < 0.3
        cols, _, n_miss = _pocket_major(g, damaged)
        lik = estimator._Likelihood(cols.shape)
        for s_val in (1e-6, 0.2, 0.8, 1.0, 0.123456789):
            s = np.full(len(g), s_val)
            want = lik.log_likelihood(cols, s, n_miss)
            want_q = lik.log_q.tobytes()
            assert lik.log_likelihood(cols, s_val, n_miss) == want
            assert lik.log_q.tobytes() == want_q
            assert want == _reference_bernoulli_ll(g, damaged, s)

    @pytest.mark.parametrize("counts", [(0, 1, 2, 3), (1, 9, 4), (8, 10), (0,)])
    def test_fit_on_mixed_pocket_counts_matches_the_row_sum(self, counts):
        # (0,): no world has a pocket, so every log-likelihood is zero
        scens = [
            generate_scenario(seed, 8, GenerativeParams(n_wind_pockets=counts[seed % len(counts)]))
            for seed in range(30)
        ]
        fp = fit_estimator(scens)
        assert len(fp.ll_history) > 1
        assert _fit_hex(fp) == _fit_hex(reference.row_major_fit(scens))

    def test_default_fit_matches_the_row_major_fit(self):
        scens = [generate_scenario(s, 12) for s in range(400)]
        assert _fit_hex(fit_estimator(scens)) == _fit_hex(reference.row_major_fit(scens))


class TestPinnedFit:
    def test_default_fit_on_300_worlds(self):
        # recorded as float hex from the row-major fit
        fp = fit_estimator(generate_scenario(s, 12) for s in range(300))
        assert _fit_hex(fp) == (
            "0x1.d920471a6f6d8p+5",
            {
                "forest": "0x1.ffffffffff5d6p-1",
                "field": "0x1.8f16c9f99c5dcp-1",
                "building": "0x1.56871fc51bd5cp-2",
            },
            "-0x1.e73f8880aa360p+7",
            [
                "-0x1.5996c67243b1ap+8", "-0x1.ee305f04b2c15p+7", "-0x1.e855dc4466c91p+7",
                "-0x1.e76117c934564p+7", "-0x1.e74134cf6381cp+7", "-0x1.e73f9bf5000e2p+7",
                "-0x1.e73f8962a7127p+7", "-0x1.e73f888ae8e0cp+7", "-0x1.e73f8881210d9p+7",
                "-0x1.e73f8880af62bp+7", "-0x1.e73f8880aa360p+7",
            ],
            True,
        )


def _reference_training_rows(scenarios):
    # the training arrays as first built: one padded Python row per PoI
    max_pockets = max((len(s.wind_pockets) for s in scenarios), default=0)
    rows = []
    for s in scenarios:
        for poi in s.pois:
            row = [(poi.x - pk.x) ** 2 + (poi.y - pk.y) ** 2 for pk in s.wind_pockets]
            rows.append(row + [math.inf] * (max_pockets - len(row)))
    return np.asarray(rows, dtype=float).reshape(len(rows), max_pockets)


def _mixed_worlds():
    # pocket counts 1..9 in a scrambled order; every fifth world has no PoI
    worlds = []
    for seed in range(45):
        params = GenerativeParams(n_wind_pockets=1 + (seed * 4) % 9)
        worlds.append(generate_scenario(seed, 0 if seed % 5 == 2 else 1 + seed % 11, params))
    return worlds


class TestStreamedTrainingSet:
    def test_worlds_cover_every_width_and_empty_worlds(self):
        worlds = _mixed_worlds()
        assert {len(w.wind_pockets) for w in worlds} == set(range(1, 10))
        assert any(not w.pois for w in worlds)

    def test_arrays_match_the_row_lists(self):
        worlds = _mixed_worlds()
        data = estimator._TrainingSet(iter(worlds))
        want = _reference_training_rows(worlds)
        n = sum(len(w.pois) for w in worlds)
        assert want.shape == (n, 9)
        flags = np.array([p.damaged for w in worlds for p in w.pois])
        classes = np.array([POI_CLASSES.index(p.poi_class) for w in worlds for p in w.pois])

        def pocket_major(rows):
            # the negated rows, one column each
            return np.ascontiguousarray(-want[rows].T).tobytes()

        # every PoI: the undamaged ones, then the damaged ones
        order = np.concatenate([np.flatnonzero(~flags), np.flatnonzero(flags)])
        assert data.neg_d_sq.shape == (9, n)
        assert data.neg_d_sq.tobytes() == pocket_major(order)
        assert data.n_miss == np.count_nonzero(~flags)
        assert data.class_idx.tolist() == classes[order].tolist()
        # class by class, each class's undamaged PoIs before its damaged ones
        spans, by_class = [], []
        for c in range(len(POI_CLASSES)):
            miss = np.flatnonzero((classes == c) & ~flags)
            hit = np.flatnonzero((classes == c) & flags)
            spans.append((len(by_class), len(by_class) + len(miss) + len(hit), len(miss)))
            by_class.extend(miss.tolist() + hit.tolist())
        assert data.by_class.shape == (9, n)
        assert data.by_class.tobytes() == pocket_major(by_class)
        assert data.class_spans == spans

    def test_fit_on_an_iterator_equals_the_fit_on_a_list(self):
        worlds = _mixed_worlds()
        streamed = fit_estimator(iter(worlds))
        listed = fit_estimator(worlds)
        assert streamed == listed
        assert streamed.ll_history == listed.ll_history and len(listed.ll_history) > 1

    def test_empty_iterator_rejected_like_an_empty_list(self):
        with pytest.raises(ValueError) as from_list:
            fit_estimator([])
        with pytest.raises(ValueError) as from_iter:
            fit_estimator(iter([]))
        assert str(from_iter.value) == str(from_list.value)


class TestCalibration:
    def test_decile_buckets_match_observed_rates(self):
        # 200 held-out scenarios x 50 PoIs = 10,000 predictions
        pairs = []
        for seed in range(10_000, 10_200):
            scen = generate_scenario(seed, 50)
            lik = oracle_likelihoods(scen)
            flags = {p.id: p.damaged for p in scen.pois}
            pairs.extend((lik[pid], flags[pid]) for pid in lik)
        assert len(pairs) == 10_000
        for lo in [i / 10.0 for i in range(10)]:
            hi = lo + 0.1
            bucket = [(p, d) for p, d in pairs if lo <= p < hi or (hi == 1.0 and p == 1.0)]
            if not bucket:
                continue
            expect = sum(p for p, _ in bucket)
            var = sum(p * (1.0 - p) for p, _ in bucket)
            observed = sum(d for _, d in bucket)
            if var == 0.0:
                assert observed == expect
            else:
                assert abs(observed - expect) <= 3.0 * math.sqrt(var)


class TestPlumbing:
    def test_fitted_file_round_trip(self, tmp_path):
        path = tmp_path / "fp.json"
        write_fitted(TRUE_PARAMS, str(path))
        loaded = load_fitted(str(path))
        assert loaded.sigma_hat == TRUE_PARAMS.sigma_hat
        assert loaded.susceptibility_hat == TRUE_PARAMS.susceptibility_hat
        raw = json.loads(path.read_text())
        assert set(raw) >= {"sigma_hat", "susceptibility_hat", "train_log_likelihood"}
        assert set(raw["susceptibility_hat"]) == {"forest", "field", "building"}
        assert fitted_to_dict(TRUE_PARAMS)["sigma_hat"] == 60.0

    def test_resolve_oracle(self):
        scen = generate_scenario(5, 6)
        assert resolve_likelihoods(scen, "oracle") == oracle_likelihoods(scen)

    def test_resolve_fitted_path(self, tmp_path):
        scen = generate_scenario(5, 6)
        path = tmp_path / "fp.json"
        write_fitted(TRUE_PARAMS, str(path))
        assert resolve_likelihoods(scen, f"fitted:{path}") == predict(TRUE_PARAMS, scen)

    @pytest.mark.parametrize("edit", [
        {"sigma_hat": 0.0},
        {"sigma_hat": math.nan},
        {"sigma_hat": math.inf},
        {"susceptibility_hat": {"forest": 3.0, "field": 0.8, "building": 0.2}},
        {"susceptibility_hat": {"forest": 1.0, "field": -0.5, "building": 0.2}},
        {"susceptibility_hat": {"forest": 1.0, "field": 0.8, "building": math.nan}},
        {"susceptibility_hat": {"forest": 1.0, "field": 0.8}},
    ], ids=["sigma0", "sigma_nan", "sigma_inf", "susc_above_1", "susc_below_0", "susc_nan", "class_missing"])
    def test_resolve_fitted_rejects_invalid_parameters(self, tmp_path, edit):
        # one forest PoI: a bad value of another class is still rejected
        scen = _manual_scenario([PoI(id=0, x=30.0, y=0.0, poi_class="forest")], [WindPocket(0.0, 0.0)])
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fitted_to_dict(TRUE_PARAMS) | edit))
        with pytest.raises(ValueError):
            resolve_likelihoods(scen, f"fitted:{path}")

    @pytest.mark.parametrize("edit, message", [
        ({"susceptibility_hat": 5}, "susceptibility_hat is not a JSON object"),
        ({"sigma_hat": None}, "None is not a number"),
        ({"susceptibility_hat": {"forest": [1.0], "field": 0.8, "building": 0.2}}, "[1.0] is not a number"),
        ({"train_log_likelihood": {}}, "{} is not a number"),
    ])
    def test_load_fitted_rejects_wrong_typed_values(self, tmp_path, edit, message):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fitted_to_dict(TRUE_PARAMS) | edit))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_fitted(str(path))

    @pytest.mark.parametrize("content", [{"0": [0.5]}, {"5": {"0": 0.5, "1": None, "2": 0.5}}])
    def test_resolve_external_rejects_wrong_typed_values(self, tmp_path, content):
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(content))
        with pytest.raises(ValueError, match="is not a number"):
            resolve_likelihoods(generate_scenario(5, 3), f"external:{path}")

    def test_resolve_external_flat_and_nested(self, tmp_path):
        scen = generate_scenario(5, 3)
        ids = [p.id for p in scen.pois]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({str(i): 0.25 for i in ids}))
        assert resolve_likelihoods(scen, f"external:{flat}") == {i: 0.25 for i in ids}
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({str(scen.seed): {str(i): 0.5 for i in ids}}))
        assert resolve_likelihoods(scen, f"external:{nested}") == {i: 0.5 for i in ids}

    def test_resolve_external_missing_poi_rejected(self, tmp_path):
        scen = generate_scenario(5, 3)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"0": 0.5}))
        with pytest.raises(KeyError):
            resolve_likelihoods(scen, f"external:{bad}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, -0.25])
    def test_resolve_external_value_outside_unit_interval_rejected(self, tmp_path, value):
        scen = generate_scenario(5, 3)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({str(p.id): 0.5 for p in scen.pois} | {str(scen.pois[1].id): value}))
        with pytest.raises(ValueError):
            resolve_likelihoods(scen, f"external:{bad}")

    def test_unknown_choice_rejected(self):
        scen = generate_scenario(5, 3)
        with pytest.raises(ValueError):
            resolve_likelihoods(scen, "psychic")


class TestJitter:
    def test_zero_std_is_identity(self):
        scen = generate_scenario(8, 4)
        out = jitter_pockets(scen, 0.0, seed=1)
        assert [(w.x, w.y) for w in out.wind_pockets] == [(w.x, w.y) for w in scen.wind_pockets]

    def test_deterministic_and_displacing(self):
        scen = generate_scenario(8, 4)
        a = jitter_pockets(scen, 5.0, seed=2)
        b = jitter_pockets(scen, 5.0, seed=2)
        assert [(w.x, w.y) for w in a.wind_pockets] == [(w.x, w.y) for w in b.wind_pockets]
        assert [(w.x, w.y) for w in a.wind_pockets] != [(w.x, w.y) for w in scen.wind_pockets]
        # PoIs and ground truth are untouched
        assert a.pois == scen.pois
