"""The four nearest-neighbour decision rules, their tie-breaks and the
membership machinery, checked against brute-force oracles and hand
arithmetic on tiny one-dimensional fixtures."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fknne import (
    KINDS,
    ClassifierConfig,
    Dataset,
    FeatureVector,
    fit,
    kneighbors,
    predict,
    predict_many,
    textured_image,
    two_cluster_dataset,
)
from fknne.classifiers import keller_from_neighbours, neighbour_table


def dataset_1d(points, labels, ids=None):
    ids = ids or [f"s{i}" for i in range(len(points))]
    return Dataset(ids, np.array(points, dtype=float).reshape(-1, 1), labels)


def random_dataset(rng, n=40, dim=3, classes=("benign", "malignant")):
    X = rng.normal(size=(n, dim))
    labels = [classes[i % len(classes)] for i in range(n)]
    return Dataset([f"s{i:03d}" for i in range(n)], X, labels)


NO_NORM = dict(normalize=False)


class TestFit:
    def test_crisp_memberships_are_one_hot(self):
        data = dataset_1d([0.0, 1.0], ["benign", "malignant"])
        model = fit(data, ClassifierConfig(init="crisp"))
        assert model.memberships.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_keller_membership_hand_case(self):
        # the A sample at 2.0 has nearest others {A at 1.0, B at 3.0, A at 0.0}
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 10.0], ["A", "A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(init="keller", k_init=3, **NO_NORM))
        u = model.memberships[2]
        assert u[0] == pytest.approx(0.51 + 0.49 * 2 / 3, abs=1e-12)
        assert u[1] == pytest.approx(0.49 * 1 / 3, abs=1e-12)

    def test_keller_own_class_at_least_051(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng)
        model = fit(data, ClassifierConfig(init="keller", k_init=5))
        for j, lab in enumerate(data.labels):
            assert model.memberships[j, data.classes.index(lab)] >= 0.51

    def test_memberships_always_sum_to_one(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng)
        for init in ("crisp", "keller"):
            model = fit(data, ClassifierConfig(init=init, k_init=7))
            sums = model.memberships.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9)
            assert (model.memberships >= 0).all() and (model.memberships <= 1).all()

    def test_oversized_k_init_clamps_with_flag(self):
        data = dataset_1d([0.0, 1.0, 2.0], ["A", "A", "B"])
        model = fit(data, ClassifierConfig(init="keller", k_init=99))
        assert model.k_init_clamped
        assert model.k_init_used == 2

    def test_model_is_immutable(self):
        model = fit(dataset_1d([0.0, 1.0], ["A", "B"]))
        with pytest.raises(AttributeError):
            model.memberships = np.eye(2)
        assert model.memberships.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_replaced_model_pools_equal_a_fresh_fits(self):
        # Class pools are computed on first use; a model replaced from one
        # whose pools were already computed computes its own.
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 5.0], ["B", "A", "B", "B", "A"])
        cfg = ClassifierConfig(init="keller", k_init=2)
        crisp, fresh = fit(data), fit(data, cfg)
        assert [p.tolist() for p in crisp._class_pools] == [[1, 4], [0, 2, 3]]
        model = replace(crisp, config=cfg, memberships=fresh.memberships)
        assert "_class_pools" not in vars(model)
        assert len(model._class_pools) == len(fresh._class_pools) == 2
        for got, want in zip(model._class_pools, fresh._class_pools):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        with pytest.raises(AttributeError):
            model._class_pools = ()
        with pytest.raises(AttributeError):
            model.label_index = np.zeros(5, dtype=np.intp)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset([], np.empty((0, 2)), [])


class TestKellerNeighbourOrder:
    # A reused leave-one-out fold puts a row's next neighbour where the
    # held-out row stood, so its columns need not be in distance order.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 12), st.integers(1, 10), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_permuted_neighbour_columns_give_the_same_bits(self, c, pool, n, k, seed):
        rng = np.random.default_rng(seed)
        one_hot = np.eye(c)[rng.integers(0, c, pool)]
        nbrs = rng.integers(0, pool, (n, k))
        label_index = rng.integers(0, c, n)
        want = keller_from_neighbours(nbrs, label_index, one_hot)
        got = keller_from_neighbours(rng.permuted(nbrs, axis=1), label_index, one_hot)
        assert got.tobytes() == want.tobytes()


def normalized(values):
    """One feature column as fit's min-max normalization leaves it."""
    return fit(dataset_1d(values, ["A"] * len(values))).X[:, 0]


class TestMinmaxNormalize:
    def test_simple_ramp(self):
        assert normalized([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_input_maps_to_zero(self):
        assert normalized([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]

    def test_random_input_spans_unit_interval(self):
        rng = np.random.default_rng(5)
        out = normalized(rng.normal(size=100))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        base = normalized(x)
        for a, b in [(2.0, 3.0), (0.1, -7.0), (1000.0, 0.5)]:
            assert np.allclose(normalized(a * x + b), base, atol=1e-9)


class TestKneighbors:
    def test_single_training_point(self):
        data = dataset_1d([5.0], ["A"])
        model = fit(data, ClassifierConfig(k=1, **NO_NORM))
        assert kneighbors(model, np.array([4.0]), 1) == [("s0", 1.0)]

    def test_equidistant_tie_broken_by_id(self):
        data = dataset_1d([1.0, 3.0], ["A", "B"], ids=["zz", "aa"])
        model = fit(data, ClassifierConfig(**NO_NORM))
        first, second = kneighbors(model, np.array([2.0]), 2)
        assert first[0] == "aa" and second[0] == "zz"

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        data = Dataset([f"p{i:02d}" for i in range(50)], X,
                       ["A" if i % 2 else "B" for i in range(50)])
        model = fit(data, ClassifierConfig(**NO_NORM))
        for _ in range(20):
            q = rng.normal(size=2)
            dists = np.sqrt(((X - q) ** 2).sum(axis=1))
            oracle = sorted(zip(dists, data.ids))
            got = kneighbors(model, q, 5)
            assert got == [(sid, d) for d, sid in oracle[:5]]

    def test_class_filter_restricts_pool(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0], ["A", "B", "A", "B"])
        model = fit(data, ClassifierConfig(**NO_NORM))
        got = kneighbors(model, np.array([0.0]), 2, class_filter="B")
        assert [sid for sid, _ in got] == ["s1", "s3"]

    def test_schema_mismatch_rejected(self):
        data = dataset_1d([0.0], ["A"])
        model = fit(data)
        with pytest.raises(ValueError, match="schema"):
            kneighbors(model, FeatureVector(("other",), np.array([1.0])), 1)


class TestPredictKnn:
    def test_single_nearest_neighbour(self):
        data = dataset_1d([0.0, 10.0], ["benign", "malignant"])
        model = fit(data, ClassifierConfig(kind="knn", k=1, **NO_NORM))
        p = predict(model, np.array([1.0]), "knn")
        assert p.label == "benign"
        assert p.scores.tolist() == [1.0, 0.0]

    def test_vote_fractions(self):
        data = dataset_1d([0.0, 0.5, 5.0], ["A", "A", "B"])
        model = fit(data, ClassifierConfig(k=3, **NO_NORM))
        p = predict(model, np.array([1.0]), "knn")
        assert p.label == "A"
        assert p.scores.tolist() == [2 / 3, 1 / 3]

    def test_vote_tie_goes_to_closer_class(self):
        data = dataset_1d([1.5, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(k=2, **NO_NORM))
        p = predict(model, np.array([2.0]), "knn")
        assert p.label == "A"
        assert p.scores.tolist() == [0.5, 0.5]

    def test_matches_brute_force_vote_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 5))
        labels = ["pos" if rng.random() < 0.5 else "neg" for _ in range(200)]
        data = Dataset([f"s{i:03d}" for i in range(200)], X, labels)
        model = fit(data, ClassifierConfig(kind="knn", k=5, **NO_NORM))
        for _ in range(50):
            q = rng.normal(size=5)
            d = np.sqrt(((X - q) ** 2).sum(axis=1))
            order = sorted(range(200), key=lambda i: (d[i], data.ids[i]))[:5]
            votes = {}
            for i in order:
                votes[labels[i]] = votes.get(labels[i], 0) + 1
            best = max(votes.values())
            tied = sorted(c for c, v in votes.items() if v == best)
            expected = min(
                tied,
                key=lambda c: (sum(d[i] for i in order if labels[i] == c),
                               data.classes.index(c)),
            )
            assert predict(model, q, "knn").label == expected


class TestPredictFknn:
    def test_inverse_square_weighting_hand_case(self):
        # neighbours at d=1 (A) and d=2 (B), m=2: weights 1 and 1/4
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknn", k=2, m=2.0, **NO_NORM))
        p = predict(model, np.array([2.0]), "fknn")
        assert p.scores == pytest.approx([0.8, 0.2], abs=1e-12)
        assert p.label == "A"

    def test_exact_match_returns_sample_membership(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 10.0], ["A", "A", "A", "B", "B"])
        cfg = ClassifierConfig(kind="fknn", k=3, init="keller", k_init=3, **NO_NORM)
        model = fit(data, cfg)
        p = predict(model, np.array([2.0]), "fknn")
        assert np.allclose(p.scores, model.memberships[2], atol=1e-12)

    def test_scores_form_a_distribution(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, n=60)
        model = fit(data, ClassifierConfig(kind="fknn", k=7, init="keller"))
        for _ in range(100):
            p = predict(model, rng.normal(size=3), "fknn")
            assert abs(p.scores.sum() - 1.0) < 1e-9
            assert (p.scores >= 0).all() and (p.scores <= 1).all()


class TestPredictKnne:
    def test_mean_distance_hand_case(self):
        data = dataset_1d([0.0, 1.0, 3.0, 5.0], ["A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=2, **NO_NORM))
        p = predict(model, np.array([2.0]), "knne")
        # mean_A = (2+1)/2 = 1.5, mean_B = (1+3)/2 = 2.0
        assert p.label == "A"
        assert p.scores == pytest.approx([4 / 7, 3 / 7], abs=1e-12)

    def test_zero_mean_takes_all_mass(self):
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=1, **NO_NORM))
        p = predict(model, np.array([1.0]), "knne")
        assert p.label == "A"
        assert p.scores.tolist() == [1.0, 0.0]

    def test_symmetric_fixture_ties_to_first_class(self):
        data = dataset_1d([1.0, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=1, **NO_NORM))
        p = predict(model, np.array([2.0]), "knne")
        assert p.label == "A"
        assert p.scores.tolist() == [0.5, 0.5]

    def test_small_class_uses_all_available(self):
        data = dataset_1d([0.0, 1.0, 2.0, 9.0], ["A", "A", "A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=3, **NO_NORM))
        p = predict(model, np.array([1.0]), "knne")  # class B has one sample
        assert abs(p.scores.sum() - 1.0) < 1e-12


class TestPredictFknne:
    def test_inverse_square_weighting_hand_case(self):
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknne", k=1, m=2.0, **NO_NORM))
        p = predict(model, np.array([2.0]), "fknne")
        assert p.scores == pytest.approx([0.8, 0.2], abs=1e-12)
        assert p.label == "A"

    def test_symmetric_fixture_ties_to_first_class(self):
        data = dataset_1d([1.0, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknne", k=1, **NO_NORM))
        p = predict(model, np.array([2.0]), "fknne")
        assert p.label == "A"
        assert p.scores == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_crisp_argmax_equals_inverse_distance_mass(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, n=30)
        model = fit(data, ClassifierConfig(kind="fknne", k=3, init="crisp", **NO_NORM))
        X = np.asarray(data.X)
        for _ in range(50):
            q = rng.normal(size=3)
            masses = []
            for c in data.classes:
                pool = [i for i, l in enumerate(data.labels) if l == c]
                d = np.sort(np.sqrt(((X[pool] - q) ** 2).sum(axis=1)))[:3]
                masses.append((d ** -2.0).sum())
            expected = data.classes[int(np.argmax(masses))]
            assert predict(model, q, "fknne").label == expected

    def test_exact_match_rule_on_pool_union(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 10.0], ["A", "A", "A", "B", "B"])
        cfg = ClassifierConfig(kind="fknne", k=2, init="keller", k_init=3, **NO_NORM)
        model = fit(data, cfg)
        p = predict(model, np.array([3.0]), "fknne")
        assert np.allclose(p.scores, model.memberships[3], atol=1e-12)

    def test_keller_can_disagree_with_knne(self):
        # soft labels shift the fuzzy variant away from the crisp ranking
        rng = np.random.default_rng(6)
        data = random_dataset(rng, n=40)
        crisp = fit(data, ClassifierConfig(kind="knne", k=5))
        fuzzy = fit(data, ClassifierConfig(kind="fknne", k=5, init="keller"))
        queries = rng.normal(size=(200, 3))
        labels_crisp = [predict(crisp, q, "knne").label for q in queries]
        labels_fuzzy = [predict(fuzzy, q, "fknne").label for q in queries]
        assert labels_crisp != labels_fuzzy


class TestSharedInvariants:
    def test_scores_are_distributions_and_label_is_argmax(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, n=50)
        model = fit(data, ClassifierConfig(k=5, init="keller"))
        for kind in KINDS:
            for _ in range(50):
                p = predict(model, rng.normal(size=3), kind)
                assert abs(p.scores.sum() - 1.0) < 1e-9
                assert (p.scores >= 0).all() and (p.scores <= 1).all()
                assert p.scores[p.classes.index(p.label)] == p.scores.max()

    def test_uniform_feature_scaling_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        labels = ["benign" if i % 2 else "malignant" for i in range(40)]
        ids = [f"s{i:02d}" for i in range(40)]
        base = fit(Dataset(ids, X, labels), ClassifierConfig(k=5, **NO_NORM))
        scaled = fit(Dataset(ids, X * 7.3, labels), ClassifierConfig(k=5, **NO_NORM))
        for _ in range(50):
            q = rng.normal(size=3)
            assert predict(base, q, "knn").label == predict(scaled, q * 7.3, "knn").label
            assert predict(base, q, "knne").label == predict(scaled, q * 7.3, "knne").label
            for kind in ("fknn", "fknne"):
                s0 = predict(base, q, kind).scores
                s1 = predict(scaled, q * 7.3, kind).scores
                assert np.allclose(s0, s1, atol=1e-9)

    def test_training_order_invariance(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=30)
        perm = rng.permutation(30)
        shuffled = Dataset([data.ids[i] for i in perm], np.asarray(data.X)[perm],
                           [data.labels[i] for i in perm])
        cfg = ClassifierConfig(k=3, init="keller")
        m1, m2 = fit(data, cfg), fit(shuffled, cfg)
        for kind in KINDS:
            for _ in range(25):
                q = rng.normal(size=3)
                p1, p2 = predict(m1, q, kind), predict(m2, q, kind)
                assert p1.label == p2.label
                assert np.allclose(p1.scores, p2.scores, atol=1e-12)

    def test_k1_crisp_all_rules_return_nearest_label(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, n=30)
        model = fit(data, ClassifierConfig(k=1, init="crisp"))
        X = np.asarray(model.X)
        for _ in range(50):
            q_raw = rng.normal(size=3)
            # normalize the query the same way the model does
            from fknne.classifiers import _query_matrix
            q = _query_matrix(model, [q_raw])[0]
            d = np.sqrt(((X - q) ** 2).sum(axis=1))
            if np.sum(d == d.min()) > 1:
                continue
            expected = data.labels[int(np.argmin(d))]
            for kind in KINDS:
                assert predict(model, q_raw, kind).label == expected

    def test_dispatch_follows_config_kind(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, n=20)
        q = rng.normal(size=3)
        for kind in KINDS:
            model = fit(data, ClassifierConfig(kind=kind, k=3))
            assert predict(model, q).scores.tolist() == predict(model, q, kind).scores.tolist()

    def test_unknown_kind_is_rejected(self):
        model = fit(dataset_1d([0.0, 1.0], ["A", "B"]))
        with pytest.raises(ValueError, match="kind must be one of"):
            predict(model, [0.5], kind="bogus")
        with pytest.raises(ValueError, match="kind must be one of"):
            predict_many(model, [[0.5]], kind="bogus")


class TestSmallFuzzifier:
    """With m close to 1 every d^(-2/(m-1)) of a distant query underflows
    to 0; the weights are then taken relative to the nearest distance."""

    @staticmethod
    def expected_scores(d, memberships, m):
        # w_i / sum(w) with w_i = (d_min/d_i)^(2/(m-1)), in log space
        logw = -2.0 / (m - 1.0) * (np.log(d) - np.log(d.min()))
        w = np.exp(logw)
        return (w[:, None] * memberships).sum(axis=0) / w.sum()

    @pytest.mark.parametrize("m", [1.01, 1.001])
    def test_fknn_far_query_scores_are_finite(self, m):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0], ["benign", "benign", "malignant", "malignant"])
        model = fit(data, ClassifierConfig(kind="fknn", k=3, m=m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = predict(model, np.array([1000.0]), "fknn")
        d = np.abs(1000.0 / 3.0 - np.array([1.0, 2 / 3, 1 / 3]))
        expected = self.expected_scores(d, np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]), m)
        assert np.isfinite(p.scores).all()
        assert p.scores == pytest.approx(expected, abs=1e-12)
        assert p.label == "malignant"

    @pytest.mark.parametrize("m", [1.01, 1.001])
    def test_fknne_far_query_scores_are_finite(self, m):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0], ["benign", "benign", "malignant", "malignant"])
        model = fit(data, ClassifierConfig(kind="fknne", k=2, m=m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = predict(model, np.array([-1000.0]), "fknne")
        assert np.isfinite(p.scores).all()
        assert abs(p.scores.sum() - 1.0) < 1e-12
        assert p.label == "benign"

    def test_scores_unchanged_when_weights_do_not_underflow(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0], ["A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(kind="fknn", k=3, m=1.01, **NO_NORM))
        p = predict(model, np.array([1.5]), "fknn")
        w = np.array([0.5, 0.5, 1.5]) ** (-2.0 / 0.01)
        assert p.scores.tolist() == ((w[:, None] * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
                                     .sum(axis=0) / w.sum()).tolist()


class TestUnrankableQueries:
    """A non-finite query, or one so far out that every distance overflows,
    has no neighbour order; it is rejected by row instead of scored NaN."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad, reason", [
        pytest.param([np.nan, 0.0, 0.0], "must be finite", id="nan"),
        pytest.param([np.inf, 0.0, 0.0], "must be finite", id="inf"),
        pytest.param([1e300, 0.0, 0.0], "overflows", id="overflow"),
    ])
    def test_rejected_naming_the_row(self, kind, bad, reason):
        model = fit(two_cluster_dataset(10, 3), ClassifierConfig(kind=kind))
        with pytest.raises(ValueError, match=f"query row 0: .*{reason}"):
            predict(model, bad)
        with pytest.raises(ValueError, match=f"query row 1: .*{reason}"):
            predict_many(model, [[0.0, 0.0, 0.0], bad])


class TestOverflowingFeatureSpan:
    ROWS = [[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0], [5.0, 3.0]]

    def data(self, rows=ROWS):
        return Dataset(["a", "b", "c", "d"], rows, ["x", "y", "x", "x"],
                       feature_names=("wide", "narrow"))

    def test_rejected_naming_the_feature(self):
        with pytest.raises(ValueError, match="feature 'wide': max - min overflows"):
            fit(self.data())

    def test_accepted_without_normalization(self):
        model = fit(self.data(), ClassifierConfig(kind="knn", k=1, normalize=False))
        assert np.isfinite(model.X).all()

    def test_keller_init_ranks_overflowing_distances_last(self):
        # a and b are 2e154 apart: that distance overflows to inf.
        rows = [[-1e154, 0.0], [1e154, 1.0], [0.0, 2.0], [5.0, 3.0]]
        model = fit(self.data(rows), ClassifierConfig(init="keller", k_init=1, normalize=False))
        assert np.allclose(model.memberships, [[1.0, 0.0], [0.49, 0.51], [1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("span", [8.9e307, np.finfo(np.float64).max])
    def test_largest_finite_span_still_normalizes(self, span):
        rows = [[0.0, 0.0], [span, 1.0], [0.0, 2.0], [5.0, 3.0]]
        model = fit(self.data(rows), ClassifierConfig(kind="knn", k=1))
        assert np.isfinite(model.X).all()
        assert predict(model, [span, 1.0]).label == "y"


class TestTwoClusterDataset:
    @pytest.mark.parametrize("field, value, message", [
        ("n_per_class", 2.5, "n_per_class must be an integer, got 2.5"),
        ("n_per_class", 0, "n_per_class must be >= 1"),
        ("n_features", True, "n_features must be an integer, got True"),
        ("n_features", 0, "n_features must be >= 1"),
    ])
    def test_synthetic_sizes_rejected_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            two_cluster_dataset(**{field: value})


class TestTexturedImage:
    @pytest.mark.parametrize("field, value, message", [
        ("width", 2.5, "width must be an integer, got 2.5"),
        ("width", 0, "width must be >= 1"),
        ("height", True, "height must be an integer, got True"),
        ("height", "8", "height must be an integer, got '8'"),
        ("levels", 1, "levels must be >= 2"),
        ("levels", 300.0, "levels must be an integer, got 300.0"),
        ("levels", 65537, "levels must be <= 65536"),
        ("smoothness", 0, "smoothness must be >= 1"),
        ("smoothness", 1.5, "smoothness must be an integer, got 1.5"),
    ])
    def test_bad_field_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            textured_image(**{field: value})

    def test_numpy_integer_fields_and_the_level_bounds_accepted(self):
        img = textured_image(np.int64(5), np.uint8(3), levels=np.int32(2), smoothness=np.int16(2))
        assert (img.width, img.height, img.max_val) == (5, 3, 1)
        assert textured_image(4, 4, levels=65536).max_val == 65535


class TestConfigValidation:
    def test_bad_fuzzifier_rejected(self):
        with pytest.raises(ValueError, match="m must be > 1"):
            ClassifierConfig(m=1.0)

    @pytest.mark.parametrize("m, message", [
        (float("nan"), "fuzzifier m must be > 1"), (float("inf"), "fuzzifier m must be finite"),
        (np.float64(np.inf), "fuzzifier m must be finite")])
    def test_non_finite_fuzzifier_rejected_naming_the_field(self, m, message):
        # An infinite m would be written to the report JSON as Infinity, which is not JSON.
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassifierConfig(m=m)

    @pytest.mark.parametrize("m", ["2", True])
    def test_non_real_fuzzifier_rejected_naming_the_field(self, m):
        with pytest.raises(ValueError, match=f"^m must be a real number, got {m!r}$"):
            ClassifierConfig(m=m)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ClassifierConfig(kind="svm")

    @pytest.mark.parametrize("field, value, message", [
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", "3", "k must be an integer, got '3'"),
        ("k", 0, "k must be >= 1"),
        ("k_init", 2.5, "k_init must be an integer, got 2.5"),
        ("k_init", 1.0, "k_init must be an integer, got 1.0"),
        ("k_init", 0, "k_init must be >= 1"),
        ("k", True, "k must be an integer, got True"),
        ("k_init", False, "k_init must be an integer, got False"),
    ])
    def test_neighbourhood_sizes_rejected_naming_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClassifierConfig(**{field: value})

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_non_boolean_normalize_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match=f"^normalize must be a boolean, got {value!r}$"):
            ClassifierConfig(normalize=value)

    def test_numpy_boolean_normalize_accepted(self):
        data = dataset_1d([0.0, 1.0, 2.0, 5.0, 6.0], ["A", "A", "A", "B", "B"])
        got = predict(fit(data, ClassifierConfig(normalize=np.False_)), [4.0])
        want = predict(fit(data, ClassifierConfig(normalize=False)), [4.0])
        assert got.label == want.label and got.scores.tolist() == want.scores.tolist()

    def test_numpy_integer_sizes_accepted(self):
        data = dataset_1d([0.0, 1.0, 2.0, 5.0, 6.0], ["A", "A", "A", "B", "B"])
        cfg = ClassifierConfig(k=np.int64(2), init="keller", k_init=np.int32(2))
        want = ClassifierConfig(k=2, init="keller", k_init=2)
        got, expected = predict(fit(data, cfg), [4.0]), predict(fit(data, want), [4.0])
        assert got.label == expected.label and got.scores.tolist() == expected.scores.tolist()

    @pytest.mark.parametrize("k, message", [
        (0, "k must be >= 1"), (-2, "k must be >= 1"), (2.5, "k must be an integer, got 2.5")])
    def test_neighbour_table_rejects_a_bad_k(self, k, message):
        model = fit(dataset_1d([0.0, 1.0, 2.0], ["A", "B", "A"]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            neighbour_table(model, [[0.5]], k)
        with pytest.raises(ValueError, match=f"^{message}$"):
            kneighbors(model, [0.5], k)


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(["a", "a"], np.zeros((2, 1)), ["x", "y"])

    def test_missing_class_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset(["a"], np.zeros((1, 1)), ["x"], classes=("x", "y"))

    def test_from_samples_and_schema_consistency(self):
        fvs = [FeatureVector(("u", "v"), np.array([1.0, 2.0])),
               FeatureVector(("u", "v"), np.array([3.0, 4.0]))]
        data = Dataset.from_samples([("a", fvs[0], "x"), ("b", fvs[1], "y")])
        assert data.feature_names == ("u", "v")
        assert data.classes == ("x", "y")

    def test_mixed_schema_rejected(self):
        fvs = [FeatureVector(("u",), np.array([1.0])),
               FeatureVector(("w",), np.array([2.0]))]
        with pytest.raises(ValueError, match="schema"):
            Dataset.from_samples([("a", fvs[0], "x"), ("b", fvs[1], "x")])

    def test_select_features_unknown_name(self):
        data = Dataset(["a", "b"], np.zeros((2, 2)), ["x", "y"],
                       feature_names=("u", "v"))
        with pytest.raises(ValueError, match="unknown feature"):
            data.select_features(["u", "nope"])

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate feature names: u"):
            Dataset(["a", "b"], np.zeros((2, 3)), ["x", "y"], feature_names=("u", "v", "u"))

    def test_subset_keeps_class_order(self):
        data = dataset_1d([0.0, 1.0, 2.0], ["B", "A", "B"])
        sub = data.subset(["s0", "s2"])
        assert sub.classes == ("B",)
        assert len(sub) == 2
        assert sub.ids == ("s0", "s2") and sub.labels == ("B", "B")
        assert sub.X.tolist() == [[0.0], [2.0]]
        assert not sub.X.flags.writeable
        with pytest.raises(ValueError, match="at least one sample"):
            data.subset([])
        with pytest.raises(ValueError, match="unknown sample ids"):
            data.subset(["s0", "nope"])
