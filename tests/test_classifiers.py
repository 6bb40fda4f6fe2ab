"""The four nearest-neighbour decision rules, their tie-breaks and the
membership machinery, checked against brute-force oracles and hand
arithmetic on tiny one-dimensional fixtures."""

import warnings

import numpy as np
import pytest

from fknne import (
    KINDS,
    ClassifierConfig,
    Dataset,
    FeatureVector,
    fit,
    kneighbors,
    predict,
    predict_fknn,
    predict_fknne,
    predict_knn,
    predict_knne,
    predict_many,
    two_cluster_dataset,
)


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

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Dataset([], np.empty((0, 2)), [])


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
        p = predict_knn(model, np.array([1.0]))
        assert p.label == "benign"
        assert p.scores.tolist() == [1.0, 0.0]

    def test_vote_fractions(self):
        data = dataset_1d([0.0, 0.5, 5.0], ["A", "A", "B"])
        model = fit(data, ClassifierConfig(k=3, **NO_NORM))
        p = predict_knn(model, np.array([1.0]))
        assert p.label == "A"
        assert p.scores.tolist() == [2 / 3, 1 / 3]

    def test_vote_tie_goes_to_closer_class(self):
        data = dataset_1d([1.5, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(k=2, **NO_NORM))
        p = predict_knn(model, np.array([2.0]))
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
            assert predict_knn(model, q).label == expected


class TestPredictFknn:
    def test_inverse_square_weighting_hand_case(self):
        # neighbours at d=1 (A) and d=2 (B), m=2: weights 1 and 1/4
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknn", k=2, m=2.0, **NO_NORM))
        p = predict_fknn(model, np.array([2.0]))
        assert p.scores == pytest.approx([0.8, 0.2], abs=1e-12)
        assert p.label == "A"

    def test_exact_match_returns_sample_membership(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 10.0], ["A", "A", "A", "B", "B"])
        cfg = ClassifierConfig(kind="fknn", k=3, init="keller", k_init=3, **NO_NORM)
        model = fit(data, cfg)
        p = predict_fknn(model, np.array([2.0]))
        assert np.allclose(p.scores, model.memberships[2], atol=1e-12)

    def test_scores_form_a_distribution(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, n=60)
        model = fit(data, ClassifierConfig(kind="fknn", k=7, init="keller"))
        for _ in range(100):
            p = predict_fknn(model, rng.normal(size=3))
            assert abs(p.scores.sum() - 1.0) < 1e-9
            assert (p.scores >= 0).all() and (p.scores <= 1).all()


class TestPredictKnne:
    def test_mean_distance_hand_case(self):
        data = dataset_1d([0.0, 1.0, 3.0, 5.0], ["A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=2, **NO_NORM))
        p = predict_knne(model, np.array([2.0]))
        # mean_A = (2+1)/2 = 1.5, mean_B = (1+3)/2 = 2.0
        assert p.label == "A"
        assert p.scores == pytest.approx([4 / 7, 3 / 7], abs=1e-12)

    def test_zero_mean_takes_all_mass(self):
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=1, **NO_NORM))
        p = predict_knne(model, np.array([1.0]))
        assert p.label == "A"
        assert p.scores.tolist() == [1.0, 0.0]

    def test_symmetric_fixture_ties_to_first_class(self):
        data = dataset_1d([1.0, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=1, **NO_NORM))
        p = predict_knne(model, np.array([2.0]))
        assert p.label == "A"
        assert p.scores.tolist() == [0.5, 0.5]

    def test_small_class_uses_all_available(self):
        data = dataset_1d([0.0, 1.0, 2.0, 9.0], ["A", "A", "A", "B"])
        model = fit(data, ClassifierConfig(kind="knne", k=3, **NO_NORM))
        p = predict_knne(model, np.array([1.0]))  # class B has one sample
        assert abs(p.scores.sum() - 1.0) < 1e-12


class TestPredictFknne:
    def test_inverse_square_weighting_hand_case(self):
        data = dataset_1d([1.0, 4.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknne", k=1, m=2.0, **NO_NORM))
        p = predict_fknne(model, np.array([2.0]))
        assert p.scores == pytest.approx([0.8, 0.2], abs=1e-12)
        assert p.label == "A"

    def test_symmetric_fixture_ties_to_first_class(self):
        data = dataset_1d([1.0, 3.0], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="fknne", k=1, **NO_NORM))
        p = predict_fknne(model, np.array([2.0]))
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
            assert predict_fknne(model, q).label == expected

    def test_exact_match_rule_on_pool_union(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0, 10.0], ["A", "A", "A", "B", "B"])
        cfg = ClassifierConfig(kind="fknne", k=2, init="keller", k_init=3, **NO_NORM)
        model = fit(data, cfg)
        p = predict_fknne(model, np.array([3.0]))
        assert np.allclose(p.scores, model.memberships[3], atol=1e-12)

    def test_keller_can_disagree_with_knne(self):
        # soft labels shift the fuzzy variant away from the crisp ranking
        rng = np.random.default_rng(6)
        data = random_dataset(rng, n=40)
        crisp = fit(data, ClassifierConfig(kind="knne", k=5))
        fuzzy = fit(data, ClassifierConfig(kind="fknne", k=5, init="keller"))
        queries = rng.normal(size=(200, 3))
        labels_crisp = [predict_knne(crisp, q).label for q in queries]
        labels_fuzzy = [predict_fknne(fuzzy, q).label for q in queries]
        assert labels_crisp != labels_fuzzy


class TestSharedInvariants:
    PREDICTORS = (predict_knn, predict_fknn, predict_knne, predict_fknne)

    def test_scores_are_distributions_and_label_is_argmax(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, n=50)
        model = fit(data, ClassifierConfig(k=5, init="keller"))
        for pred in self.PREDICTORS:
            for _ in range(50):
                p = pred(model, rng.normal(size=3))
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
            assert predict_knn(base, q).label == predict_knn(scaled, q * 7.3).label
            assert predict_knne(base, q).label == predict_knne(scaled, q * 7.3).label
            for pred in (predict_fknn, predict_fknne):
                s0 = pred(base, q).scores
                s1 = pred(scaled, q * 7.3).scores
                assert np.allclose(s0, s1, atol=1e-9)

    def test_training_order_invariance(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, n=30)
        perm = rng.permutation(30)
        shuffled = Dataset([data.ids[i] for i in perm], np.asarray(data.X)[perm],
                           [data.labels[i] for i in perm])
        cfg = ClassifierConfig(k=3, init="keller")
        m1, m2 = fit(data, cfg), fit(shuffled, cfg)
        for pred in self.PREDICTORS:
            for _ in range(25):
                q = rng.normal(size=3)
                p1, p2 = pred(m1, q), pred(m2, q)
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
            for pred in self.PREDICTORS:
                assert pred(model, q_raw).label == expected

    def test_dispatch_follows_config_kind(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng, n=20)
        q = rng.normal(size=3)
        for kind, pred in zip(("knn", "fknn", "knne", "fknne"), self.PREDICTORS):
            model = fit(data, ClassifierConfig(kind=kind, k=3))
            assert predict(model, q).scores.tolist() == pred(model, q).scores.tolist()


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
            p = predict_fknn(model, np.array([1000.0]))
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
            p = predict_fknne(model, np.array([-1000.0]))
        assert np.isfinite(p.scores).all()
        assert abs(p.scores.sum() - 1.0) < 1e-12
        assert p.label == "benign"

    def test_scores_unchanged_when_weights_do_not_underflow(self):
        data = dataset_1d([0.0, 1.0, 2.0, 3.0], ["A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(kind="fknn", k=3, m=1.01, **NO_NORM))
        p = predict_fknn(model, np.array([1.5]))
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


class TestConfigValidation:
    def test_bad_fuzzifier_rejected(self):
        with pytest.raises(ValueError, match="m must be > 1"):
            ClassifierConfig(m=1.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ClassifierConfig(kind="svm")


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
