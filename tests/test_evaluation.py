"""Confusion metrics, ROC/AUC against the pair-count oracle, and the
cross-validation protocols."""

import json

import numpy as np
import pytest

from fknne import (
    ClassifierConfig,
    ComparisonRow,
    ComparisonTable,
    ConfusionCounts,
    Dataset,
    Holdout,
    KFold,
    Loocv,
    auc,
    compare_classifiers,
    confusion,
    evaluate,
    fit,
    predict,
    rates,
    roc_curve,
    stratified_kfold,
    two_cluster_dataset,
)


def mann_whitney_auc(scores, truth, positive="malignant"):
    """Independent oracle: fraction of (positive, negative) pairs where the
    positive sample outscores the negative, ties counting half."""
    pos = [s for s, t in zip(scores, truth) if t == positive]
    neg = [s for s, t in zip(scores, truth) if t != positive]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def clusters_1d(n_per_class=5, margin=100.0):
    xs = list(np.arange(n_per_class, dtype=float)) + [
        margin + i for i in range(n_per_class)
    ]
    labels = ["benign"] * n_per_class + ["malignant"] * n_per_class
    ids = [f"s{i:02d}" for i in range(2 * n_per_class)]
    return Dataset(ids, np.array(xs).reshape(-1, 1), labels)


class TestConfusion:
    def test_all_correct(self):
        truth = ["malignant"] * 5 + ["benign"] * 5
        c = confusion(truth, truth)
        assert (c.tp, c.tn, c.fp, c.fn) == (5, 5, 0, 0)

    def test_all_predicted_positive(self):
        truth = ["malignant"] * 3 + ["benign"] * 4
        c = confusion(["malignant"] * 7, truth)
        assert (c.tp, c.fp, c.fn) == (3, 4, 0)

    def test_random_fixture_matches_hand_tally(self):
        rng = np.random.default_rng(0)
        truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, 20)]
        pred = [["benign", "malignant"][v] for v in rng.integers(0, 2, 20)]
        c = confusion(pred, truth)
        tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for p, t in zip(pred, truth):
            key = ("t" if p == t else "f") + ("p" if p == "malignant" else "n")
            tally[key] += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (
            tally["tp"], tally["fp"], tally["tn"], tally["fn"]
        )

    def test_accepts_prediction_objects(self):
        data = clusters_1d(3, margin=50.0)
        model = fit(data, ClassifierConfig(kind="knn", k=1))
        preds = [predict(model, np.asarray(data.X)[i]) for i in range(len(data))]
        c = confusion(preds, list(data.labels))
        assert (c.tp, c.tn) == (3, 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion(["benign"], ["benign", "malignant"])

    def test_absent_positive_class_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            confusion(["a"], ["a"], positive="malignant")


class TestRates:
    def test_forced_by_definitions(self):
        assert rates(ConfusionCounts(tp=9, fp=2, tn=8, fn=1)) == (0.9, 0.8, 0.85)

    def test_perfect_classifier(self):
        assert rates(ConfusionCounts(tp=5, fp=0, tn=5, fn=0)) == (1.0, 1.0, 1.0)

    def test_empty_population_raises(self):
        with pytest.raises(ValueError, match="sensitivity"):
            rates(ConfusionCounts(tp=0, fp=1, tn=1, fn=0))
        with pytest.raises(ValueError, match="specificity"):
            rates(ConfusionCounts(tp=1, fp=0, tn=0, fn=1))


class TestRocCurve:
    def test_perfect_separation_passes_through_corner(self):
        roc = roc_curve([0.9, 0.8, 0.2, 0.1],
                        ["malignant", "malignant", "benign", "benign"])
        assert (0.0, 1.0) in [(f, t) for f, t, _ in roc.points]
        assert roc.auc == 1.0

    def test_identical_scores_give_single_diagonal_step(self):
        roc = roc_curve([0.5, 0.5, 0.5], ["malignant", "benign", "malignant"])
        assert [(f, t) for f, t, _ in roc.points] == [(0.0, 0.0), (1.0, 1.0)]
        assert roc.auc == 0.5

    def test_hand_threshold_sweep(self):
        roc = roc_curve([0.9, 0.4, 0.5, 0.1],
                        ["malignant", "malignant", "benign", "benign"])
        assert [(f, t) for f, t, _ in roc.points] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)
        ]

    def test_one_class_truth_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_curve([0.1, 0.2], ["benign", "benign"])

    def test_points_are_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 5, n) / 4.0
            truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, n)]
            if len(set(truth)) < 2:
                continue
            pts = roc_curve(scores, truth).points
            for (f0, t0, _), (f1, t1, _) in zip(pts, pts[1:]):
                assert f1 >= f0 and t1 >= t0


class TestAuc:
    def test_trivials(self):
        assert auc([0.9, 0.1], ["malignant", "benign"]) == 1.0
        assert auc([0.5, 0.5], ["malignant", "benign"]) == 0.5
        assert auc([0.9, 0.4, 0.5, 0.1],
                   ["malignant", "malignant", "benign", "benign"]) == 0.75

    def test_matches_pair_count_oracle_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(4, 30))
            # coarse grid deliberately injects ties
            scores = rng.integers(0, 6, n) / 5.0
            truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, n)]
            if len(set(truth)) < 2:
                continue
            assert auc(scores, truth) == pytest.approx(
                mann_whitney_auc(scores, truth), abs=1e-9
            )

    def test_label_flip_with_score_flip_preserves_auc(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, 30)]
        flipped = [{"benign": "malignant", "malignant": "benign"}[t] for t in truth]
        a = auc(scores, truth, positive="malignant")
        b = auc([1 - s for s in scores], flipped, positive="malignant")
        assert a == pytest.approx(b, abs=1e-9)

    def test_score_flip_alone_complements_auc(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 8, 40) / 7.0
        truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, 40)]
        a = auc(scores, truth)
        b = auc([1 - s for s in scores], truth)
        assert a + b == pytest.approx(1.0, abs=1e-9)


class TestStratifiedKfold:
    def test_balanced_folds(self):
        data = clusters_1d(10)
        for train, test in stratified_kfold(data, 5, seed=0):
            test_labels = [data.labels[data.ids.index(i)] for i in test]
            assert test_labels.count("benign") == 2
            assert test_labels.count("malignant") == 2
            assert len(train) == 16

    def test_partition_property(self):
        data = clusters_1d(7)
        folds = stratified_kfold(data, 3, seed=1)
        seen = []
        for train, test in folds:
            assert set(train) | set(test) == set(data.ids)
            assert not set(train) & set(test)
            seen.extend(test)
        assert sorted(seen) == sorted(data.ids)

    def test_deterministic_per_seed(self):
        data = clusters_1d(10)
        assert stratified_kfold(data, 5, seed=3) == stratified_kfold(data, 5, seed=3)
        assert stratified_kfold(data, 5, seed=3) != stratified_kfold(data, 5, seed=4)

    def test_small_class_rejected(self):
        data = clusters_1d(3)
        with pytest.raises(ValueError, match="fewer than"):
            stratified_kfold(data, 4, seed=0)

    def test_independent_of_input_order(self):
        data = clusters_1d(6)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(data.ids))
        shuffled = Dataset([data.ids[i] for i in perm], np.asarray(data.X)[perm],
                           [data.labels[i] for i in perm])
        assert stratified_kfold(data, 3, seed=9) == stratified_kfold(shuffled, 3, seed=9)


class TestLoocv:
    def test_separated_clusters_are_perfect(self):
        data = clusters_1d(5, margin=1000.0)
        rep = evaluate(data, ClassifierConfig(kind="knn", k=1), Loocv())
        assert rep.accuracy == 1.0
        assert rep.pooled.total == len(data)

    def test_two_sample_degenerate_case_is_all_wrong(self):
        # each held-out sample sees only the other class
        data = Dataset(["a", "b"], np.array([[0.0], [1.0]]), ["benign", "malignant"])
        rep = evaluate(data, ClassifierConfig(kind="knn", k=1), Loocv())
        assert rep.accuracy == 0.0

    def test_predictions_match_manual_leave_one_out(self):
        data = clusters_1d(4, margin=3.0)
        cfg = ClassifierConfig(kind="fknne", k=2, init="keller")
        rep = evaluate(data, cfg, Loocv())
        by_id = {sid: pred for sid, _, pred, _ in rep.predictions}
        for sid in data.ids:
            rest = [i for i in data.ids if i != sid]
            model = fit(data.subset(rest), cfg)
            manual = predict(model, data.X[data.ids.index(sid)])
            assert by_id[sid] == manual.label


class TestHoldout:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 2.0, -0.5])
    def test_fraction_outside_unit_interval_rejected_at_construction(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            Holdout(fraction=fraction)


class TestEvaluate:
    def test_holdout_half_on_four_samples(self):
        data = Dataset(["a", "b", "c", "d"],
                       np.array([[0.0], [1.0], [10.0], [11.0]]),
                       ["benign", "benign", "malignant", "malignant"])
        rep = evaluate(data, ClassifierConfig(kind="knn", k=1), Holdout(0.5, seed=0))
        assert rep.pooled.total == 2

    def test_averaged_equals_mean_of_fold_rates(self):
        data = two_cluster_dataset(n_per_class=10, seed=3)
        rep = evaluate(data, ClassifierConfig(kind="fknn", k=3), KFold(5, seed=1))
        for key, pick in (("sensitivity", lambda f: f.sensitivity),
                          ("specificity", lambda f: f.specificity),
                          ("accuracy", lambda f: f.accuracy)):
            vals = [pick(f) for f in rep.folds if pick(f) is not None]
            assert rep.averaged[key] == pytest.approx(sum(vals) / len(vals), abs=1e-12)

    def test_same_seed_gives_identical_report(self):
        data = two_cluster_dataset(n_per_class=8, seed=5)
        cfg = ClassifierConfig(kind="fknne", k=3)
        r1 = evaluate(data, cfg, KFold(4, seed=2))
        r2 = evaluate(data, cfg, KFold(4, seed=2))
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )
        assert r1.roc.points == r2.roc.points

    def test_accuracy_is_convex_combination_of_rates(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            data = two_cluster_dataset(n_per_class=8, seed=seed, separation=1.0,
                                       spread=1.0)
            rep = evaluate(data, ClassifierConfig(kind="knn", k=3),
                           KFold(4, seed=int(rng.integers(100))))
            lo = min(rep.sensitivity, rep.specificity)
            hi = max(rep.sensitivity, rep.specificity)
            assert lo - 1e-12 <= rep.accuracy <= hi + 1e-12

    def test_one_class_data_rejected(self):
        data = Dataset(["a", "b"], np.zeros((2, 1)), ["benign", "benign"])
        with pytest.raises(ValueError, match="binary"):
            evaluate(data, ClassifierConfig(), KFold(2, seed=0))

    def test_report_dict_has_stable_keys(self):
        data = two_cluster_dataset(n_per_class=6, seed=1)
        rep = evaluate(data, ClassifierConfig(kind="knne", k=3), KFold(3, seed=0))
        d = rep.to_dict()
        for key in ("method", "k", "m", "init", "protocol", "seed", "sensitivity",
                    "specificity", "accuracy", "auc", "pooled", "averaged", "folds"):
            assert key in d
        assert d["method"] == "knne"
        assert len(d["folds"]) == 3


class TestCompareClassifiers:
    def test_four_rows_in_input_order(self):
        data = two_cluster_dataset(n_per_class=8, seed=2)
        configs = [ClassifierConfig(kind=k, k=3) for k in ("knn", "fknn", "knne", "fknne")]
        table = compare_classifiers(data, configs, KFold(4, seed=0))
        assert [r.method for r in table.rows] == ["knn", "fknn", "knne", "fknne"]

    def test_duplicate_kind_rows_carry_k(self):
        data = two_cluster_dataset(n_per_class=8, seed=2)
        configs = [ClassifierConfig(kind="knn", k=1), ClassifierConfig(kind="knn", k=3)]
        table = compare_classifiers(data, configs, KFold(4, seed=0))
        assert [r.method for r in table.rows] == ["knn[k=1]", "knn[k=3]"]

    def test_json_round_trip_is_lossless(self):
        data = two_cluster_dataset(n_per_class=6, seed=4)
        configs = [ClassifierConfig(kind=k, k=3) for k in ("knn", "fknne")]
        table = compare_classifiers(data, configs, KFold(3, seed=1))
        round_tripped = ComparisonTable.from_json_obj(
            json.loads(json.dumps(table.to_json_obj()))
        )
        assert round_tripped == table
        assert round_tripped.render_text() == table.render_text()

    def test_render_layout_on_reference_shaped_rows(self):
        # report-format fixture: four methods with their combined
        # sensitivity/specificity/accuracy and area-under-curve columns
        table = ComparisonTable(rows=(
            ComparisonRow("knn", 3, 0.8986, 0.8962, 0.9125, 0.9125),
            ComparisonRow("knne", 3, 0.9311, 0.9436, 0.9534, 0.9634),
            ComparisonRow("fknn", 3, 0.9084, 0.9222, 0.9342, 0.9452),
            ComparisonRow("fknne", 3, 0.9446, 0.9681, 0.9652, 0.9734),
        ))
        text = table.render_text()
        lines = text.splitlines()
        assert lines[0].split() == ["method", "sensitivity", "specificity",
                                    "accuracy", "auc"]
        assert lines[4].split() == ["fknne", "0.9446", "0.9681", "0.9652", "0.9734"]
        assert len(lines) == 5
