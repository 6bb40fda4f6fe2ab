"""Confusion metrics, ROC/AUC against the pair-count oracle, and the
cross-validation protocols."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fknne.classifiers
import fknne.evaluation
from fknne import (
    ClassifierConfig,
    ComparisonRow,
    ComparisonTable,
    ConfusionCounts,
    Dataset,
    KINDS,
    Holdout,
    KFold,
    Loocv,
    Prediction,
    RocCurve,
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


def oracle_confusion(predictions, truth, positive="malignant"):
    """The label-at-a-time ``confusion`` that class-index counting replaced."""
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth must have equal length")
    predicted = [p if isinstance(p, str) else p.label for p in predictions]
    known = set(truth) | set(predicted)
    for p in predictions:
        if not isinstance(p, str):
            known.update(p.classes)
    if positive not in known:
        raise ValueError(f"positive class {positive!r} absent from the class set")
    tp = fp = tn = fn = 0
    for pred, true in zip(predicted, truth):
        if true == positive:
            if pred == positive:
                tp += 1
            else:
                fn += 1
        else:
            if pred == positive:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def oracle_roc_curve(scores, truth, positive="malignant"):
    """The point-at-a-time ``roc_curve`` that the cumsum arrays replaced:
    its (fpr, tpr, threshold) points and its trapezoid sum, left to right."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.array([t == positive for t in truth])
    if len(s) != len(y):
        raise ValueError("scores and truth must have equal length")
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes in the truth")
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    tps = np.cumsum(y_sorted)
    fps = np.cumsum(~y_sorted)
    last = np.r_[np.flatnonzero(np.diff(s_sorted) != 0), len(s) - 1]
    points = [(0.0, 0.0, float("inf"))]
    for i in last:
        points.append((fps[i] / n_neg, tps[i] / n_pos, float(s_sorted[i])))
    area = 0.0
    for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return tuple((float(f), float(t), float(th)) for f, t, th in points), float(area)


def outcome(f, *args):
    """What ``f(*args)`` returns, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


LABELS = ("malignant", "benign", "other")
# Few distinct values, so ties are common; both zeros, so their sign must
# survive the sweep; the unit interval's fine structure, so rounding matters.
SCORES = st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def predictions(draw):
    """A label, or a Prediction whose classes may hold a label that no
    truth and no winning label names."""
    classes = tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                                  unique=True)))
    label = draw(st.sampled_from(classes))
    if draw(st.booleans()):
        return label
    return Prediction(label, classes, np.full(len(classes), 1.0 / len(classes)))


@st.composite
def tallies(draw):
    """(predictions, truth, scores, positive): lengths that sometimes
    disagree, truth that sometimes holds one class, scores that are
    sometimes all one value."""
    n = draw(st.integers(0, 40))
    truth = draw(st.lists(st.sampled_from(LABELS[:draw(st.integers(1, 3))]),
                          min_size=n, max_size=n))
    n_pred = n + draw(st.sampled_from((0, 0, 0, -1, 1)))
    preds = draw(st.lists(predictions(), min_size=max(n_pred, 0), max_size=max(n_pred, 0)))
    n_scores = n + draw(st.sampled_from((0, 0, 0, -1, 1)))
    if draw(st.booleans()):
        scores = [draw(SCORES)] * max(n_scores, 0)
    else:
        scores = draw(st.lists(SCORES, min_size=max(n_scores, 0), max_size=max(n_scores, 0)))
    return preds, truth, scores, draw(st.sampled_from(LABELS + ("absent",)))


def clusters_1d(n_per_class=5, margin=100.0):
    xs = list(np.arange(n_per_class, dtype=float)) + [
        margin + i for i in range(n_per_class)
    ]
    labels = ["benign"] * n_per_class + ["malignant"] * n_per_class
    ids = [f"s{i:02d}" for i in range(2 * n_per_class)]
    return Dataset(ids, np.array(xs).reshape(-1, 1), labels)


class TestAgainstScalarOracle:
    @settings(max_examples=300, deadline=None)
    @given(tallies())
    def test_confusion_and_roc_match_the_oracles(self, case):
        preds, truth, scores, positive = case
        assert outcome(confusion, preds, truth, positive) == outcome(
            oracle_confusion, preds, truth, positive)
        got = outcome(roc_curve, scores, truth, positive)
        want = outcome(oracle_roc_curve, scores, truth, positive)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, RocCurve), got
            assert all(type(v) is float for point in got.points for v in point)
            assert float_bits(got.points) == float_bits(want[0])
            assert type(got.auc) is float and float_bits(got.auc) == float_bits(want[1])


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

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match=r"^ROC points must run from \(0,0\) to \(1,1\)$"):
            RocCurve(points=(), auc=0.0)

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


class TestFoldAssignments:
    """Each protocol's folds, pinned as the id-list protocols drew them, on
    ids out of row order with the classes interleaved."""

    DATA = Dataset(
        ["s07", "s02", "s11", "s05", "s00", "s09", "s03", "s10", "s01", "s06", "s08", "s04"],
        np.arange(12.0)[:, None],
        ["malignant", "benign", "benign", "malignant", "benign", "malignant",
         "benign", "benign", "malignant", "benign", "malignant", "benign"])

    def test_stratified_kfold_ids(self):
        assert stratified_kfold(self.DATA, 3, seed=1) == [
            (["s00", "s01", "s02", "s03", "s08", "s09", "s11"],
             ["s04", "s05", "s06", "s07", "s10"]),
            (["s02", "s04", "s05", "s06", "s07", "s09", "s10", "s11"],
             ["s00", "s01", "s03", "s08"]),
            (["s00", "s01", "s03", "s04", "s05", "s06", "s07", "s08", "s10"],
             ["s02", "s09", "s11"]),
        ]

    @pytest.mark.parametrize("protocol, expected", [
        (KFold(3, seed=1), [["s04", "s05", "s06", "s07", "s10"], ["s00", "s01", "s03", "s08"],
                            ["s02", "s09", "s11"]]),
        (Holdout(0.4, seed=2), [["s01", "s03", "s07", "s10", "s11"]]),
        (Loocv(), [[f"s{i:02d}"] for i in range(12)]),
    ])
    def test_splits_are_test_rows_in_id_order(self, protocol, expected):
        data = self.DATA
        folds = list(protocol.splits(data))
        assert [[data.ids[i] for i in test] for test in folds] == expected
        for test in folds:
            assert test.dtype == np.intp
            ids = [data.ids[i] for i in test]
            assert ids == sorted(ids)
        rows = np.concatenate(folds).tolist()
        assert len(set(rows)) == len(rows)
        if not isinstance(protocol, Holdout):
            assert sorted(rows) == list(range(len(data)))


class TestFoldSlices:
    def test_no_dataset_is_built_per_fold(self, monkeypatch):
        rng = np.random.default_rng(2)
        n = 40
        data = Dataset([f"r{i:02d}" for i in range(n)], rng.normal(size=(n, 4)),
                       ["malignant" if i % 3 == 0 else "benign" for i in range(n)])
        built, fits = [], []
        init, subset, fitted = Dataset.__init__, Dataset.subset, fknne.evaluation.fit
        model_init = fknne.classifiers.FitModel.__init__

        def counted(name, wrapped):
            def wrapper(*args, **kwargs):
                built.append(name)
                return wrapped(*args, **kwargs)
            return wrapper

        def counted_fit(train, cfg):
            fits.append(len(train))
            return fitted(train, cfg)

        monkeypatch.setattr(Dataset, "__init__", counted("Dataset", init))
        monkeypatch.setattr(Dataset, "subset", counted("subset", subset))
        monkeypatch.setattr(fknne.classifiers.FitModel, "__init__", counted("FitModel", model_init))
        for name in ("neighbour_table", "_query_matrix"):
            monkeypatch.setattr(fknne.classifiers, name,
                                counted(name, getattr(fknne.classifiers, name)))
        monkeypatch.setattr(fknne.evaluation, "fit", counted_fit)
        compare_classifiers(data, [ClassifierConfig(kind=kind) for kind in KINDS]
                            + [ClassifierConfig(kind="fknne", init="keller")], KFold(5, seed=0))
        # Each fold is built from arrays sliced from the dataset: no
        # dataset, model, fit or query validation of its own.
        assert built == fits == []
        # Leave-one-out fits nothing, not even the full data, though some
        # rows are alone at a feature's min or max.
        evaluate(data, ClassifierConfig(kind="fknne", k=5, init="keller"), Loocv())
        assert built == fits == []


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


class TestProtocolFields:
    @pytest.mark.parametrize("protocol, fields, message", [
        (KFold, dict(k=2.5), "k must be an integer, got 2.5"),
        (KFold, dict(k=1), "k must be >= 2"),
        (KFold, dict(seed=-1), "seed must be >= 0"),
        (KFold, dict(seed=1.5), "seed must be an integer, got 1.5"),
        (Holdout, dict(seed=-1), "seed must be >= 0"),
        (Holdout, dict(seed=1.5), "seed must be an integer, got 1.5"),
        (Holdout, dict(seed="0"), "seed must be an integer, got '0'"),
        (KFold, dict(k=True), "k must be an integer, got True"),
        (KFold, dict(seed=False), "seed must be an integer, got False"),
        (Holdout, dict(fraction="0.3"), "fraction must be a real number, got '0.3'"),
        (Holdout, dict(fraction=True), "fraction must be a real number, got True"),
    ])
    def test_rejected_at_construction_naming_the_field(self, protocol, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            protocol(**fields)

    @pytest.mark.parametrize("protocol, numpy_fields, fields", [
        (KFold, dict(k=np.int64(3), seed=np.uint8(1)), dict(k=3, seed=1)),
        (Holdout, dict(fraction=0.4, seed=np.int32(2)), dict(fraction=0.4, seed=2)),
    ])
    def test_numpy_integers_split_as_python_ones(self, protocol, numpy_fields, fields):
        data = TestFoldAssignments.DATA
        got, want = protocol(**numpy_fields).splits(data), protocol(**fields).splits(data)
        assert [t.tolist() for t in got] == [t.tolist() for t in want]


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
        round_tripped = ComparisonTable(rows=tuple(
            ComparisonRow(**r) for r in json.loads(json.dumps(table.to_json_obj()))
        ))
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


class TestScoredRows:
    """Every Q x C score row that cross-validation scores is a distribution
    whose top entry its winner holds; the check perfbench's repetition 0
    means to make on its classifier workloads."""

    def test_every_row_is_a_distribution_won_by_its_top_score(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 60
        # Column scales spread over seven decades; rows 40-49 repeat rows 0-9.
        X = rng.normal(size=(n, 7)) * 10.0 ** np.arange(-3, 4)
        X[40:50] = X[:10]
        data = Dataset([f"r{i:02d}" for i in range(n)], X,
                       ["malignant" if i % 3 == 0 else "benign" for i in range(n)])
        checked = []
        scored = fknne.evaluation.predict_table

        def checking(table, cfg):
            winners, scores = scored(table, cfg)
            # One distance array per class.
            assert scores.shape == (len(winners), len(table[0]))
            assert np.isfinite(scores).all()
            assert ((scores >= 0.0) & (scores <= 1.0 + 1e-9)).all()
            assert (np.abs(scores.sum(axis=1) - 1.0) <= 1e-9).all()
            assert (scores[np.arange(len(winners)), winners] == scores.max(axis=1)).all()
            checked.append(len(scores))
            return winners, scores

        monkeypatch.setattr(fknne.evaluation, "predict_table", checking)
        crisp = [ClassifierConfig(kind=kind, k=k) for kind in KINDS for k in (1, 3, 5, 7, 9)]
        compare_classifiers(data, crisp, KFold(10, seed=0))
        evaluate(data, ClassifierConfig(kind="fknne", k=5, init="keller"), Loocv())
        # One row per held-out prediction: each config predicts every row once.
        assert sum(checked) == (len(crisp) + 1) * n
