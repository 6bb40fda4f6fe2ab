"""The batched neighbour engine against the scalar search it replaced.

The oracle below is the per-query code the engine superseded: a Python
sort of every training sample by (distance, id) for each query and each
class pool, the four scoring rules on top of it, and the Keller
initialization loop. Batched search must reproduce it exactly: the same
labels and ids, and bit-identical scores and distances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fknne import (
    ClassifierConfig,
    Dataset,
    KFold,
    Prediction,
    compare_classifiers,
    evaluate,
    fit,
    kneighbors,
    predict,
    predict_fknn,
    predict_fknne,
    predict_knn,
    predict_knne,
    predict_many,
    stratified_kfold,
)

# ---------------------------------------------------------------------------
# Scalar oracle


def oracle_normalize_rows(X, lo, hi):
    span = hi - lo
    flat = span == 0
    safe = np.where(flat, 1.0, span)
    out = (X - lo) / safe
    return np.where(flat, 0.0, out)


def oracle_query_vector(model, x):
    v = np.asarray(x, dtype=np.float64).ravel()
    if model.config.normalize:
        v = oracle_normalize_rows(v[None, :], model.norm_lo, model.norm_hi)[0]
    return v


def oracle_nearest(model, v, k, pool=None):
    idx = np.arange(len(model.ids)) if pool is None else pool
    d = np.sqrt(((model.X[idx] - v) ** 2).sum(axis=1))
    order = sorted(range(len(idx)), key=lambda t: (d[t], model.ids[idx[t]]))[:k]
    return idx[order], d[order]


def oracle_pools(model):
    label_index = np.array([model.classes.index(l) for l in model.labels])
    return label_index, [np.flatnonzero(label_index == ci) for ci in range(len(model.classes))]


def oracle_fuzzy_weights(d, m):
    with np.errstate(divide="ignore"):
        return d ** (-2.0 / (m - 1.0))


def oracle_exact_match_scores(model, idx, hit):
    return model.memberships[idx[hit]].mean(axis=0)


def oracle_knn(model, x):
    v = oracle_query_vector(model, x)
    idx, d = oracle_nearest(model, v, model.config.k)
    label_index, _ = oracle_pools(model)
    n_classes = len(model.classes)
    votes = np.bincount(label_index[idx], minlength=n_classes)
    sum_dist = np.zeros(n_classes)
    np.add.at(sum_dist, label_index[idx], d)
    scores = votes / len(idx)
    top = votes.max()
    tied = [ci for ci in range(n_classes) if votes[ci] == top]
    winner = min(tied, key=lambda ci: (sum_dist[ci], ci))
    return model.classes[winner], scores


def oracle_fknn(model, x):
    v = oracle_query_vector(model, x)
    idx, d = oracle_nearest(model, v, model.config.k)
    zero = d == 0.0
    if zero.any():
        scores = oracle_exact_match_scores(model, idx, zero)
    else:
        w = oracle_fuzzy_weights(d, model.config.m)
        inf = np.isinf(w)
        if inf.any():
            scores = oracle_exact_match_scores(model, idx, inf)
        else:
            scores = (w[:, None] * model.memberships[idx]).sum(axis=0) / w.sum()
    return model.classes[int(np.argmax(scores))], scores


def oracle_per_class(model, v, k):
    _, pools = oracle_pools(model)
    return [oracle_nearest(model, v, k, pool) for pool in pools]


def oracle_knne(model, x):
    v = oracle_query_vector(model, x)
    per_class = oracle_per_class(model, v, model.config.k)
    means = np.array([d.mean() for _, d in per_class])
    zero = means == 0.0
    if zero.any():
        scores = zero / zero.sum()
    else:
        inv = 1.0 / means
        scores = inv / inv.sum()
    return model.classes[int(np.argmin(means))], scores


def oracle_fknne(model, x):
    v = oracle_query_vector(model, x)
    per_class = oracle_per_class(model, v, model.config.k)
    all_idx = np.concatenate([idx for idx, _ in per_class])
    all_d = np.concatenate([d for _, d in per_class])
    zero = all_d == 0.0
    w_all = oracle_fuzzy_weights(all_d, model.config.m)
    if zero.any():
        scores = oracle_exact_match_scores(model, all_idx, zero)
    elif np.isinf(w_all).any():
        scores = oracle_exact_match_scores(model, all_idx, np.isinf(w_all))
    else:
        raw = np.zeros(len(model.classes))
        for ci, (idx, d) in enumerate(per_class):
            w = oracle_fuzzy_weights(d, model.config.m)
            raw[ci] = (model.memberships[idx, ci] * w).sum()
        scores = raw / raw.sum()
    return model.classes[int(np.argmax(scores))], scores


ORACLES = {"knn": oracle_knn, "fknn": oracle_fknn, "knne": oracle_knne, "fknne": oracle_fknne}


def oracle_keller(data, X, k_init):
    n = len(data)
    n_classes = len(data.classes)
    class_index = {c: ci for ci, c in enumerate(data.classes)}
    memberships = np.zeros((n, n_classes))
    d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    for j in range(n):
        others = [t for t in range(n) if t != j]
        others.sort(key=lambda t: (d[j, t], data.ids[t]))
        counts = np.zeros(n_classes)
        for t in others[:k_init]:
            counts[class_index[data.labels[t]]] += 1
        memberships[j] = 0.49 * counts / k_init
        memberships[j, class_index[data.labels[j]]] += 0.51
    return memberships


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Strategies: a coarse grid makes exact duplicates and distance ties
# common, a fine one makes rounding matter; ids in arbitrary text make the
# id tie-break differ from row order. Spans stay >= 1e-5, so no normalized
# query is so distant that the oracle's fuzzy weights all underflow (that
# case is TestSmallFuzzifier's, in test_classifiers.py).

COARSE = st.integers(0, 3).map(float)
FINE = st.integers(-10**6, 10**6).map(lambda v: v * 1e-5)


@st.composite
def problems(draw, max_n=24, max_classes=3):
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(1, 12))
    cells = draw(st.sampled_from((COARSE, FINE)))
    X = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    if draw(st.booleans()):  # force exact duplicate rows
        src = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        X = np.array([X[s] if k else X[i] for i, (s, k) in enumerate(zip(src, keep))])
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    n_classes = draw(st.integers(1, max_classes))
    labels = draw(st.lists(st.sampled_from("ABC"[:n_classes]), min_size=n, max_size=n))
    data = Dataset(ids, X, labels)
    n_queries = draw(st.integers(0, 6))
    queries = [X[draw(st.integers(0, n - 1))] if draw(st.booleans())
               else np.array(draw(st.lists(cells, min_size=dim, max_size=dim)), dtype=np.float64)
               for _ in range(n_queries)]
    return data, queries


configs = st.builds(
    ClassifierConfig,
    kind=st.sampled_from(("knn", "fknn", "knne", "fknne")),
    k=st.integers(1, 30),
    m=st.sampled_from((1.5, 2.0, 3.0)),
    init=st.sampled_from(("crisp", "keller")),
    k_init=st.none() | st.integers(1, 30),
    normalize=st.booleans(),
)

PREDICTORS = {"knn": predict_knn, "fknn": predict_fknn, "knne": predict_knne,
              "fknne": predict_fknne}


class TestAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(problems(), configs)
    def test_every_rule_and_entry_point_matches_oracle(self, problem, cfg):
        data, queries = problem
        model = fit(data, cfg)
        batch = predict_many(model, np.array(queries).reshape(-1, data.X.shape[1]))
        assert len(batch) == len(queries)
        for q, p in zip(queries, batch):
            label, scores = ORACLES[cfg.kind](model, q)
            single = predict(model, q)
            for got in (p, single):
                assert isinstance(got, Prediction)
                assert got.label == label
                assert same_bits(got.scores, scores)
            for kind, rule in PREDICTORS.items():
                label, scores = ORACLES[kind](model, q)
                got = rule(model, q)
                assert got.label == label
                assert same_bits(got.scores, scores)

    @settings(max_examples=150, deadline=None)
    @given(problems(), st.integers(1, 30), st.booleans(), st.data())
    def test_kneighbors_matches_oracle(self, problem, k, normalize, draw):
        data, queries = problem
        model = fit(data, ClassifierConfig(normalize=normalize))
        _, pools = oracle_pools(model)
        cls = draw.draw(st.none() | st.sampled_from(model.classes))
        for q in queries:
            pool = None if cls is None else pools[model.classes.index(cls)]
            idx, d = oracle_nearest(model, oracle_query_vector(model, q), k, pool)
            got = kneighbors(model, q, k, class_filter=cls)
            assert [sid for sid, _ in got] == [model.ids[i] for i in idx]
            assert same_bits([dist for _, dist in got], d)

    @settings(max_examples=100, deadline=None)
    @given(problems(), st.integers(1, 30), st.booleans())
    def test_keller_memberships_match_oracle(self, problem, k_init, normalize):
        data, _ = problem
        model = fit(data, ClassifierConfig(init="keller", k_init=k_init, normalize=normalize))
        n = len(data)
        assert model.k_init_clamped == (k_init > n - 1)
        assert model.k_init_used == min(k_init, n - 1)
        if model.k_init_used == 0:
            assert same_bits(model.memberships, np.eye(len(data.classes))[[
                data.classes.index(l) for l in data.labels]])
        else:
            expected = oracle_keller(data, np.asarray(model.X), model.k_init_used)
            assert same_bits(model.memberships, expected)


@st.composite
def binary_problems(draw):
    n_per_class = draw(st.integers(3, 10))
    dim = draw(st.integers(1, 4))
    cells = draw(st.sampled_from((COARSE, FINE)))
    n = 2 * n_per_class
    X = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    ids = [f"s{i:02d}" for i in draw(st.permutations(range(n)))]
    return Dataset(ids, X, ["benign"] * n_per_class + ["malignant"] * n_per_class)


class TestSharedFoldTable:
    @settings(max_examples=30, deadline=None)
    @given(binary_problems(), st.lists(configs, min_size=1, max_size=5))
    def test_compare_rows_equal_oracle_folds(self, data, cfgs):
        protocol = KFold(3, seed=0)
        table = compare_classifiers(data, cfgs, protocol)
        for cfg, row in zip(cfgs, table.rows):
            rep = evaluate(data, cfg, protocol)
            assert (row.sensitivity, row.specificity, row.accuracy, row.auc) == (
                rep.sensitivity, rep.specificity, rep.accuracy, rep.auc)
            expected = []
            by_id = {sid: (label, score) for sid, _, label, score in rep.predictions}
            for train_ids, test_ids in stratified_kfold(data, 3, seed=0):
                model = fit(data.subset(train_ids), cfg)
                for sid in test_ids:
                    label, scores = ORACLES[cfg.kind](model, data.X[data.ids.index(sid)])
                    score = scores[model.classes.index("malignant")]
                    expected.append(sid)
                    assert by_id[sid][0] == label
                    assert same_bits(by_id[sid][1], score)
            assert [sid for sid, _, _, _ in rep.predictions] == expected


class TestEdges:
    def test_single_sample_class_pool_and_oversized_k(self):
        data = Dataset(["c", "a", "b", "d"], np.array([[0.0], [0.0], [1.0], [5.0]]),
                       ["A", "A", "A", "B"])
        model = fit(data, ClassifierConfig(kind="fknne", k=10, normalize=False))
        for q in ([0.0], [3.0], [5.0]):
            label, scores = oracle_fknne(model, q)
            assert predict(model, q).label == label
            assert same_bits(predict(model, q).scores, scores)
        assert kneighbors(model, [0.0], 10) == [("a", 0.0), ("c", 0.0), ("b", 1.0), ("d", 5.0)]
        assert kneighbors(model, [0.0], 10, class_filter="B") == [("d", 5.0)]

    def test_duplicate_rows_straddling_the_cut_are_ordered_by_id(self):
        # five copies of one point; k=2 keeps the two smallest ids
        X = np.zeros((6, 3))
        X[5] = 1.0
        data = Dataset(["e", "b", "d", "a", "c", "z"], X, ["A"] * 3 + ["B"] * 3)
        model = fit(data, ClassifierConfig(normalize=False))
        assert [sid for sid, _ in kneighbors(model, np.zeros(3), 2)] == ["a", "b"]
        assert [sid for sid, _ in kneighbors(model, np.zeros(3), 2, class_filter="B")] == ["a", "c"]

    def test_empty_batch(self):
        data = Dataset(["a", "b"], np.array([[0.0], [1.0]]), ["A", "B"])
        model = fit(data)
        assert predict_many(model, np.empty((0, 1))) == []
        assert predict_many(model, []) == []

    def test_batch_accepts_feature_vectors_and_checks_schema(self):
        data = Dataset(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]), ["A", "B"],
                       feature_names=("u", "v"))
        model = fit(data, ClassifierConfig(k=1))
        fvs = [data.feature_vector(0), data.feature_vector(1)]
        assert [p.label for p in predict_many(model, fvs)] == ["A", "B"]
        with pytest.raises(ValueError, match="schema"):
            predict_many(model, np.zeros((1, 3)))

    def test_keller_fit_memory_stays_linear(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        n = 2000
        data = Dataset([f"s{i:04d}" for i in range(n)], rng.normal(size=(n, 25)),
                       ["benign" if i % 3 else "malignant" for i in range(n)])
        tracemalloc.start()
        try:
            fit(data, ClassifierConfig(init="keller", k=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
