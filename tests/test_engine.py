"""The batched neighbour engine against the searches it replaced.

The scalar oracle below is the per-query code the engine superseded: a
Python sort of every training sample by (distance, id) for each query and
each class pool, the four scoring rules on top of it, and the Keller
initialization loop. Batched search must reproduce it exactly: the same
labels and ids, and bit-identical scores and distances. Cross-validation,
which shares fits between configs and reads leave-one-out folds from one
search of the full data, is held to a per-fold subset and fit.

The search itself ranks candidates from a matrix product; it is held to
``oracle_search``, the block search that computes and ranks every
distance, for every k, at one and at two BLAS threads.
"""

import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fknne.classifiers
import fknne.evaluation
from fknne import (
    KINDS,
    ClassifierConfig,
    ConfusionCounts,
    Dataset,
    FoldResult,
    Holdout,
    KFold,
    Loocv,
    Prediction,
    compare_classifiers,
    evaluate,
    fit,
    kneighbors,
    predict,
    predict_many,
    roc_curve,
    stratified_kfold,
)
from fknne.classifiers import _keller, _min_max, _search, neighbour_table
from fknne.evaluation import _cross_validate, _fit_key, _leave_one_out

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


def oracle_confusion(predicted, truth, positive):
    """The label-at-a-time tally that cross-validation ran per fold before
    it counted class-index arrays."""
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


def oracle_cross_validate(data, cfg, protocol, positive="malignant"):
    """Per-fold subset and fit: (id, truth, label, score) rows, fold
    results and AUC, as cross-validation computed them before fits were
    shared."""
    rows, folds = [], []
    for test in protocol.splits(data):
        test_ids = [data.ids[i] for i in test]
        train_ids = [sid for sid in data.ids if sid not in test_ids]
        model = fit(data.subset(train_ids), cfg)
        preds = predict_many(model, data.X[test])
        truth = [data.labels[i] for i in test]
        for sid, true, p in zip(test_ids, truth, preds):
            rows.append((sid, true, p.label,
                         p.score(positive) if positive in model.classes else 0.0))
        c = oracle_confusion([p.label for p in preds], truth, positive)
        folds.append(FoldResult(
            c,
            c.tp / (c.tp + c.fn) if c.tp + c.fn else None,
            c.tn / (c.tn + c.fp) if c.tn + c.fp else None,
            (c.tp + c.tn) / c.total))
    scores = [score for _, _, _, score in rows]
    return rows, folds, roc_curve(scores, [true for _, true, _, _ in rows], positive).auc


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Exhaustive search oracle: every distance of a block of queries computed
# and ranked, as the engine searched before candidates were ranked from a
# matrix product.

ORACLE_BLOCK_BYTES = 1 << 20


def oracle_distance_blocks(X, V):
    n, dim = X.shape
    step = max(1, ORACLE_BLOCK_BYTES // (8 * max(1, n * dim)))
    for s in range(0, len(V), step):
        yield s, np.sqrt(((V[s:s + step, None, :] - X[None, :, :]) ** 2).sum(axis=2))


def oracle_k_smallest(D, rank, k):
    rows = np.arange(len(D))[:, None]
    if k >= D.shape[1]:
        sel = np.lexsort((np.broadcast_to(rank, D.shape), D), axis=1)
        return sel, D[rows, sel]
    part = np.argpartition(D, k - 1, axis=1)[:, :k]
    d = D[rows, part]
    order = np.lexsort((rank[part], d), axis=1)
    sel, d = part[rows, order], d[rows, order]
    straddle = (D <= d[:, -1:]).sum(axis=1) > k
    if straddle.any():
        tied = D[straddle]
        full = np.lexsort((np.broadcast_to(rank, tied.shape), tied), axis=1)[:, :k]
        sel[straddle] = full
        d[straddle] = tied[np.arange(len(tied))[:, None], full]
    return sel, d


def oracle_search(X, rank, V, pools, ks):
    # Self-search: V None stands for every row of X, a 1-D V for the rows it indexes.
    own = np.arange(len(X)) if V is None else V if V.ndim == 1 else None
    V = V if own is None else X[own]
    found = tuple((np.empty((len(V), min(k, len(p))), dtype=np.intp),
                   np.empty((len(V), min(k, len(p))))) for p, k in zip(pools, ks))
    with np.errstate(over="ignore"):
        for s, D in oracle_distance_blocks(X, V):
            if own is not None:
                D[np.arange(len(D)), own[s:s + len(D)]] = -1.0
            for pool, k, (idx, dist) in zip(pools, ks, found):
                sel, dist[s:s + len(D)] = oracle_k_smallest(D[:, pool], rank[pool], k)
                idx[s:s + len(D)] = pool[sel]
    return found


@contextmanager
def spied_masks():
    """Record each (X, candidate mask) that _search hands _rerank."""
    masks, rerank = [], fknne.classifiers._rerank

    def spy(X, rank, pool, V, cand, k, own):
        masks.append((X, cand))
        return rerank(X, rank, pool, V, cand, k, own)

    with mock.patch.object(fknne.classifiers, "_rerank", spy):
        yield masks


def same_search(got, want) -> bool:
    return len(got) == len(want) and all(
        gi.dtype == wi.dtype and gi.shape == wi.shape and gi.tobytes() == wi.tobytes()
        and same_bits(gd, wd) for (gi, gd), (wi, wd) in zip(got, want))


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


class TestAgainstScalarOracle:
    @settings(max_examples=150, deadline=None)
    @given(problems(), configs)
    def test_every_rule_and_entry_point_matches_oracle(self, problem, cfg):
        data, queries = problem
        model = fit(data, cfg)
        matrix = np.array(queries).reshape(-1, data.X.shape[1])
        batch = predict_many(model, matrix)
        assert len(batch) == len(queries)
        for q, p in zip(queries, batch):
            label, scores = ORACLES[cfg.kind](model, q)
            single = predict(model, q)
            for got in (p, single):
                assert isinstance(got, Prediction)
                assert got.label == label
                assert same_bits(got.scores, scores)
        # Every rule through both entry points: each batch row is the
        # single-query result, and both are the oracle's, bit for bit.
        for kind in KINDS:
            kind_batch = predict_many(model, matrix, kind)
            assert len(kind_batch) == len(queries)
            for q, p in zip(queries, kind_batch):
                label, scores = ORACLES[kind](model, q)
                for got in (p, predict(model, q, kind)):
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


class TestBatchedScoring:
    """Every rule scores a whole batch at once; each row must score exactly
    as it does alone, whatever branch of its rule it takes."""

    # An ordinary row; an exact match; nonzero distances (1e-300 and 0.01
    # from the sample at 0) whose weights overflow to inf at m=1.01; and a
    # far row whose every weight underflows to 0 at m=1.01.
    MIXED = [[1.4], [2.0], [1e-300], [0.01], [1000.0]]

    @pytest.mark.parametrize("init", ["crisp", "keller"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_mixed_rows_in_one_batch_score_as_single_queries(self, kind, init):
        data = Dataset(["z", "a", "b", "c"], [[0.0], [1.0], [2.0], [3.0]], ["A", "A", "B", "B"])
        model = fit(data, ClassifierConfig(kind=kind, k=2, m=1.01, init=init, normalize=False))
        batch = predict_many(model, self.MIXED)
        for q, p in zip(self.MIXED, batch):
            single = predict(model, q, kind)
            assert p.label == single.label
            assert same_bits(p.scores, single.scores)
        if kind in ("fknn", "fknne"):
            # exact match and infinite weight: the matched sample's membership
            for row, sample in ((1, 2), (2, 0), (3, 0)):
                assert same_bits(batch[row].scores, model.memberships[sample])

    def test_knn_vote_tie_with_an_infinite_summed_distance(self):
        # Distances 1e150 (B) and inf (A): one vote each, B is closer.
        data = Dataset(["b", "a"], [[1e200], [0.0]], ["A", "B"])
        model = fit(data, ClassifierConfig(kind="knn", k=2, normalize=False))
        for p in predict_many(model, [[1e150], [1e150]]) + [predict(model, [1e150])]:
            assert p.label == "B"
            assert p.scores.tolist() == [0.5, 0.5]

    @settings(max_examples=150, deadline=None)
    @given(problems(), st.builds(
        ClassifierConfig,
        kind=st.sampled_from(KINDS),
        k=st.integers(1, 30),
        m=st.sampled_from((1.01, 1.5, 2.0, 3.0)),
        init=st.sampled_from(("crisp", "keller")),
        k_init=st.none() | st.integers(1, 30),
        normalize=st.booleans(),
    ), st.sampled_from((1.0, 1e3, 1e6)))
    def test_scores_are_distributions_and_batches_match_single_queries(self, problem, cfg, reach):
        data, queries = problem
        model = fit(data, cfg)
        # Far copies of the queries drive small-m weights into underflow.
        V = np.array(queries + [q * reach + reach for q in queries]).reshape(-1, data.X.shape[1])
        for q, p in zip(V, predict_many(model, V)):
            single = predict(model, q)
            assert single.label == p.label
            assert same_bits(single.scores, p.scores)
            assert np.isfinite(p.scores).all()
            assert ((p.scores >= 0.0) & (p.scores <= 1.0)).all()
            assert abs(p.scores.sum() - 1.0) <= 1e-9
            assert p.score(p.label) == p.scores.max()


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


# Search problems. Grid cells make duplicate rows and distance ties
# common; cells a few ulps apart make the matrix product's rounding as
# large as the distances it ranks; tiny cells make products underflow; and
# one cell of +-1e154, which an unnormalized feature may hold, makes a
# squared norm overflow. Pools: every row, one row, and each class.

SCALES = ("grid", "fine", "ulp", "tiny", "huge")


@st.composite
def searches(draw):
    scale = draw(st.sampled_from(SCALES))
    n = draw(st.integers(1, 16))
    dim = draw(st.sampled_from((1, 2, 3, 4, 7, 8, 9, 25)))
    if scale == "ulp":
        base = draw(st.floats(0.5, 4.0))
        cells = st.integers(-3, 3).map(lambda i: base + i * float(np.spacing(base)))
    else:
        cells = {"grid": COARSE, "fine": FINE, "tiny": FINE.map(lambda v: v * 1e-161),
                 "huge": st.sampled_from((-1e154, 0.0, 1.0, 1e154))}[scale]
    X = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    if draw(st.booleans()):
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    if scale == "huge":
        X[0, 0] = draw(st.sampled_from((-1e154, 1e154)))
    rank = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    pools = [np.arange(n), np.array([draw(st.integers(0, n - 1))])]
    pools += [np.flatnonzero(labels == c) for c in np.unique(labels)]
    V = None
    if draw(st.booleans()):
        q = draw(st.integers(0, 4))
        V = np.array([X[draw(st.integers(0, n - 1))] if draw(st.booleans())
                      else draw(st.lists(cells, min_size=dim, max_size=dim))
                      for _ in range(q)], dtype=np.float64).reshape(q, dim)
    return X, rank, V, pools, scale


# One fixed search of 600 rows, Keller-style (every row, V None) and per
# class with queries, run in a fresh process at a given BLAS thread count.
THREAD_CASE = """
import numpy as np
rng = np.random.default_rng(12)
n, d = 600, 25
X = rng.random((n, d))
X[::9] = X[4]
rank = rng.permutation(n)
labels = rng.integers(0, 2, n)
pools = [np.flatnonzero(labels == c) for c in (0, 1)]
searches = [(None, pools + [np.arange(n)], [6, 6, 6]), (rng.random((40, d)), pools, [5, 5])]
"""
THREAD_SCRIPT = THREAD_CASE + """
import sys
from fknne.classifiers import _search
for V, pools, ks in searches:
    for idx, dist in _search(X, rank, V, pools, ks):
        sys.stdout.buffer.write(idx.tobytes() + dist.tobytes())
"""


class TestSearchAgainstExhaustiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(searches())
    def test_every_k_matches_the_oracle_bit_for_bit(self, case):
        X, rank, V, pools, scale = case
        with spied_masks() as masks:
            for k in range(1, max(map(len, pools)) + 2):
                ks = [k] * len(pools)
                assert same_search(_search(X, rank, V, pools, ks),
                                   oracle_search(X, rank, V, pools, ks))
        # A squared norm near overflow makes every entry a candidate.
        assert scale != "huge" or all(cand.all() for _, cand in masks)

    @settings(max_examples=300, deadline=None)
    @given(searches(), st.data())
    def test_a_subset_of_rows_searches_as_in_the_full_self_search(self, case, draw):
        X, rank, _, pools, scale = case
        # Any rows, in any order, repeats allowed.
        rows = np.array(draw.draw(st.lists(st.integers(0, len(X) - 1), max_size=len(X) + 2)),
                        dtype=np.intp)
        with spied_masks() as masks:
            for k in range(1, max(map(len, pools)) + 2):
                ks = [k] * len(pools)
                got = _search(X, rank, rows, pools, ks)
                assert same_search(got, oracle_search(X, rank, rows, pools, ks))
                full = _search(X, rank, None, pools, ks)
                assert same_search(got, tuple((idx[rows], d[rows]) for idx, d in full))
        assert scale != "huge" or all(cand.all() for _, cand in masks)

    @settings(max_examples=300, deadline=None)
    @given(searches(), st.data())
    def test_a_fold_axis_searches_each_fold_alone(self, case, draw):
        # Leave-one-out stacks tables that share their pools and rank on a
        # leading fold axis; each fold's rows are searched in it alone.
        X, rank, _, pools, scale = case
        folds = np.stack([X, X[::-1], 2 * X])
        width = draw.draw(st.integers(0, len(X) + 2))
        rows = np.array(draw.draw(st.lists(st.integers(0, len(X) - 1), min_size=3 * width,
                                           max_size=3 * width)), dtype=np.intp).reshape(3, width)
        with spied_masks() as masks:
            for k in range(1, max(map(len, pools)) + 2):
                ks = [k] * len(pools)
                each = [oracle_search(f, rank, r, pools, ks) for f, r in zip(folds, rows)]
                assert same_search(_search(folds, rank, rows, pools, ks),
                                   [tuple(map(np.stack, zip(*found))) for found in zip(*each)])
        assert scale != "huge" or all(cand.all() for _, cand in masks)

    def test_distinct_rows_prune_candidates_at_k_1(self):
        # Far from overflow, the margin keeps each row's nearest entry and
        # few others: every mask holds fewer entries than its pool, so no
        # ordinary search makes every entry a candidate.
        rng = np.random.default_rng(3)
        X, rank = rng.random((60, 5)), rng.permutation(60)
        pools = [np.arange(60), np.arange(0, 60, 3)]
        searches = [(X, None), (X, rng.random((9, 5))), (X, np.array([4, 0, 4])),
                    (np.stack([X, X[::-1]]), np.array([[1, 2], [30, 59]]))]
        with spied_masks() as masks:
            for Xs, V in searches:
                if Xs.ndim == 3:
                    each = [oracle_search(f, rank, v, pools, [1, 1]) for f, v in zip(Xs, V)]
                    want = [tuple(map(np.stack, zip(*found))) for found in zip(*each)]
                else:
                    want = oracle_search(Xs, rank, V, pools, [1, 1])
                assert same_search(_search(Xs, rank, V, pools, [1, 1]), want)
        assert len(masks) == 2 * len(searches)
        assert all((cand.sum(axis=-1) < cand.shape[-1]).all() for _, cand in masks)

    @settings(max_examples=300, deadline=None)
    @given(searches(), st.sampled_from((1, 1 << 8, 1 << 10)))
    def test_small_blocks_and_chunks_match_the_oracle(self, case, block_bytes):
        # At one byte, every block of queries and every chunk of candidates
        # holds one row. At a few hundred bytes, a block holds several rows
        # and its candidates are often re-ranked in smaller chunks.
        X, rank, V, pools, _ = case
        with mock.patch.object(fknne.classifiers, "_BLOCK_BYTES", block_bytes):
            for k in range(1, max(map(len, pools)) + 2):
                ks = [k] * len(pools)
                assert same_search(_search(X, rank, V, pools, ks),
                                   oracle_search(X, rank, V, pools, ks))

    def test_one_and_two_blas_threads_give_the_oracle_bytes(self):
        case = {}
        exec(THREAD_CASE, case)
        want = b"".join(idx.tobytes() + dist.tobytes()
                        for V, pools, ks in case["searches"]
                        for idx, dist in oracle_search(case["X"], case["rank"], V, pools, ks))
        src = Path(fknne.__file__).resolve().parents[1]
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
            done = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                                  capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            assert done.stdout == want, f"OPENBLAS_NUM_THREADS={threads}"

    @pytest.mark.parametrize("clusters", [1, 2, "near overflow"])
    def test_tied_rows_take_bounded_memory(self, clusters):
        # Every entry of 2000 equal rows is a candidate; in two clusters of
        # 1000 equal rows, each row has 1000. Rows of about +-1.5e153 have
        # squared norms past a quarter of the largest float, and every entry
        # is a candidate again. Each way the candidates are re-ranked a few
        # rows at a time. A 2000 x 2000 distance matrix alone would take 32 MB.
        n = 2000
        X = np.zeros((n, 25))
        if clusters == "near overflow":
            X = np.random.default_rng(5).uniform(-1.5e153, 1.5e153, (n, 25))
        else:
            X[::clusters] = 1.0
        tracemalloc.start()
        try:
            _search(X, np.arange(n), None, [np.arange(n)], [6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


# Cross-validation datasets: two classes whose sizes suit the protocol
# (a single-sample class under leave-one-out), duplicate rows, column
# extremes held by one row or by several, and k_init near n - 2.

@st.composite
def cross_validations(draw):
    protocol = draw(st.sampled_from((Loocv(), KFold(3, seed=1), Holdout(0.4, seed=2))))
    least = {Loocv: 1, KFold: 3, Holdout: 2}[type(protocol)]
    sizes = [draw(st.integers(least, 8)), draw(st.integers(max(least, 2), 8))]
    n = sum(sizes)
    dim = draw(st.integers(1, 4))
    cells = draw(st.sampled_from((COARSE, FINE)))
    X = np.array(draw(st.lists(cells, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    if draw(st.booleans()):
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    ids = [f"s{i:02d}" for i in draw(st.permutations(range(n)))]
    labels = draw(st.permutations(["benign"] * sizes[0] + ["malignant"] * sizes[1]))
    cfgs = draw(st.lists(st.builds(
        ClassifierConfig,
        kind=st.sampled_from(KINDS),
        k=st.integers(1, 10),
        m=st.sampled_from((1.5, 2.0, 3.0)),
        init=st.sampled_from(("crisp", "keller")),
        k_init=st.none() | st.integers(1, 4) | st.integers(max(1, n - 3), n + 1),
        normalize=st.booleans(),
    ), min_size=1, max_size=4))
    return Dataset(ids, X, labels), protocol, cfgs


class TestFoldReuse:
    @settings(max_examples=200, deadline=None)
    @given(cross_validations())
    def test_reports_equal_per_fold_refit(self, problem):
        data, protocol, cfgs = problem
        for cfg, rep in zip(cfgs, _cross_validate(data, cfgs, protocol, None)):
            self.assert_equals_oracle(rep, data, cfg, protocol)

    @staticmethod
    def assert_equals_oracle(rep, data, cfg, protocol):
        rows, folds, auc = oracle_cross_validate(data, cfg, protocol)
        assert [r[:3] for r in rep.predictions] == [r[:3] for r in rows]
        assert same_bits([r[3] for r in rep.predictions], [r[3] for r in rows])
        assert list(rep.folds) == folds
        assert same_bits(rep.auc, auc)

    def test_refitted_keller_fold_sorts_a_row_before_its_duplicate(self, monkeypatch):
        # Normalizing, the fold without h, the only row at the max, has a
        # narrower range: its rows are the full data renormalized, not a
        # fit. h's table reaches c, whose duplicate b has the smaller id and
        # the other label: c's own entry must sort before b, or c counts
        # itself among its k_init nearest others in place of b.
        data = Dataset(list("abcdefh"), [[0.0], [1.0], [1.0], [2.0], [3.0], [0.0], [5.0]],
                       ["benign", "malignant", "benign", "malignant", "benign", "malignant",
                        "benign"])
        cfg = ClassifierConfig(kind="fknne", k=3, init="keller", k_init=1)
        fits, _, searches, _ = self.counting(monkeypatch)
        rep = evaluate(data, cfg, Loocv())
        assert fits == []
        # On a fold axis of one fold: h in each class pool, then every row
        # h's table reaches, in table order.
        (fold, h, h_ks, _), (same, rows, ks, found) = searches
        assert same is fold and fold.shape == (1, 7, 1)
        assert (h.tolist(), h_ks, sorted(rows[0].tolist()), ks) == (
            [[6]], [4, 4], [0, 1, 2, 3, 4, 5], [3])
        nearest = found[0][0][0]
        assert nearest[rows[0].tolist().index(2), :2].tolist() == [2, 1]
        self.assert_equals_oracle(rep, data, cfg, Loocv())

    @pytest.mark.parametrize("past", [0, 4])
    def test_keller_k_init_past_the_folds_is_clamped_with_no_refit(self, monkeypatch, past):
        # At k_init = n - 1 + past, every fold's fit clamps k_init to its
        # n - 2 other rows, and so does the reuse: no fold is refitted,
        # renormalized or not.
        rng = np.random.default_rng(7)
        n = 12
        data = Dataset([f"s{i:02d}" for i in range(n)], rng.normal(size=(n, 3)),
                       ["benign", "malignant"] * (n // 2))
        cfgs = [ClassifierConfig(kind=kind, k=3, init="keller", k_init=n - 1 + past,
                                 normalize=normalize)
                for kind in KINDS for normalize in (False, True)]
        refit = mock.Mock(wraps=fknne.evaluation._refit)
        monkeypatch.setattr(fknne.evaluation, "_refit", refit)
        reports = list(_cross_validate(data, cfgs, Loocv(), None))
        assert refit.call_count == 0
        for cfg, rep in zip(cfgs, reports):
            self.assert_equals_oracle(rep, data, cfg, Loocv())

    def test_refitted_fold_of_one_training_sample_stays_one_hot(self):
        # Each fold holds out one of two rows, and its lone training sample
        # has no others to take Keller memberships from.
        data = Dataset(["a", "b"], [[0.0], [1.0]], ["benign", "malignant"])
        cfg = ClassifierConfig(kind="fknne", k=2, init="keller", k_init=1)
        self.assert_equals_oracle(evaluate(data, cfg, Loocv()), data, cfg, Loocv())

    @pytest.mark.parametrize("k_init", [1, 2, 3])
    def test_reused_keller_fold_holds_only_the_reached_rows_of_a_fold_fit(self, monkeypatch,
                                                                          k_init):
        # Duplicate rows tie, so ties are broken by id rank; rows that lose
        # the held-out row as a neighbour take their next one in its place.
        X = [[0, 0], [0, 0], [1, 0], [1, 1], [0, 1], [1, 1], [2, 2], [2, 1], [0, 0], [3, 2]]
        data = Dataset([f"s{i}" for i in (3, 7, 0, 9, 5, 1, 8, 2, 6, 4)], X,
                       ["benign", "malignant", "malignant", "benign", "benign",
                        "malignant", "malignant", "benign", "benign", "malignant"])
        cfg = ClassifierConfig(kind="fknne", k=3, init="keller", k_init=k_init, normalize=False)
        n = len(data)
        computed = []
        keller = fknne.evaluation.keller_from_neighbours
        monkeypatch.setattr(fknne.evaluation, "keller_from_neighbours",
                            lambda nbrs, *args: computed.append(len(nbrs)) or keller(nbrs, *args))
        model, gathered = fit(data, cfg), {}
        assert not _leave_one_out(data, model.label_index, model._id_rank, cfg.k,
                                  [_fit_key(cfg)], gathered).any()
        order = np.argsort(model._id_rank)
        # Each row's nearest others in the full data, own entry dropped.
        others = _search(model.X, model._id_rank, None, [np.arange(n)], [n])[0][0][:, 1:]
        entries = lost = 0
        for places, (_, ranks, memberships) in [g for group in gathered.values() for g in group]:
            for r, i in enumerate(order[places]):
                want = fit(data.subset(data.ids[:i] + data.ids[i + 1:]), cfg).memberships
                reached = np.concatenate([order[rank[r]] for rank in ranks])
                entries += len(reached)
                lost += int((others[reached, :k_init] == i).any())
                # Memberships come for the reached rows alone, never row i,
                # each as the fold's fit computes it.
                assert i not in reached
                assert same_bits(np.concatenate([m[r] for m in memberships]),
                                 want[reached - (reached > i)])
        # One computation per held-out class, of exactly the reached rows.
        assert entries == n * 6 and len(computed) == 2 and sum(computed) == entries
        assert lost

    @staticmethod
    def counting(monkeypatch):
        """Record what cross-validation computes: each fit as (training
        ids, (normalize, init)), each training-set normalization of a
        refitted fold as (rows given, rows normalized), each search with
        query rows as (X searched, V, ks, result) and each Keller search of
        a refitted fold as (X searched, rows, k_init)."""
        fits, normalized, searches, kellers = [], [], [], []

        def counted_fit(data, cfg):
            fits.append((data.ids, (cfg.normalize, cfg.init)))
            return fit(data, cfg)

        def counted_min_max(X, feature_names):
            out = _min_max(X, feature_names)
            normalized.append((X, out[0]))
            return out

        def counted_search(X, rank, V, pools, ks):
            found = _search(X, rank, V, pools, ks)
            if V is not None:
                searches.append((X, V, ks, found))
            return found

        def counted_keller(X, rank, label_index, one_hot, k_init, rows=None):
            kellers.append((X, rows, k_init))
            return _keller(X, rank, label_index, one_hot, k_init, rows)

        monkeypatch.setattr(fknne.evaluation, "fit", counted_fit)
        monkeypatch.setattr(fknne.evaluation, "_min_max", counted_min_max)
        monkeypatch.setattr(fknne.evaluation, "_search", counted_search)
        monkeypatch.setattr(fknne.evaluation, "_keller", counted_keller)
        return fits, normalized, searches, kellers

    @staticmethod
    def renormalized(searches):
        """The held-out rows of the folds searched stacked on a fold axis,
        ascending: in each such search of the class pools, the one row of
        each fold (the rows their tables reach take a search of their own)."""
        return sorted(i for X, V, _, _ in searches if X.ndim == 3 and V.shape[1] == 1
                      for i in V[:, 0].tolist())

    def test_one_fit_per_fold_and_fit_key(self, monkeypatch):
        fits, normalized, searches, kellers = self.counting(monkeypatch)
        X = np.random.default_rng(0).normal(size=(30, 3))
        data = Dataset([f"s{i:02d}" for i in range(30)], X, ["benign", "malignant"] * 15)
        cfgs = ([ClassifierConfig(kind=kind, k=k) for kind in KINDS for k in (1, 3, 5)]
                + [ClassifierConfig(kind=kind, k=k, init="keller")
                   for kind in KINDS for k in (3, 5)]
                + [ClassifierConfig(kind="knn", k=5, init="keller", k_init=3),
                   ClassifierConfig(kind="fknne", k=3, normalize=False)])
        protocol = KFold(5, seed=0)
        compare_classifiers(data, cfgs, protocol)
        # No fit, only arrays: per fold, one normalization of its training
        # rows, then per normalize setting one search of its test rows,
        # each at the largest k; the searched rows are a fit's of the fold.
        assert fits == []
        folds = stratified_kfold(data, 5, seed=0)
        assert len(normalized) == len(folds) and len(searches) == 2 * len(folds)
        for f, (train, test) in enumerate(folds):
            rows = [data.ids.index(i) for i in test]
            raw = fit(data.subset(train), ClassifierConfig(normalize=False))
            model = fit(data.subset(train), ClassifierConfig())
            given, normal = normalized[f]
            assert same_bits(given, raw.X) and same_bits(normal, model.X)
            for (X, V, ks, _), want, k in zip(searches[2 * f:2 * f + 2], (model, raw), (5, 3)):
                assert ks == [k, k] and same_bits(X, want.X)
                assert same_bits(V, fknne.classifiers._query_matrix(want, data.X[rows]))
            assert searches[2 * f][0] is normal
        # One Keller search per fold and k_init (3 and 5), all normalized,
        # of exactly the training rows the fold's table reaches.
        tables = {id(X): found for X, _, _, found in searches}
        assert [(id(X), k_init) for X, _, k_init in kellers] == [
            (id(normal), k_init) for _, normal in normalized for k_init in (3, 5)]
        for X, rows, _ in kellers:
            reached = np.concatenate([idx.ravel() for idx, _ in tables[id(X)]])
            assert rows.tolist() == np.unique(reached).tolist()

    def test_leave_one_out_refits_only_the_folds_it_cannot_reuse(self, monkeypatch):
        fits, normalized, searches, kellers = self.counting(monkeypatch)
        # Every column min and max is held by two rows, except g's 4.0.
        X = [[0, 5], [1, 5], [2, 7], [3, 5], [0, 6], [3, 7], [4, 6]]
        data = Dataset(list("abcdefg"), X, ["benign", "malignant"] * 3 + ["benign"])
        cfgs = [ClassifierConfig(kind="fknne", k=3, init="keller", k_init=2, normalize=normalize)
                for normalize in (False, True)]
        compare_classifiers(data, cfgs, Loocv())
        # No fit, not even of the full data, which is normalized once for
        # the normalizing config: the fold without g has a narrower first
        # column, so its rows are the full data renormalized, not a fit.
        assert fits == kellers == []
        [(given, normal)] = normalized
        assert given is data.X and same_bits(normal, fit(data, cfgs[1]).X)
        # That fold, on a fold axis of one, searches g in each class pool,
        # then exactly the rows g's table reaches, in table order; both give
        # what a fit of the fold gives.
        fold = fit(data.subset(data.ids[:6]), cfgs[1])
        table = neighbour_table(fold, data.X[6:], 3)
        (_, g, g_ks, (benign, malignant)), (_, rows, ks, _) = searches
        assert (g.tolist(), g_ks) == ([[6]], [4, 4])
        # g is benign: its own entry comes first there, and is dropped.
        for (idx, d), (want_idx, want_d) in zip([tuple(a[0, :, 1:] for a in benign),
                                                 tuple(a[0, :, :3] for a in malignant)], table):
            assert idx.tolist() == want_idx.tolist() and same_bits(d, want_d)
        assert rows.tolist() == [np.concatenate([i.ravel() for i, _ in table]).tolist()]
        assert ks == [4]

    # With a 1-byte block, each held-out row's Keller memberships are
    # computed as a chunk of their own.
    @pytest.mark.parametrize("block_bytes", [fknne.evaluation._BLOCK_BYTES, 1])
    @pytest.mark.parametrize("k", [3, 5])
    def test_renormalized_folds_equal_per_fold_refit(self, monkeypatch, k, block_bytes):
        # Normalizing, q, e, h and d are each alone at some column's min or
        # max, so their folds have narrower ranges: q holds column 0's min
        # and column 1's max; e is one of the two malignant rows, so its
        # fold's own pool is narrower than k; b and c are duplicates with
        # different labels, and the tables of q, d and e reach both. h's
        # fold scales its column 0 up a hundredfold.
        X = [[-3, 9, 1], [0, 1, 2], [0, 1, 2], [1, 2, 8], [2, -4, 1], [1, 3, 0], [2, 2, 0],
             [500, 0, 3], [0.5, 1, 2]]
        data = Dataset(list("qbcdefghi"), X,
                       ["benign", "benign", "malignant", "benign", "malignant", "benign",
                        "benign", "benign", "benign"])
        n = len(data)
        cfgs = [ClassifierConfig(kind=kind, k=k, init="crisp") for kind in KINDS] + [
            ClassifierConfig(kind=kind, k=k, init="keller", k_init=k_init)
            for kind in KINDS for k_init in (1, n - 2)]
        fits, _, searches, _ = self.counting(monkeypatch)
        monkeypatch.setattr(fknne.evaluation, "_BLOCK_BYTES", block_bytes)
        reports = list(_cross_validate(data, cfgs, Loocv(), None))
        assert fits == []
        assert self.renormalized(searches) == [0, 3, 4, 7]
        for cfg, rep in zip(cfgs, reports):
            self.assert_equals_oracle(rep, data, cfg, Loocv())

    def test_searches_do_not_grow_with_the_renormalized_folds(self, monkeypatch):
        # Normalizing, 2 rows of one column and 8 of four are alone at a
        # column's min or max, in both classes. Either way, leave-one-out
        # makes one search of the full data and, per class, one of the
        # held-out rows of its renormalized folds, stacked, and one of the
        # rows their tables reach.
        X = np.random.default_rng(0).normal(size=(40, 4))
        cfg = ClassifierConfig(kind="fknne", k=3, init="keller")
        seen = []
        for dim in (1, 4):
            data = Dataset([f"s{i:02d}" for i in range(40)], X[:, :dim], ["benign", "malignant"] * 20)
            _, _, searches, _ = self.counting(monkeypatch)
            search = mock.Mock(wraps=fknne.evaluation._search)
            monkeypatch.setattr(fknne.evaluation, "_search", search)
            evaluate(data, cfg, Loocv())
            folds = self.renormalized(searches)
            seen.append((len(folds), {data.labels[i] for i in folds}, search.call_count))
        assert seen == [(2, {"benign", "malignant"}, 5), (8, {"benign", "malignant"}, 5)]

    # With a 1-byte block, each renormalized fold is a chunk of its own.
    @pytest.mark.parametrize("block_bytes", [fknne.evaluation._BLOCK_BYTES, 1])
    def test_fold_ranges_read_from_sorted_columns_equal_per_fold_refit(self, monkeypatch,
                                                                       block_bytes):
        # Normalizing: column 0's min and max are each tied between two
        # rows, so it renormalizes no fold; column 1's min is held by -0.0
        # (r) and 0.0 (c), which a sort may order either way; r is alone at
        # column 2's min and column 3's max, s at column 3's min and t at
        # column 2's max.
        X = [[-1, 1, 0, 1], [-1, 2, 1, 0], [2, 0.0, 2, 5], [0.5, 3, 3, 2], [0, -0.0, -5, 9],
             [1, 0.5, 4, -3], [0.3, 3, 7, 3], [2, 1, 1, 4], [1.5, 2, 2, 2]]
        data = Dataset(list("abcdrstuv"), X, ["benign", "malignant"] * 4 + ["benign"])
        n = len(data)
        cfgs = [ClassifierConfig(kind=kind, k=3, init="crisp") for kind in KINDS] + [
            ClassifierConfig(kind=kind, k=3, init="keller", k_init=k_init)
            for kind in KINDS for k_init in (1, n - 2)]
        _, _, searches, _ = self.counting(monkeypatch)
        monkeypatch.setattr(fknne.evaluation, "_BLOCK_BYTES", block_bytes)
        reports = list(_cross_validate(data, cfgs, Loocv(), None))
        assert self.renormalized(searches) == [4, 5, 6]
        for cfg, rep in zip(cfgs, reports):
            self.assert_equals_oracle(rep, data, cfg, Loocv())

    def test_a_renormalized_fold_near_overflow_ranks_every_distance(self, monkeypatch):
        # Normalizing, z is alone at column 0's max, 1e154, and its fold's
        # range there is [0, 1]: z's normalized row has a squared norm of
        # 1e308, past a quarter of the largest float, so both stacked
        # searches of that fold make every entry a candidate and rank every
        # distance. Column 1 ties at both ends.
        X = [[0, 1], [0.25, 0.5], [0.5, 0.25], [0.75, 0.75], [1, 0], [0, 0.6], [0.9, 1],
             [1e154, 0.4]]
        data = Dataset(list("abcdefgz"), X, ["benign", "malignant"] * 4)
        cfgs = [ClassifierConfig(kind=kind, k=3, init=init, k_init=k_init)
                for kind in KINDS for init, k_init in (("crisp", None), ("keller", 1),
                                                        ("keller", 6))]
        _, _, searches, _ = self.counting(monkeypatch)
        with spied_masks() as masks:
            reports = list(_cross_validate(data, cfgs, Loocv(), None))
        near = [X for X, _, _, _ in searches if np.abs(X).max() >= 1e154]
        assert [X.ndim for X in near] == [3, 3]
        near_masks = [cand for X, cand in masks if any(X is x for x in near)]
        assert near_masks and all(cand.all() for cand in near_masks)
        for cfg, rep in zip(cfgs, reports):
            self.assert_equals_oracle(rep, data, cfg, Loocv())

    def test_renormalized_folds_keep_no_neighbour_lists(self):
        # At k_init = n - 2, a renormalized fold's reached rows have n - 1
        # nearest others each: about 2d folds x 2k rows x n indices, 4 MB
        # here if held until every fold is searched. Only a chunk of folds'
        # may be held, about _BLOCK_BYTES, before its memberships are taken.
        rng = np.random.default_rng(0)
        n = 1000
        data = Dataset([f"s{i:04d}" for i in range(n)], rng.normal(size=(n, 25)),
                       ["benign" if i % 3 else "malignant" for i in range(n)])
        peaks = []
        for normalize in (False, True):
            tracemalloc.start()
            try:
                evaluate(data, ClassifierConfig(init="keller", k=5, k_init=n - 2,
                                                normalize=normalize), Loocv())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2 * fknne.evaluation._BLOCK_BYTES

    def test_leave_one_out_memory_stays_linear(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        n = 2000
        data = Dataset([f"s{i:04d}" for i in range(n)], rng.normal(size=(n, 25)),
                       ["benign" if i % 3 else "malignant" for i in range(n)])
        # At k = k_init = 25, every fold's table reaches about 2k rows, and
        # each of those reads its k_init nearest others: gathered for all
        # folds at once, those neighbours alone would take n * 2k * k_init *
        # 8 bytes, 20 MB here, and their one-hot class rows twice that.
        for cfg in (ClassifierConfig(init="keller", k=5, normalize=False),
                    ClassifierConfig(init="keller", k=25, normalize=True)):
            tracemalloc.start()
            try:
                evaluate(data, cfg, Loocv())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # One n x n float64 distance matrix would take 32 MB.
            assert peak < 8 * n * n, cfg


class TestStackedScoring:
    """Cross-validation gathers each fold's neighbour entries once per fit
    key and scores each config once per group of folds that share classes
    and pool widths, over the group's entries stacked query by query."""

    CROSS_VALIDATIONS = [
        (KFold(10, seed=0), [ClassifierConfig(kind=kind, k=k)
                             for kind in KINDS for k in (1, 3, 5, 7, 9)]),
        (Loocv(), [ClassifierConfig(kind="fknne", k=5, init="keller")]),
        (Holdout(0.3, seed=0), [ClassifierConfig(kind=kind, k=3, init=init)
                                for kind in KINDS for init in ("crisp", "keller")]),
    ]

    @staticmethod
    def counting(monkeypatch):
        """Record each scoring call as (config, rows scored, class pools)."""
        calls = []
        scored = fknne.evaluation.predict_table

        def counted(table, cfg):
            calls.append((cfg, len(table[0][0]), len(table[0])))
            return scored(table, cfg)

        monkeypatch.setattr(fknne.evaluation, "predict_table", counted)
        return calls

    @staticmethod
    def assert_reports_equal_oracle(data, cfgs, protocol):
        for cfg, rep in zip(cfgs, _cross_validate(data, cfgs, protocol, None)):
            TestFoldReuse.assert_equals_oracle(rep, data, cfg, protocol)

    @pytest.mark.parametrize("protocol, cfgs", CROSS_VALIDATIONS)
    def test_one_scoring_call_per_config(self, monkeypatch, protocol, cfgs):
        calls = self.counting(monkeypatch)
        rng = np.random.default_rng(3)
        n = 60
        data = Dataset([f"s{i:02d}" for i in range(n)], rng.normal(size=(n, 4)),
                       ["benign", "malignant"] * (n // 2))
        reports = list(_cross_validate(data, cfgs, protocol, None))
        # Every fold holds both classes and pools of at least k rows: one
        # group, so one call per config, scoring every tested row.
        assert calls == [(cfg, reports[0].pooled.total, 2) for cfg in cfgs]

    def test_a_pool_narrower_than_k_forms_its_own_group(self, monkeypatch):
        # 11 malignant rows in 10 folds: the fold that tests two of them
        # trains on 9, a pool narrower than k = 10; the others train on 10.
        rng = np.random.default_rng(4)
        data = Dataset([f"s{i:02d}" for i in range(31)], rng.normal(size=(31, 3)),
                       ["malignant"] * 11 + ["benign"] * 20)
        cfgs = [ClassifierConfig(kind=kind, k=k, init=init, k_init=3)
                for kind in KINDS for k in (3, 10) for init in ("crisp", "keller")]
        calls = self.counting(monkeypatch)
        self.assert_reports_equal_oracle(data, cfgs, KFold(10, seed=0))
        # For every config, the first fold, which tests 2 + 2 rows, then the
        # other nine, which test 1 + 2 rows each: the groups of the configs'
        # shared fit keys, all gathered at k = 10.
        assert calls == [(cfg, rows, 2) for cfg in cfgs for rows in (4, 27)]

    def test_a_fold_without_a_class_forms_its_own_group(self, monkeypatch):
        # The fold that holds out the only malignant row trains on benign
        # rows alone: one pool, and it scores malignant at zero.
        rng = np.random.default_rng(5)
        data = Dataset([f"s{i}" for i in range(10)], rng.normal(size=(10, 2)),
                       ["benign"] * 4 + ["malignant"] + ["benign"] * 5)
        cfgs = [ClassifierConfig(kind=kind, k=3, init=init, k_init=2)
                for kind in KINDS for init in ("crisp", "keller")]
        calls = self.counting(monkeypatch)
        self.assert_reports_equal_oracle(data, cfgs, Loocv())
        # For every config, the nine folds that train on both classes, then
        # the one that does not.
        assert calls == [(cfg, rows, pools) for cfg in cfgs for rows, pools in ((9, 2), (1, 1))]

    def test_gathered_entries_do_not_grow_with_configs(self):
        # The entries of one fit key take 600 rows x 50 entries x 32 B
        # (distance, id rank, two memberships) = 0.96 MB, and twice that
        # while the folds are stacked. Gathered once per config instead,
        # 20 configs would hold five times what 4 configs hold.
        rng = np.random.default_rng(6)
        n = 600
        data = Dataset([f"s{i:03d}" for i in range(n)], rng.normal(size=(n, 3)),
                       ["benign", "malignant"] * (n // 2))

        def peak(cfgs):
            tracemalloc.start()
            try:
                compare_classifiers(data, cfgs, KFold(10, seed=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few = [ClassifierConfig(kind=kind, k=25) for kind in KINDS]
        many = [ClassifierConfig(kind=kind, k=k) for kind in KINDS for k in (5, 10, 15, 20, 25)]
        assert peak(many) < 1.5 * peak(few)
