"""Nearest-neighbour classifier family over feature vectors.

Four decision rules share one fitted model:

* knn    -- plurality vote of the k nearest samples,
* fknn   -- fuzzy vote: neighbour memberships weighted by d^(-2/(m-1)),
* knne   -- per-class pools: k nearest samples of each class, smallest
            mean distance wins ("nearest-neighbour equality"),
* fknne  -- fuzzy variant of knne: inverse-distance-weighted memberships
            accumulated inside each class pool, normalized across classes.

Every tie is broken by a documented total order: neighbours by
(distance, id), labels by (score, class order). Fitting memorizes the
(optionally min-max normalized) training vectors and assigns per-sample
class memberships, either crisp one-hot or Keller-style soft labels
derived from each sample's own neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .texture import FeatureVector

KINDS = ("knn", "fknn", "knne", "fknne")


class Dataset:
    """Labeled feature vectors with a shared schema and stable unique ids."""

    def __init__(self, ids, features, labels, feature_names=None, classes=None):
        ids = [str(i) for i in ids]
        labels = [str(l) for l in labels]
        if isinstance(features, (list, tuple)) and features and isinstance(features[0], FeatureVector):
            schemas = {fv.names for fv in features}
            if len(schemas) != 1:
                raise ValueError("all feature vectors must share one name schema")
            if feature_names is not None and tuple(feature_names) != features[0].names:
                raise ValueError("feature_names disagrees with the vectors' schema")
            feature_names = features[0].names
            X = np.array([fv.values for fv in features], dtype=np.float64)
        else:
            X = np.asarray(features, dtype=np.float64)
            if X.ndim != 2:
                raise ValueError("features must be a 2-D matrix or FeatureVector list")
            if feature_names is None:
                feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
        feature_names = tuple(feature_names)
        if X.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if len(ids) != X.shape[0] or len(labels) != X.shape[0]:
            raise ValueError("ids, features and labels must have equal length")
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be unique")
        if len(feature_names) != X.shape[1]:
            raise ValueError("feature_names length must match feature count")
        if len(set(feature_names)) != len(feature_names):
            dup = sorted({n for n in feature_names if feature_names.count(n) > 1})
            raise ValueError(f"duplicate feature names: {', '.join(dup)}")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature values must be finite")
        if classes is None:
            classes = tuple(sorted(set(labels)))
        else:
            classes = tuple(classes)
        present = set(labels)
        if present - set(classes):
            raise ValueError("every label must be one of the declared classes")
        if set(classes) - present:
            raise ValueError("every declared class needs at least one sample")
        X.flags.writeable = False
        self.ids = tuple(ids)
        self.X = X
        self.labels = tuple(labels)
        self.feature_names = feature_names
        self.classes = classes

    @classmethod
    def from_samples(cls, samples, classes=None) -> "Dataset":
        """Build from (id, FeatureVector, label) triples."""
        ids = [s[0] for s in samples]
        fvs = [s[1] for s in samples]
        labels = [s[2] for s in samples]
        return cls(ids, fvs, labels, classes=classes)

    def __len__(self):
        return len(self.ids)

    def feature_vector(self, i: int) -> FeatureVector:
        return FeatureVector(self.feature_names, self.X[i])

    def select_features(self, names) -> "Dataset":
        """Restrict the schema to the named features, in the given order."""
        names = list(names)
        unknown = [n for n in names if n not in self.feature_names]
        if unknown:
            raise ValueError(f"unknown feature names: {', '.join(unknown)}")
        if not names:
            raise ValueError("feature selection must keep at least one feature")
        cols = [self.feature_names.index(n) for n in names]
        return Dataset(
            self.ids,
            self.X[:, cols],
            self.labels,
            feature_names=tuple(names),
            classes=self.classes,
        )

    def subset(self, keep_ids) -> "Dataset":
        """Restrict to the given ids; classes shrink to those still present,
        keeping their relative order."""
        keep = set(keep_ids)
        idx = [i for i, sid in enumerate(self.ids) if sid in keep]
        if len(idx) != len(keep):
            missing = keep - set(self.ids)
            raise ValueError(f"unknown sample ids: {sorted(missing)}")
        labels = [self.labels[i] for i in idx]
        classes = tuple(c for c in self.classes if c in set(labels))
        return Dataset(
            [self.ids[i] for i in idx],
            self.X[idx],
            labels,
            feature_names=self.feature_names,
            classes=classes,
        )


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyperparameters shared by the four decision rules.

    ``m`` is the fuzzifier exponent (weights are d^(-2/(m-1))); ``k_init``
    sizes the neighbourhood used for Keller membership initialization and
    defaults to ``k``; ``normalize`` rescales each feature to the training
    min-max range before any distance is computed.
    """

    kind: str = "fknne"
    k: int = 3
    m: float = 2.0
    init: str = "crisp"
    k_init: int | None = None
    normalize: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.m > 1.0:
            raise ValueError("fuzzifier m must be > 1")
        if self.init not in ("crisp", "keller"):
            raise ValueError("init must be 'crisp' or 'keller'")
        if self.k_init is not None and self.k_init < 1:
            raise ValueError("k_init must be >= 1")


@dataclass(frozen=True, eq=False)
class Prediction:
    """Winning label plus the per-class scores it was chosen from.

    Scores align with ``classes``, lie in [0, 1] and sum to 1. The label
    is always the argmax under the documented tie-break.
    """

    label: str
    classes: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def score(self, cls: str) -> float:
        return float(self.scores[self.classes.index(cls)])

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.classes, self.scores.tolist()))


class FitModel:
    """Memorized training data plus per-sample class memberships.

    Immutable after construction; any number of concurrent predict calls
    against one model are safe.
    """

    def __init__(self, config, ids, X, labels, classes, feature_names,
                 norm_lo, norm_hi, memberships, k_init_used, k_init_clamped):
        self.config = config
        self.ids = ids
        self.X = X
        self.labels = labels
        self.classes = classes
        self.feature_names = feature_names
        self.norm_lo = norm_lo
        self.norm_hi = norm_hi
        self.memberships = memberships
        self.k_init_used = k_init_used
        self.k_init_clamped = k_init_clamped
        self.label_index = _label_index(labels, classes)
        self._class_pools = tuple(
            np.flatnonzero(self.label_index == ci) for ci in range(len(classes))
        )
        self._id_rank = _id_rank(ids)

    def __len__(self):
        return len(self.ids)


def _label_index(labels, classes) -> np.ndarray:
    position = {c: ci for ci, c in enumerate(classes)}
    return np.array([position[lab] for lab in labels], dtype=np.intp)


def _normalize_rows(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    flat = span == 0
    safe = np.where(flat, 1.0, span)
    out = (X - lo) / safe
    # Features constant in training stay inert for every query value.
    return np.where(flat, 0.0, out)


# Exact neighbour engine. Every search -- one query or many, whole training
# set or one class pool, Keller initialization -- goes through the two
# helpers below, so all of them order neighbours the same way.

# Queries are processed in blocks whose (block x n x d) difference
# temporary stays near this many bytes.
_BLOCK_BYTES = 1 << 20


def _id_rank(ids) -> np.ndarray:
    """Position of each id in sorted id order: the distance tie-break."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _distance_blocks(X: np.ndarray, V: np.ndarray):
    """Yield (first query row, distance block) covering all rows of V.

    Each entry is sqrt(sum((x - v)^2)) reduced over the contiguous
    feature axis, bit-identical to computing it one query at a time.
    """
    n, dim = X.shape
    step = max(1, _BLOCK_BYTES // (8 * max(1, n * dim)))
    for s in range(0, len(V), step):
        yield s, np.sqrt(((V[s:s + step, None, :] - X[None, :, :]) ** 2).sum(axis=2))


def _k_smallest(D: np.ndarray, rank: np.ndarray, k: int):
    """(columns, distances) of the min(k, n) smallest entries of each row
    of D, ordered by (distance, rank)."""
    rows = np.arange(len(D))[:, None]
    if k >= D.shape[1]:
        sel = np.lexsort((np.broadcast_to(rank, D.shape), D), axis=1)
        return sel, D[rows, sel]
    part = np.argpartition(D, k - 1, axis=1)[:, :k]
    d = D[rows, part]
    order = np.lexsort((rank[part], d), axis=1)
    sel, d = part[rows, order], d[rows, order]
    # More than k entries at or below the k-th smallest distance: the tie
    # straddles the cut, and rank decides which of the tied entries make it.
    straddle = (D <= d[:, -1:]).sum(axis=1) > k
    if straddle.any():
        tied = D[straddle]
        full = np.lexsort((np.broadcast_to(rank, tied.shape), tied), axis=1)[:, :k]
        sel[straddle] = full
        d[straddle] = tied[np.arange(len(tied))[:, None], full]
    return sel, d


class NeighbourTable(NamedTuple):
    """The nearest training samples of a batch of queries, nearest first.

    ``nearest`` is an (indices, distances) pair over the whole training
    set and ``per_class`` holds one such pair per class pool, in class
    order. Each array has one row per query and min(k, pool size)
    columns, so any smaller k reads a prefix of every row.
    """

    nearest: tuple[np.ndarray, np.ndarray]
    per_class: tuple[tuple[np.ndarray, np.ndarray], ...]


def neighbour_table(model: FitModel, queries, k: int) -> NeighbourTable:
    """Search the k nearest training samples of each query, overall and
    per class. Queries are FeatureVectors, vectors or the rows of a 2-D
    array, in the model's raw (unnormalized) feature space.

    A query so far out that every distance overflows to inf is rejected:
    no rule could rank its neighbours."""
    pools = (None,) + model._class_pools
    # Overflow is allowed here and caught below, by the nearest distance.
    with np.errstate(over="ignore"):
        V = _query_matrix(model, queries)
        widths = [min(k, len(model.X) if p is None else len(p)) for p in pools]
        out = [(np.empty((len(V), w), dtype=np.intp), np.empty((len(V), w))) for w in widths]
        for s, D in _distance_blocks(model.X, V):
            for pool, (idx, dist) in zip(pools, out):
                Dp, rank = (D, model._id_rank) if pool is None else (D[:, pool], model._id_rank[pool])
                sel, dist[s:s + len(D)] = _k_smallest(Dp, rank, k)
                idx[s:s + len(D)] = sel if pool is None else pool[sel]
    overflowed = np.flatnonzero(np.isinf(out[0][1][:, 0]))
    if overflowed.size:
        raise ValueError(f"query row {overflowed[0]}: every distance overflows "
                         f"to inf; feature values are too large")
    return NeighbourTable(out[0], tuple(out[1:]))


def _keller_memberships(X: np.ndarray, ids, label_index: np.ndarray, one_hot: np.ndarray,
                        k_init: int) -> np.ndarray:
    """0.49 * (class shares among each sample's k_init nearest others),
    plus 0.51 for the sample's own class."""
    n = len(X)
    rank = _id_rank(ids)
    nbrs = np.empty((n, k_init), dtype=np.intp)
    for s, D in _distance_blocks(X, X):
        rows = np.arange(len(D))
        D[rows, s + rows] = -1.0  # the sample itself sorts first and is dropped
        nbrs[s:s + len(D)] = _k_smallest(D, rank, k_init + 1)[0][:, 1:]
    memberships = 0.49 * one_hot[nbrs].sum(axis=1) / k_init
    memberships[np.arange(n), label_index] += 0.51
    return memberships


def fit(data: Dataset, cfg: ClassifierConfig | None = None) -> FitModel:
    """Memorize the training set and assign per-sample class memberships.

    Crisp initialization is one-hot on the sample's label. Keller
    initialization looks at each sample's ``k_init`` nearest other
    training samples: with n_c of them in class c, the membership is
    0.49*n_c/k_init, plus 0.51 for the sample's own class. A ``k_init``
    of at least the training size is clamped to n-1 and flagged on the
    model.
    """
    if cfg is None:
        cfg = ClassifierConfig()
    X = np.array(data.X, dtype=np.float64)
    if cfg.normalize:
        lo, hi = X.min(axis=0), X.max(axis=0)
        X = _normalize_rows(X, lo, hi)
    else:
        lo = hi = None
    X.flags.writeable = False

    n = len(data)
    label_index = _label_index(data.labels, data.classes)
    one_hot = np.zeros((n, len(data.classes)))
    one_hot[np.arange(n), label_index] = 1.0

    k_init = cfg.k_init if cfg.k_init is not None else cfg.k
    clamped = False
    memberships = one_hot
    if cfg.init == "keller":
        if k_init > n - 1:
            k_init, clamped = n - 1, True
        # A lone training sample has nothing to vote and stays one-hot.
        if k_init > 0:
            memberships = _keller_memberships(X, data.ids, label_index, one_hot, k_init)
    memberships.flags.writeable = False

    return FitModel(
        config=cfg,
        ids=data.ids,
        X=X,
        labels=data.labels,
        classes=data.classes,
        feature_names=data.feature_names,
        norm_lo=lo,
        norm_hi=hi,
        memberships=memberships,
        k_init_used=k_init,
        k_init_clamped=clamped,
    )


def _raw_query(model: FitModel, x) -> np.ndarray:
    if isinstance(x, FeatureVector):
        if x.names != model.feature_names:
            raise ValueError(
                f"feature schema mismatch: query has {x.names}, "
                f"model expects {model.feature_names}"
            )
        return np.array(x.values, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != model.X.shape[1]:
        raise ValueError(
            f"feature schema mismatch: query has {v.size} values, "
            f"model expects {model.X.shape[1]}"
        )
    return v


def _query_matrix(model: FitModel, queries) -> np.ndarray:
    """Validated queries, normalized like the training vectors, one row each."""
    V = np.array([_raw_query(model, x) for x in queries]).reshape(-1, model.X.shape[1])
    bad = np.flatnonzero(~np.isfinite(V).all(axis=1))
    if bad.size:
        raise ValueError(f"query row {bad[0]}: feature values must be finite")
    if model.config.normalize:
        V = _normalize_rows(V, model.norm_lo, model.norm_hi)
    return V


def kneighbors(model: FitModel, x, k: int, class_filter: str | None = None):
    """Exact k-nearest training samples as (id, distance) pairs.

    Optionally restricted to one class; ties are broken by id.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if class_filter is not None and class_filter not in model.classes:
        raise ValueError(f"unknown class {class_filter!r}")
    table = neighbour_table(model, [x], k)
    idx, d = (table.nearest if class_filter is None
              else table.per_class[model.classes.index(class_filter)])
    return [(model.ids[i], float(di)) for i, di in zip(idx[0], d[0])]


# Scoring rules. Each scores one query from its rows of a NeighbourTable:
# (idx, d) are its k nearest samples, per_class their per-pool analogues.

def _fuzzy_weights(d: np.ndarray, m: float) -> np.ndarray:
    """d^(-2/(m-1)). When every weight underflows to 0 (small m, distant
    query) the weights are rescaled by d_min^(2/(m-1)), which leaves the
    normalized scores unchanged and keeps the nearest weight at 1."""
    with np.errstate(divide="ignore"):
        w = d ** (-2.0 / (m - 1.0))
    if not w.any():
        w = (d.min() / d) ** (2.0 / (m - 1.0))
    return w


def _exact_match_scores(model: FitModel, idx: np.ndarray, hit: np.ndarray) -> np.ndarray:
    return model.memberships[idx[hit]].mean(axis=0)


def _knn(model: FitModel, idx: np.ndarray, d: np.ndarray) -> Prediction:
    n_classes = len(model.classes)
    voters = model.label_index[idx]
    votes = np.bincount(voters, minlength=n_classes)
    sum_dist = np.bincount(voters, weights=d, minlength=n_classes)
    scores = votes / len(idx)
    top = votes.max()
    tied = [ci for ci in range(n_classes) if votes[ci] == top]
    winner = min(tied, key=lambda ci: (sum_dist[ci], ci))
    return Prediction(model.classes[winner], model.classes, scores)


def _fknn(model: FitModel, idx: np.ndarray, d: np.ndarray) -> Prediction:
    zero = d == 0.0
    if zero.any():
        scores = _exact_match_scores(model, idx, zero)
    else:
        w = _fuzzy_weights(d, model.config.m)
        inf = np.isinf(w)
        if inf.any():  # same limit as an exact match
            scores = _exact_match_scores(model, idx, inf)
        else:
            scores = (w[:, None] * model.memberships[idx]).sum(axis=0) / w.sum()
    winner = int(np.argmax(scores))
    return Prediction(model.classes[winner], model.classes, scores)


def _knne(model: FitModel, per_class) -> Prediction:
    means = np.array([d.mean() for _, d in per_class])
    zero = means == 0.0
    if zero.any():
        scores = zero / zero.sum()
    else:
        inv = 1.0 / means
        scores = inv / inv.sum()
    winner = int(np.argmin(means))
    return Prediction(model.classes[winner], model.classes, scores)


def _fknne(model: FitModel, per_class) -> Prediction:
    all_idx = np.concatenate([idx for idx, _ in per_class])
    all_d = np.concatenate([d for _, d in per_class])
    zero = all_d == 0.0
    if zero.any():
        scores = _exact_match_scores(model, all_idx, zero)
    else:
        w_all = _fuzzy_weights(all_d, model.config.m)
        inf = np.isinf(w_all)
        if inf.any():
            scores = _exact_match_scores(model, all_idx, inf)
        else:
            raw = np.zeros(len(model.classes))
            start = 0
            for ci, (idx, _) in enumerate(per_class):
                w = w_all[start:start + len(idx)]
                start += len(idx)
                raw[ci] = (model.memberships[idx, ci] * w).sum()
            scores = raw / raw.sum()
    winner = int(np.argmax(scores))
    return Prediction(model.classes[winner], model.classes, scores)


def predict_table(model: FitModel, table: NeighbourTable, kind: str | None = None) -> list[Prediction]:
    """Score every query of a table built at a k of at least the model's,
    with the model's decision rule or the one named by ``kind``."""
    kind = kind or model.config.kind
    k = model.config.k
    if kind in ("knn", "fknn"):
        score = _knn if kind == "knn" else _fknn
        idx, dist = table.nearest
        return [score(model, i[:k], d[:k]) for i, d in zip(idx, dist)]
    score = _knne if kind == "knne" else _fknne
    pools = [(idx[:, :k], dist[:, :k]) for idx, dist in table.per_class]
    return [score(model, [(idx[q], dist[q]) for idx, dist in pools])
            for q in range(len(table.nearest[0]))]


def predict_many(model: FitModel, queries) -> list[Prediction]:
    """Predict a batch of queries with the model's decision rule.

    One neighbour search serves the whole batch; each result equals what
    ``predict`` returns for that query alone.
    """
    return predict_table(model, neighbour_table(model, queries, model.config.k))


def _predict_one(model: FitModel, x, kind: str) -> Prediction:
    return predict_table(model, neighbour_table(model, [x], model.config.k), kind)[0]


def predict_knn(model: FitModel, x) -> Prediction:
    """Plurality vote among the k nearest samples.

    Scores are vote fractions. A vote tie goes to the tied class whose
    voters are closest in summed distance, then to class order.
    """
    return _predict_one(model, x, "knn")


def predict_fknn(model: FitModel, x) -> Prediction:
    """Fuzzy vote: memberships of the k nearest samples weighted by
    d^(-2/(m-1)) and renormalized.

    A query that coincides with training samples takes the average
    membership of the exact matches instead.
    """
    return _predict_one(model, x, "fknn")


def predict_knne(model: FitModel, x) -> Prediction:
    """Nearest-neighbour equality: the class whose k nearest samples have
    the smallest mean distance wins.

    Scores are normalized inverse mean distances; classes at mean
    distance zero share all the mass uniformly.
    """
    return _predict_one(model, x, "knne")


def predict_fknne(model: FitModel, x) -> Prediction:
    """Fuzzy nearest-neighbour equality.

    Each class pools its k nearest samples; inside a pool the neighbours'
    memberships in that class are weighted by d^(-2/(m-1)) and summed, and
    the per-class masses are normalized across classes. With crisp
    memberships the ranking reduces to pure inverse-distance mass per
    pool; with Keller memberships the neighbours' soft labels shift it.
    The exact-match rule applies to the union of all pools.
    """
    return _predict_one(model, x, "fknne")


def predict(model: FitModel, x) -> Prediction:
    """Dispatch to the decision rule named by the model's config."""
    return predict_many(model, [x])[0]
