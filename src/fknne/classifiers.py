"""Nearest-neighbour classifier family over feature vectors.

Four decision rules share one fitted model:

* knn    -- plurality vote of the k nearest samples,
* fknn   -- fuzzy vote: neighbour memberships weighted by d^(-2/(m-1)),
* knne   -- per-class pools: k nearest samples of each class, smallest
            mean distance wins ("nearest-neighbour equality"),
* fknne  -- fuzzy variant of knne: inverse-distance-weighted memberships
            accumulated inside each class pool, normalized across classes.

Every tie is broken by a documented total order: neighbours by
(distance, id), labels by (score, class order); each rule's docstring
states its own tie-breaks. ``predict`` and ``predict_many`` score with
the model's rule or any other named by ``kind``. Fitting memorizes the
(optionally min-max normalized) training vectors and assigns per-sample
class memberships, either crisp one-hot or Keller-style soft labels
derived from each sample's own neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .ingestion import _check_bool, _check_int, _check_real
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
        ids, fvs, labels = ([s[i] for s in samples] for i in range(3))
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
        return Dataset([self.ids[i] for i in idx], self.X[idx], labels, self.feature_names,
                       [c for c in self.classes if c in labels])


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
        _check_int("k", self.k, 1)
        _check_real("m", self.m)
        if not self.m > 1.0:
            raise ValueError("fuzzifier m must be > 1")
        if self.m == np.inf:  # not np.isfinite, which raises on an int past float range
            raise ValueError("fuzzifier m must be finite")
        if self.init not in ("crisp", "keller"):
            raise ValueError("init must be 'crisp' or 'keller'")
        if self.k_init is not None:
            _check_int("k_init", self.k_init, 1)
        _check_bool("normalize", self.normalize)


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


@dataclass(frozen=True, eq=False)
class FitModel:
    """Memorized training data plus per-sample class memberships.

    Immutable after construction; any number of concurrent predict calls
    against one model are safe.
    """

    config: ClassifierConfig
    ids: tuple[str, ...]
    X: np.ndarray
    labels: tuple[str, ...]
    label_index: np.ndarray
    _id_rank: np.ndarray
    classes: tuple[str, ...]
    feature_names: tuple[str, ...]
    norm_lo: np.ndarray | None
    norm_hi: np.ndarray | None
    memberships: np.ndarray
    k_init_used: int
    k_init_clamped: bool

    @cached_property
    def _class_pools(self) -> tuple[np.ndarray, ...]:
        """Each class's training rows, ascending, in class order."""
        return tuple(np.flatnonzero(self.label_index == ci) for ci in range(len(self.classes)))

    def __len__(self):
        return len(self.ids)


def _normalize_rows(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    out = X - lo
    out /= np.where(span == 0, 1.0, span)
    # Features constant in training stay inert for every query value.
    np.copyto(out, 0.0, where=span == 0)
    return out


# Exact neighbour engine. Every search -- one query or many, each class
# pool, Keller initialization, leave-one-out -- goes through _search, so all
# of them order neighbours the same way. The k nearest overall are merged
# from the per-class lists (_nearest), never searched a second time.

# Queries are processed in blocks whose (block x n) approximate distances
# stay near this many bytes. Candidates are re-ranked in chunks whose
# differences stay within that too.
_BLOCK_BYTES = 1 << 20

_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny
_FMAX = np.finfo(np.float64).max


def _gamma(j: int) -> float:
    """gamma_j = j*u / (1 - j*u): the relative error bound of j roundings."""
    return j * _UNIT_ROUNDOFF / (1 - j * _UNIT_ROUNDOFF)


def _id_order(ids) -> np.ndarray:
    """The rows in sorted id order. Each row's place in it, its id rank,
    is the distance tie-break."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _rerank(X, rank, pool, V, cand, k, own):
    """(rows of X, distances) of the min(k, pool size) nearest rows of
    X[pool] to each row of V, nearest first by (distance, rank).

    cand marks, for each row of V, the entries of the pool that may rank
    among its k nearest, at least k of them; only their distances are
    computed. When ``own`` is not None, own[r] is the row of X that row r
    of V is, and its distance is -1. All but pool and rank may share a
    leading fold axis: V[f] is ranked among X[f]'s rows."""
    k, out = min(k, cand.shape[-1]), cand.shape[:-1]
    per, (n, dim) = V.shape[-2], X.shape[-2:]
    X, V, cand = X.reshape(-1, dim), V.reshape(-1, dim), cand.reshape(-1, cand.shape[-1])
    own = None if own is None else own.ravel()
    count = cand.sum(axis=1)
    # Rows go in chunks whose candidates' differences take at most _BLOCK_BYTES.
    step = max(1, _BLOCK_BYTES // (8 * max(1, dim) * count.max()))
    sel, dist = np.empty((len(cand), k), dtype=np.intp), np.empty((len(cand), k))
    for a in range(0, len(cand), step):
        held = count[a:a + step]
        r, c = np.nonzero(cand[a:a + step])
        q, rows = a + r, pool[c]
        # Flattened, row q of V lies in fold q // per, whose rows of X
        # start at (q // per) * n.
        at = rows + q // per * n if per < len(cand) else rows
        D = np.sqrt(((V[q] - X[at]) ** 2).sum(axis=1))
        if own is not None:
            D[rows == own[q]] = -1.0
        # Each row's candidates stay together, nearest first; a row holds
        # at least k of them.
        order = np.lexsort((rank[rows], D, r))
        first = order[(np.cumsum(held) - held)[:, None] + np.arange(k)]
        sel[a:a + step], dist[a:a + step] = rows[first], D[first]
    return sel.reshape(out + (k,)), dist.reshape(out + (k,))


def _search(X: np.ndarray, rank: np.ndarray, V, pools, ks):
    """For each (pool, k) pair, the (indices, distances) of the
    min(k, pool size) nearest rows of X in that pool, for each row of V,
    nearest first by (distance, rank). Indices are rows of X, and any
    smaller k reads a prefix of every row.

    With V None, X is searched against itself, each row's own entry set to
    -1 so that the row sorts first in every pool that holds it; with V an
    array of row indices, so are just those rows of X. Distances
    that overflow to inf still rank, last. Only these O(n * k) lists are
    kept, never the full distance matrix.

    X may carry a leading fold axis, (folds, n, d), each fold searched
    alone with the same pools and rank; V is then (folds, rows) indices,
    and the results carry the fold axis too.

    Each distance is sqrt(S), S = sum((v - x)^2) reduced over the
    contiguous feature axis, bit for bit as one query alone would compute
    it, but few are computed.
    One matrix product per block of V gives approximate squared distances
    A = ||v||^2 + ||x||^2 - 2 v.x. A row's candidates in a pool are the
    entries with A <= A_k + margin, A_k its k-th smallest A there, and
    only their S are computed and ranked (_rerank). The margin keeps every
    entry that can rank among the k nearest, whatever order the product
    sums in, with or without fused multiply-adds and on any number of
    threads, so the result is bit for bit that of ranking every distance.

    The margin. Let u = 2^-53 and gamma_j = j*u / (1 - j*u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1):
    a float sum of j terms, or a dot product of length j, is off by at
    most gamma_j times the sum of the terms' magnitudes, in any order. For
    a row v of V and x of the pool, with d features, T = sum((v - x)^2)
    exactly and N = ||v||^2 + ||x||^2 (so T <= 2N), to first order in u:
    * the two squared norms and 2 v.x are each off by at most gamma_d N
      (2 sum |v_j x_j| <= N), and the two additions that form A round
      partial sums below 3N: |A - T| <= E = gamma_{2d+6} N;
    * S rounds a difference and a square per term, then d - 1 sums:
      |S - T| <= gamma_{d+2} T;
    * sqrt rounds correctly, so S that round to one distance differ by a
      factor below 1 + gamma_4, and rank settles their order.
    The k entries with A <= A_k have S <= (1 + gamma_{d+2})(A_k + E). An
    entry c whose distance is at most theirs has S_c below
    (1 + gamma_{d+6})(A_k + E), T_c <= S_c / (1 - gamma_{d+2}) and
    A_c <= T_c + E <= A_k + 2E + gamma_{2d+9}(A_k + E), with A_k + E <= 3N:
    A_c <= A_k + (10d + 36) u N. The margin is gamma_{12d+48} times the
    computed ||v||^2 plus the pool's largest computed ||x||^2 (in v's own
    fold). The excess covers the second-order terms, the error of the
    norms themselves and the four roundings that form A_k + margin, for
    any d below 10^6.
    Under IEEE arithmetic a product that underflows, gradually or flushed
    to zero, is off by at most the smallest normal float more. A rests on
    3d products (those of 2 v.x counting twice) and S on d, which adds at
    most 10d smallest normal floats to the bound; the margin adds
    12d + 12. Own entries are -1, exactly, in both A and S.

    When a squared norm may reach a quarter of the largest float, a
    product, an A or an S could overflow: no A is formed, and every entry
    of the pool is a candidate of the same re-rank.
    """
    # own[..., r] is the row of X that row r of V is, when X searches itself.
    own = np.arange(len(X)) if V is None else V if V.ndim < X.ndim else None
    if own is not None:
        V = X if V is None else np.take_along_axis(X, own[..., None], -2)
    found = tuple((np.empty(V.shape[:-1] + (min(k, len(p)),), dtype=np.intp),
                   np.empty(V.shape[:-1] + (min(k, len(p)),))) for p, k in zip(pools, ks))
    # A pool of every row reads each block in place: a copy costs ~4 % of a Keller fit.
    cols = [slice(None) if len(p) == X.shape[-2] else p for p in pools]
    dim = X.shape[-1]
    gamma, tiny = _gamma(12 * dim + 48), (12 * dim + 12) * _TINY
    with np.errstate(over="ignore"):
        nx = np.einsum("...j,...j->...", X, X)
        nv = np.einsum("...j,...j->...", V, V) if own is None else np.take_along_axis(nx, own, -1)
        gram = nx.max(initial=0.0) + nv.max(initial=0.0) <= _FMAX / 4
        reaches = [nx[..., c].max(axis=-1, keepdims=True) for c in cols]
        step = max(1, _BLOCK_BYTES // (8 * max(1, nx.size)))
        for s in range(0, V.shape[-2], step):
            Vs, own_rows = V[..., s:s + step, :], None if own is None else own[..., s:s + step]
            if gram:
                A = (-2.0 * Vs) @ np.swapaxes(X, -1, -2)
                A += nx[..., None, :]
                A += nv[..., s:s + step, None]
                if own is not None:
                    np.put_along_axis(A, own_rows[..., None], -1.0, axis=-1)
            for p, col, reach, k, (idx, dist) in zip(pools, cols, reaches, ks, found):
                if gram:
                    a, kp = A[..., col], min(k, len(p))
                    margin = gamma * (nv[..., s:s + step] + reach) + tiny
                    cand = a <= (np.partition(a, kp - 1, axis=-1)[..., kp - 1] + margin)[..., None]
                else:
                    cand = np.ones(Vs.shape[:-1] + (len(p),), dtype=bool)
                idx[..., s:s + step, :], dist[..., s:s + step, :] = _rerank(
                    X, rank, p, Vs, cand, k, own_rows)
    return found


def neighbour_table(model: FitModel, queries, k: int):
    """Search the k nearest training samples of each query in every class
    pool. Queries are FeatureVectors, vectors or the rows of a 2-D array,
    in the model's raw (unnormalized) feature space.

    Returns one (indices, distances) pair per class, in class order. Each
    array has one row per query and min(k, pool size) columns, nearest
    first, so any smaller k reads a prefix of every row.

    A query so far out that every distance overflows to inf is rejected:
    no rule could rank its neighbours."""
    _check_int("k", k, 1)
    # Overflow is allowed here and caught below, by each pool's nearest distance.
    with np.errstate(over="ignore"):
        V = _query_matrix(model, queries)
    pools = model._class_pools
    table = _search(model.X, model._id_rank, V, pools, [k] * len(pools))
    overflowed = np.flatnonzero(_overflowed(table))
    if overflowed.size:
        raise ValueError(f"query row {overflowed[0]}: every distance overflows to inf; "
                         "feature values are too large")
    return table


def _overflowed(table) -> np.ndarray:
    """Which queries of a table have every distance overflowed to inf."""
    return np.isinf([d[:, 0] for _, d in table]).all(axis=0)


def _nearest(d: np.ndarray, rank: np.ndarray, k: int) -> np.ndarray:
    """The columns of the k nearest entries of each row of the per-class
    lists joined side by side, nearest first: the k smallest by (distance,
    id rank). Each class brings its own k nearest, so the k nearest
    overall are all among them."""
    return np.lexsort((rank, d), axis=1)[:, :k]


def keller_from_neighbours(nbrs: np.ndarray, label_index: np.ndarray,
                           one_hot: np.ndarray) -> np.ndarray:
    """0.49 * (class shares among each row's neighbours ``nbrs``), plus
    0.51 for the row's own class.

    The order of each row's neighbours does not matter: the class counts
    are sums of 0/1 entries, exact small integers in any order."""
    memberships = 0.49 * one_hot[nbrs].sum(axis=1) / nbrs.shape[1]
    memberships[np.arange(len(nbrs)), label_index] += 0.51
    return memberships


def _min_max(X: np.ndarray, feature_names) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X normalized to each column's range, and that range (lo, hi). A
    column whose max - min overflows cannot be normalized."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    # Halves cannot overflow, and max - min does exactly when its half
    # exceeds half the largest float.
    wide = np.flatnonzero(hi / 2 - lo / 2 > _FMAX / 2)
    if wide.size:
        raise ValueError(
            f"feature {feature_names[wide[0]]!r}: max - min overflows, "
            "so it cannot be normalized"
        )
    return _normalize_rows(X, lo, hi), lo, hi


def _keller(X: np.ndarray, rank: np.ndarray, label_index: np.ndarray, one_hot: np.ndarray,
            k_init: int, rows: np.ndarray | None = None) -> np.ndarray:
    """The Keller memberships of ``rows`` of X, every row when None, from
    each one's k_init nearest other rows of X."""
    # Column 0 of each row is the row itself.
    nbrs = _search(X, rank, rows, [np.arange(len(X))], [k_init + 1])[0][0][:, 1:]
    return keller_from_neighbours(nbrs, label_index if rows is None else label_index[rows],
                                  one_hot)


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
    if cfg.normalize:
        X, lo, hi = _min_max(data.X, data.feature_names)
    else:
        X, lo, hi = np.array(data.X, dtype=np.float64), None, None
    X.flags.writeable = False

    label_index = np.array([data.classes.index(lab) for lab in data.labels], dtype=np.intp)
    one_hot = np.eye(len(data.classes))[label_index]
    id_rank = np.argsort(_id_order(data.ids))

    k_init = cfg.k if cfg.k_init is None else cfg.k_init
    clamped = cfg.init == "keller" and k_init > len(data) - 1
    if clamped:
        k_init = len(data) - 1
    memberships = one_hot
    # A lone training sample has nothing to vote and stays one-hot.
    if cfg.init == "keller" and k_init > 0:
        memberships = _keller(X, id_rank, label_index, one_hot, k_init)
    memberships.flags.writeable = False

    return FitModel(
        config=cfg,
        ids=data.ids,
        X=X,
        labels=data.labels,
        label_index=label_index,
        _id_rank=id_rank,
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
    if class_filter is not None and class_filter not in model.classes:
        raise ValueError(f"unknown class {class_filter!r}")
    table = neighbour_table(model, [x], k)
    if class_filter is None:
        idx, d = (np.concatenate(field, axis=1) for field in zip(*table))
        order = _nearest(d, model._id_rank[idx], k)[0]
        idx, d = idx[0, order], d[0, order]
    else:
        idx, d = (a[0] for a in table[model.classes.index(class_filter)])
    return [(model.ids[i], float(di)) for i, di in zip(idx, d)]


# Scoring rules. Each scores every query of a table at once and returns the
# winning class index of each query and its Q x C scores. The table is what
# the rules read of each neighbour entry, (distances, id ranks,
# memberships): per field, one array per class pool in class order, with
# one row per query and one column per entry, nearest first, cut to the
# config's k (memberships have one more axis, the classes). An entry's
# label index is its pool's class. A rule joins only the fields it reads.
# No rule reads a FitModel, so queries gathered from different fits score
# together: id ranks are only compared within a row, and a sum over one
# query's neighbours runs in the order it would for that query alone,
# along a contiguous last axis or along axis 1 of a (Q, k, C) array.

def _knn(table, cfg: ClassifierConfig):
    """Plurality vote among the k nearest samples.

    Scores are vote fractions. A vote tie goes to the tied class whose
    voters are closest in summed distance, then to class order.
    """
    ds, ranks, _ = table
    d = np.concatenate(ds, axis=1)
    order = _nearest(d, np.concatenate(ranks, axis=1), cfg.k)
    d = np.take_along_axis(d, order, axis=1)
    label = np.repeat(np.arange(len(ds)), [x.shape[1] for x in ds])
    voter = label[order][:, :, None] == np.arange(len(ds))
    votes = voter.sum(axis=1)
    # np.where, not voter * d: an inf distance times 0 is NaN.
    sum_dist = np.where(voter, d[:, :, None], 0.0).sum(axis=1)
    tied = votes == votes.max(axis=1, keepdims=True)
    closest = np.where(tied, sum_dist, np.inf).min(axis=1, keepdims=True)
    return np.argmax(tied & (sum_dist == closest), axis=1), votes / order.shape[1]


def _fuzzy_weights(d: np.ndarray, m: float):
    """Weights d^(-2/(m-1)) of each row's neighbours, and which rows match.

    A row with an exact match (d == 0), or else a weight that overflows to
    inf, weighs those neighbours 1 and the rest 0: it takes their mean
    membership. When all of a row's weights underflow to 0 (small m,
    distant query) they are rescaled by d_min^(2/(m-1)), which leaves the
    normalized scores unchanged and keeps the nearest weight at 1.
    """
    with np.errstate(divide="ignore", over="ignore"):
        w = d ** (-2.0 / (m - 1.0))
    zero = d == 0.0
    hit = np.where(zero.any(axis=1, keepdims=True), zero, np.isinf(w))
    exact = hit.any(axis=1)
    under = ~w.any(axis=1)
    if under.any():
        w[under] = (d[under].min(axis=1, keepdims=True) / d[under]) ** (2.0 / (m - 1.0))
    return np.where(exact[:, None], hit, w), exact


def _membership_mean(memberships: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row's (Q, k, C) neighbour memberships, averaged with weights w."""
    return (w[:, :, None] * memberships).sum(axis=1) / w.sum(axis=1, keepdims=True)


def _fknn(table, cfg: ClassifierConfig):
    """Fuzzy vote: memberships of the k nearest samples weighted by
    d^(-2/(m-1)) and renormalized.

    A query that coincides with training samples takes the average
    membership of the exact matches instead.
    """
    d, rank, memberships = (np.concatenate(field, axis=1) for field in table)
    order = _nearest(d, rank, cfg.k)
    d = np.take_along_axis(d, order, axis=1)
    memberships = np.take_along_axis(memberships, order[:, :, None], axis=1)
    scores = _membership_mean(memberships, _fuzzy_weights(d, cfg.m)[0])
    return np.argmax(scores, axis=1), scores


def _knne(table, cfg: ClassifierConfig):
    """Nearest-neighbour equality: the class whose k nearest samples have
    the smallest mean distance wins.

    Scores are normalized inverse mean distances; classes at mean
    distance zero share all the mass uniformly.
    """
    means = np.column_stack([d.mean(axis=1) for d in table[0]])
    zero = means == 0.0
    with np.errstate(divide="ignore"):
        raw = np.where(zero.any(axis=1, keepdims=True), zero, 1.0 / means)
    return np.argmin(means, axis=1), raw / raw.sum(axis=1, keepdims=True)


def _fknne(table, cfg: ClassifierConfig):
    """Fuzzy nearest-neighbour equality.

    Each class pools its k nearest samples; inside a pool the neighbours'
    memberships in that class are weighted by d^(-2/(m-1)) and summed, and
    the per-class masses are normalized across classes. With crisp
    memberships the ranking reduces to pure inverse-distance mass per
    pool; with Keller memberships the neighbours' soft labels shift it.
    The exact-match rule applies to the union of all pools.
    """
    ds, _, memberships = table
    d, memberships = np.concatenate(ds, axis=1), np.concatenate(memberships, axis=1)
    w, exact = _fuzzy_weights(d, cfg.m)
    bounds = list(accumulate([x.shape[1] for x in ds], initial=0))
    # Each pool weighs its neighbours' memberships in its own class.
    raw = np.column_stack([(memberships[:, a:b, ci] * w[:, a:b]).sum(axis=1)
                           for ci, (a, b) in enumerate(zip(bounds, bounds[1:]))])
    # The exact-match rule applies to the union of all pools.
    scores = np.where(exact[:, None], _membership_mean(memberships, w),
                      raw / raw.sum(axis=1, keepdims=True))
    return np.argmax(scores, axis=1), scores


_RULES = {"knn": _knn, "fknn": _fknn, "knne": _knne, "fknne": _fknne}


def predict_table(table, cfg: ClassifierConfig):
    """Score every query of a table gathered at a k of at least ``cfg.k``
    with the rule, k and m of ``cfg``: the (distances, id ranks,
    memberships) the rules read, per field one array per class pool.
    Returns the winning class index of each query and its Q x C scores."""
    return _RULES[cfg.kind]([[a[:, :cfg.k] for a in field] for field in table], cfg)


def predict_many(model: FitModel, queries, kind: str | None = None) -> list[Prediction]:
    """Predict a batch of queries with the decision rule ``kind``, by
    default the model's own; another kind keeps the config's k and m.

    One neighbour search serves the whole batch; each result equals what
    ``predict`` returns for that query alone.
    """
    cfg = model.config if kind is None else replace(model.config, kind=kind)
    table = neighbour_table(model, queries, cfg.k)
    winners, scores = predict_table(([d for _, d in table], [model._id_rank[i] for i, _ in table],
                                     [model.memberships[i] for i, _ in table]), cfg)
    return [Prediction(model.classes[w], model.classes, s) for w, s in zip(winners, scores)]


def predict(model: FitModel, x, kind: str | None = None) -> Prediction:
    """Predict one query with the decision rule ``kind``, by default the
    model's own: a batch of one."""
    return predict_many(model, [x], kind)[0]
