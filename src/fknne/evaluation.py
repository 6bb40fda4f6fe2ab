"""Confusion metrics, ROC/AUC and cross-validation protocols.

The positive class is malignant: sensitivity is the malignancy detection
rate, specificity the benign pass rate. ROC curves are swept over the
positive-class membership scores, so every classifier yields a
real-valued ranking. Reports carry both the pooled confusion over all
folds and the macro average of per-fold rates, since the two need not
agree.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .classifiers import (
    _BLOCK_BYTES,
    ClassifierConfig,
    Dataset,
    _id_order,
    _keller,
    _min_max,
    _normalize_rows,
    _overflowed,
    _search,
    fit,  # noqa: F401 -- re-exported; perfbench/spans.py wraps fknne.evaluation.fit
    keller_from_neighbours,
    predict,  # noqa: F401 -- re-exported; perfbench/worker.py wraps fknne.evaluation.predict
    predict_table,
)
from .ingestion import _check_int, _check_real


@dataclass(frozen=True)
class ConfusionCounts:
    """tp/fp/tn/fn with malignant (the designated class) counted positive."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Threshold-swept (fpr, tpr, threshold) points from (0,0) to (1,1),
    plus the trapezoidal area under them."""

    points: tuple[tuple[float, float, float], ...]
    auc: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64).reshape(len(self.points), 3)
        if not len(pts) or (pts[[0, -1], :2] != [[0.0, 0.0], [1.0, 1.0]]).any():
            raise ValueError("ROC points must run from (0,0) to (1,1)")
        if (pts[1:, :2] < pts[:-1, :2]).any():
            raise ValueError("ROC points must be monotone non-decreasing")
        object.__setattr__(self, "points", tuple(map(tuple, pts.tolist())))


def _counts(y: np.ndarray, hit: np.ndarray) -> ConfusionCounts:
    """Tally truth ``y`` against ``hit``, both boolean: positive, predicted positive."""
    tn, fp, fn, tp = np.bincount(2 * y + hit, minlength=4).tolist()
    return ConfusionCounts(tp, fp, tn, fn)


def confusion(predictions, truth, positive: str = "malignant") -> ConfusionCounts:
    """Tally predictions (labels or Prediction objects) against the truth.

    The class set is inferred from the inputs, including every Prediction's
    classes; a positive class outside it is an error.
    """
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth must have equal length")
    predicted = [p if isinstance(p, str) else p.label for p in predictions]
    y = np.asarray(truth, dtype=object) == positive
    hit = np.asarray(predicted, dtype=object) == positive
    if not (y.any() or hit.any() or any(
            positive in p.classes for p in predictions if not isinstance(p, str))):
        raise ValueError(f"positive class {positive!r} absent from the class set")
    return _counts(y, hit)


def rates(c: ConfusionCounts) -> tuple[float, float, float]:
    """(sensitivity, specificity, accuracy). Raises when either population
    is empty instead of silently reporting 0."""
    if c.tp + c.fn == 0:
        raise ValueError("no positive samples: sensitivity undefined")
    if c.tn + c.fp == 0:
        raise ValueError("no negative samples: specificity undefined")
    return (
        c.tp / (c.tp + c.fn),
        c.tn / (c.tn + c.fp),
        (c.tp + c.tn) / c.total,
    )


def _roc(s: np.ndarray, y: np.ndarray) -> RocCurve:
    """The ROC curve of float64 scores ``s`` against boolean truth ``y``."""
    n_pos = int(np.count_nonzero(y))
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires both classes in the truth")
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    last = np.r_[np.flatnonzero(np.diff(s_sorted) != 0), len(s) - 1]
    fpr = np.r_[0.0, np.cumsum(~y_sorted)[last] / n_neg]
    tpr = np.r_[0.0, np.cumsum(y_sorted)[last] / n_pos]
    # The trapezoids summed left to right: accumulate keeps that order,
    # where np.sum pairs terms and Python 3.12's sum() compensates.
    area = np.add.accumulate((fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0)[-1]
    return RocCurve(points=np.column_stack((fpr, tpr, np.r_[np.inf, s_sorted[last]])),
                    auc=float(area))


def roc_curve(scores, truth, positive: str = "malignant") -> RocCurve:
    """Sweep thresholds over the distinct scores, descending.

    A sample counts as predicted-positive when its score is >= the
    threshold; samples with equal scores move together in one step. The
    curve starts at (0,0) (threshold +inf) and ends at (1,1).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(truth, dtype=object) == positive
    if len(s) != len(y):
        raise ValueError("scores and truth must have equal length")
    return _roc(s, y)


def auc(scores, truth, positive: str = "malignant") -> float:
    """Trapezoidal area under the ROC curve; equals the probability that a
    random positive outscores a random negative, ties counting half."""
    return roc_curve(scores, truth, positive).auc


def _shuffled_by_class(data: Dataset, order: np.ndarray, seed: int):
    """Yield (class, places) in class order. ``order`` holds the rows in id
    order; a class's places are where its rows stand in it, ascending,
    then permuted by one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    labels = np.array(data.labels)[order]
    for c in data.classes:
        places = np.flatnonzero(labels == c)
        yield c, places[rng.permutation(len(places))]


def stratified_kfold(data: Dataset, k: int, seed: int):
    """Deterministic stratified folds: per class, ids are sorted, shuffled
    with the seed and dealt round-robin, so fold class proportions stay
    within one sample of the global split.

    Returns k (train_ids, test_ids) pairs, each list sorted; the test sets
    partition the dataset. The assignment depends only on (seed, ids), not
    input order.
    """
    order = _id_order(data.ids)
    out = []
    for test in KFold(k, seed).splits(data):
        rest = order[np.isin(order, test, invert=True)]
        out.append(([data.ids[i] for i in rest], [data.ids[i] for i in test]))
    return out


# Protocols. Each names itself in reports, carries its shuffling seed (None
# when it has none) and splits a dataset into folds. A fold is its test
# rows, an intp array in id order; it trains on every other row.

@dataclass(frozen=True)
class KFold:
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_int("k", self.k, 2)
        _check_int("seed", self.seed, 0)

    @property
    def name(self) -> str:
        return f"kfold({self.k})"

    def splits(self, data: Dataset):
        order = _id_order(data.ids)
        folds = [[] for _ in range(self.k)]
        for c, places in _shuffled_by_class(data, order, self.seed):
            if len(places) < self.k:
                raise ValueError(f"class {c!r} has fewer than {self.k} samples")
            for i, fold in enumerate(folds):
                fold.append(places[i::self.k])
        return [order[np.sort(np.concatenate(fold))] for fold in folds]


@dataclass(frozen=True)
class Holdout:
    fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _check_real("fraction", self.fraction)
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("holdout fraction must be in (0, 1)")
        _check_int("seed", self.seed, 0)

    @property
    def name(self) -> str:
        return f"holdout({self.fraction})"

    def splits(self, data: Dataset):
        order = _id_order(data.ids)
        test = []
        for c, places in _shuffled_by_class(data, order, self.seed):
            if len(places) < 2:
                raise ValueError(f"class {c!r} needs >= 2 samples for a holdout split")
            n_test = int(round(self.fraction * len(places)))
            n_test = min(max(n_test, 1), len(places) - 1)
            test.append(places[:n_test])
        return [order[np.sort(np.concatenate(test))]]


@dataclass(frozen=True)
class Loocv:
    name = "loocv"
    seed = None

    def splits(self, data: Dataset):
        return _id_order(data.ids)[:, None]


@dataclass(frozen=True)
class FoldResult:
    """One fold's confusion plus whichever rates are defined for it."""

    counts: ConfusionCounts
    sensitivity: float | None
    specificity: float | None
    accuracy: float


def _fold_result(counts: ConfusionCounts) -> FoldResult:
    pos, neg = counts.tp + counts.fn, counts.tn + counts.fp
    return FoldResult(
        counts=counts,
        sensitivity=counts.tp / pos if pos else None,
        specificity=counts.tn / neg if neg else None,
        accuracy=(counts.tp + counts.tn) / counts.total,
    )


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Everything one evaluation run produced.

    ``sensitivity``/``specificity``/``accuracy`` and ``roc``/``auc`` are
    pooled over all test predictions; ``averaged`` holds the macro mean of
    the per-fold rates (over folds where they are defined).
    """

    config: ClassifierConfig
    protocol: object
    positive_class: str
    pooled: ConfusionCounts
    sensitivity: float
    specificity: float
    accuracy: float
    roc: RocCurve
    auc: float
    averaged: dict[str, float | None]
    folds: tuple[FoldResult, ...]
    predictions: tuple[tuple[str, str, str, float], ...]  # (id, truth, predicted, score)

    def to_dict(self) -> dict:
        """Stable-keyed mapping mirroring the JSON report layout."""
        cfg = self.config
        return {
            "method": cfg.kind,
            "k": cfg.k,
            "m": cfg.m,
            "init": cfg.init,
            "protocol": self.protocol.name,
            "seed": self.protocol.seed,
            "positive_class": self.positive_class,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "accuracy": self.accuracy,
            "auc": self.auc,
            "pooled": _counts_dict(self.pooled),
            "averaged": dict(self.averaged),
            "folds": [
                dict(_counts_dict(f.counts), sensitivity=f.sensitivity,
                     specificity=f.specificity, accuracy=f.accuracy)
                for f in self.folds
            ],
        }


def _counts_dict(c: ConfusionCounts) -> dict:
    """``asdict(c)`` without its recursive copy: a LOOCV report has n folds."""
    return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}


def _refit(data: Dataset, label: np.ndarray, rank: np.ndarray, test: np.ndarray, k: int,
           keys):
    """The fold that tests ``test`` and trains on every other row, built
    from arrays sliced from the checked dataset: the training rows, their
    label indices renumbered over the classes still present and their
    full-data id ranks ``rank``, whose order is the fold's own. Returns the
    fold's classes and, per fit key in ``keys`` (all of one normalize
    setting), its test rows' table at k, as the rules read it: (distances,
    id ranks, memberships). The table is searched once for every key, and
    Keller memberships are computed as ``fit`` computes them, but only for
    the training rows the table reaches. Every protocol can take this path;
    leave-one-out takes it for the folds ``_leave_one_out`` cannot reuse."""
    train = np.delete(np.arange(len(data)), test)
    X, V = data.X[train], data.X[test]
    if keys[0][0]:
        X, lo, hi = _min_max(X, data.feature_names)
        # A test row may lie far outside the fold's range.
        with np.errstate(over="ignore"):
            V = _normalize_rows(V, lo, hi)
    present = np.bincount(label[train], minlength=len(data.classes)) > 0
    label, rank = (np.cumsum(present) - 1)[label[train]], rank[train]
    one_hot = np.eye(np.count_nonzero(present))[label]
    table = _search(X, rank, V, [np.flatnonzero(c) for c in one_hot.T], [k] * len(one_hot.T))
    overflowed = np.flatnonzero(_overflowed(table))
    if overflowed.size:
        raise ValueError(f"sample {data.ids[test[overflowed[0]]]!r}: every distance to its fold's "
                         "training rows overflows to inf; feature values are too large")
    dists, ranks, entries = [d for _, d in table], [rank[idx] for idx, _ in table], []
    for _, init, k_init in keys:
        memberships = [one_hot[idx] for idx, _ in table]
        # A lone training sample has nothing to vote and stays one-hot.
        if init == "keller" and len(X) > 1:
            rows = np.unique(np.concatenate([idx.ravel() for idx, _ in table]))
            reached = _keller(X, rank, label, one_hot, min(k_init, len(X) - 1), rows)
            memberships = [reached[np.searchsorted(rows, idx)] for idx, _ in table]
        entries.append((dists, ranks, memberships))
    return tuple(c for c, p in zip(data.classes, present) if p), entries


def _leave_one_out(data: Dataset, label: np.ndarray, rank: np.ndarray, k: int, keys, gathered):
    """The leave-one-out folds of one ``normalize`` setting, with no fit
    per fold or of the full data. ``label`` and ``rank`` are the full
    data's label indices and id ranks, and fold f holds out the row of id
    rank f. Each class's reused folds go to ``gathered``, keyed by (fit
    key, classes, pool widths) for every fit key in ``keys``, as (places
    among tested rows, entries) just as ``_refit``'s folds do. Returns
    which folds, in fold order, ``_refit`` builds instead: a fold that
    holds out its class's only row and so lacks that class, one whose
    tested row no distance reaches (its search then rejects that row), and
    every fold when a feature's range does not normalize on the full data
    (it may still do so on a fold).

    One self-search of the full data, normalized as a fit would, gives
    each row its k + 1 nearest per class and, for Keller, its k_init + 2
    nearest rows, its own entry first in both. A fold's n - 1 rows give
    each row n - 2 others, so a larger k_init is clamped to n - 2, as the
    fold's fit clamps it. Let held-out row i leave each feature's min and
    max unchanged. Then the fold's normalized rows are the full data's,
    bit for bit, and so is every distance between them. (The min or max
    can only stay equal in value: the sign of a zero may change, which no
    squared difference sees.) Dropping i keeps the (distance, id rank)
    order of the others, so
    * row i's per-class table is its own row of the search, with itself
      dropped from its own class;
    * a row's k_init nearest others in the fold are its k_init + 1 nearest
      others in the full data, with i replaced by the last where it is
      among the first k_init.
    Normalizing, a row alone at some feature's min or max changes its
    fold's range, read from each column sorted once. That fold's rows are
    the full raw data normalized with it: normalization works per element,
    so each equals the fold fit's row bit for bit, and the full id rank
    orders them as the fold's own rank does. Such folds are stacked on a
    leading fold axis, in chunks of one class, and each chunk takes two
    searches: of each held-out row in each class pool, which replaces its
    row of the full search, then of the rows its table reaches, own
    entries first, whose Keller memberships are computed at once. Rows
    index the full data; row i is reached by no table of its fold.
    """
    n, X, normalize = len(data), data.X, keys[0][0]
    try:
        Xn = _min_max(X, data.feature_names)[0] if normalize else X
    except ValueError:
        return np.ones(n, dtype=bool)
    k_inits = {min(k_init, n - 2) for _, init, k_init in keys if init == "keller"}
    pools = [np.flatnonzero(label == c) for c in range(len(data.classes))]
    sizes, one_hot = np.bincount(label), np.eye(len(pools))[label]
    # The pools of a fold are widths[c] wide, c the held-out row's class.
    widths = np.minimum(k, sizes - np.eye(len(pools), dtype=np.intp))
    # Own rows sort first, so each pool is searched one row deeper.
    deep = [max(k_inits) + 2] if k_inits else []
    found = _search(Xn, rank, None, pools + [np.arange(n)] * len(deep),
                    [k + 1] * len(pools) + deep)
    # Each row's nearest per class and, for Keller, its nearest others, own
    # entry dropped.
    nearest, others = found[:len(pools)], found[-1][0][:, 1:]
    renormalized = np.zeros(n, dtype=bool)
    if normalize:
        # Per column, a fold's min is the second smallest value where its
        # held-out row holds the smallest, else the smallest; its max likewise.
        S = np.sort(X, axis=0)
        first, last = X == S[0], X == S[-1]
        renormalized = ((first & (S[1] != S[0])) | (last & (S[-2] != S[-1]))).any(axis=1)

    def keller(held, reached, nbrs, k_init):
        """Keller memberships (folds, entries, classes) of the rows
        ``reached`` in the folds that hold out ``held``, from their nearest
        others ``nbrs``, the held-out row replaced by the (k_init + 1)-th
        where among the first k_init."""
        nbrs = np.where(nbrs[..., :k_init] == held[:, None, None], nbrs[..., k_init, None],
                        nbrs[..., :k_init])
        return keller_from_neighbours(nbrs.reshape(-1, k_init), label[reached.ravel()],
                                      one_hot).reshape(reached.shape + (-1,))

    order = np.argsort(rank)
    refit = sizes[label] == 1
    for c, w in enumerate(widths):
        if sizes[c] == 1:
            continue
        # The held-out rows of class c in fold order, and where each
        # renormalized fold's stands among them.
        rows = order[label[order] == c]
        moved = np.flatnonzero(renormalized[rows])
        memberships = {k_init: np.empty((len(rows), w.sum(), len(pools))) for k_init in k_inits}
        # Renormalized folds go in chunks whose rows take at most
        # _BLOCK_BYTES, stacked on a leading fold axis.
        step = max(1, _BLOCK_BYTES // (8 * X.size))
        for a in range(0, len(moved), step):
            held = rows[moved[a:a + step]]
            # A held-out row may lie far outside its fold's range, even at
            # inf; its distance to itself, inf - inf, is set to -1 all the same.
            with np.errstate(over="ignore", invalid="ignore"):
                Xf = _normalize_rows(X, np.where(first[held], S[1], S[0])[:, None],
                                     np.where(last[held], S[-2], S[-1])[:, None])
                own = _search(Xf, rank, held[:, None], pools, [k + 1] * len(pools))
            for (idx, d), (own_idx, own_d) in zip(nearest, own):
                idx[held], d[held] = own_idx[:, 0], own_d[:, 0]
            if k_inits:
                reached = np.hstack([idx for idx, _ in _cut(nearest, label, held, w)])
                nbrs = _search(Xf, rank, reached, [np.arange(n)], deep)[0][0][..., 1:]
                for k_init, m in memberships.items():
                    m[moved[a:a + step]] = keller(held, reached, nbrs, k_init)
        table = _cut(nearest, label, rows, w)
        refit[rows[_overflowed(table)]] = True
        idx = np.concatenate([i for i, _ in table], axis=1)
        kept = np.flatnonzero(~renormalized[rows])
        for k_init, m in memberships.items():
            # Other folds go in chunks whose entries' neighbours' one-hot
            # rows take at most _BLOCK_BYTES.
            step = max(1, _BLOCK_BYTES // (8 * idx.shape[1] * (k_init + 1) * len(pools)))
            for a in range(0, len(kept), step):
                at = idx[kept[a:a + step]]
                m[kept[a:a + step]] = keller(rows[kept[a:a + step]], at,
                                             others[at, :k_init + 1], k_init)
        entries, split = ([d for _, d in table], [rank[i] for i, _ in table]), np.cumsum(w)[:-1]
        for key in keys:
            if key[1] == "keller":
                entry = np.split(memberships[min(key[2], n - 2)], split, axis=1)
            else:
                entry = [one_hot[i] for i, _ in table]
            gathered.setdefault((key, data.classes, tuple(w.tolist())), []).append(
                (rank[rows], (*entries, entry)))
    return refit[order]


def _cut(nearest, label: np.ndarray, rows: np.ndarray, widths):
    """Per class pool, the (indices, distances) of the tables of the
    leave-one-out folds that hold out ``rows``, from each row's own-first
    ``nearest`` entries: its own class's from the second entry on, every
    other class's from the first, each ``widths`` wide."""
    cols = [(label[rows] == p)[:, None] + np.arange(w) for p, w in enumerate(widths)]
    return [(idx[rows[:, None], col], d[rows[:, None], col])
            for (idx, d), col in zip(nearest, cols)]


def _fit_key(cfg: ClassifierConfig):
    """What a fold's entries depend on besides its table: (normalize,
    init, k_init), k_init None when crisp."""
    k_init = cfg.k if cfg.k_init is None else cfg.k_init
    return cfg.normalize, cfg.init, k_init if cfg.init == "keller" else None


def _cross_validate(data: Dataset, configs, protocol, positive_class: str | None):
    """Run every config under the same splits; yield one report per
    config, in order.

    A fold is its test rows and trains on every other row. A refitted fold
    (``_refit``) is built from arrays sliced from the already checked
    dataset, with no ``Dataset``, model or ``fit`` of its own: once per
    ``normalize`` setting, not once per config, it normalizes its training
    rows and searches its test rows' neighbours, at the largest k among
    the configs sharing that setting. Per fit key, (normalize, init,
    k_init), it then gathers what the rules read of each neighbour entry:
    distance, id rank and membership row. Keller memberships are computed
    for only the training rows the table reaches. Only the entries outlive
    the fold.

    Leave-one-out fits nothing: ``_leave_one_out`` gathers the entries of
    every fold that keeps both classes from one search of the full data,
    per class and fit key in one set of array operations (for Keller, over
    chunks of held-out rows of bounded memory). Only a fold it cannot
    reuse is refitted. Every fold's entries go to one dict, keyed by fit
    key, classes and pool widths, with the places of its tested rows among
    all tested rows. Each key's folds are then stacked into one table:
    ordinarily one per fit key, and a fold that lacks a class or has a
    pool narrower than its k forms its own. Each config scores each table
    in one ``predict_table`` call, and one ``bincount`` gives every fold's
    confusion.
    """
    if len(data.classes) != 2:
        raise ValueError(
            f"evaluation requires a binary task, got classes {data.classes}"
        )
    positive = positive_class
    if positive is None:
        positive = "malignant" if "malignant" in data.classes else data.classes[-1]
    if positive not in data.classes:
        raise ValueError(f"positive class {positive!r} not in {data.classes}")
    if not isinstance(protocol, (KFold, Holdout, Loocv)):
        raise ValueError(f"unknown protocol {protocol!r}")

    k_max: dict[bool, int] = {}
    for cfg in configs:
        k_max[cfg.normalize] = max(k_max.get(cfg.normalize, 0), cfg.k)
    splits = protocol.splits(data)
    label = np.array([data.classes.index(c) for c in data.labels], dtype=np.intp)
    rank = np.argsort(_id_order(data.ids))
    # Per fit key, its stacked groups; per normalize setting, its fit keys
    # and which folds are refitted.
    groups = {key: [] for key in map(_fit_key, configs)}
    keys = {normalize: [key for key in groups if key[0] == normalize] for normalize in k_max}
    # Per fit key, classes and pool widths, each fold's (places, entries).
    gathered, refit = {}, {}
    for normalize, k in k_max.items():
        refit[normalize] = (_leave_one_out(data, label, rank, k, keys[normalize], gathered)
                            if isinstance(protocol, Loocv) else np.ones(len(splits), dtype=bool))
    start = np.cumsum([0] + [len(t) for t in splits])
    for f in np.flatnonzero(np.any(list(refit.values()), axis=0)):
        for normalize, k in k_max.items():
            if refit[normalize][f]:
                classes, entries = _refit(data, label, rank, splits[f], k, keys[normalize])
                for key, e in zip(keys[normalize], entries):
                    widths = tuple(d.shape[1] for d in e[0])
                    gathered.setdefault((key, classes, widths), []).append(
                        (np.arange(start[f], start[f + 1]), e))
    rows = np.concatenate(splits)
    fold_of = np.repeat(np.arange(len(splits)), [len(t) for t in splits])
    # Reports are yielded one at a time: each group is popped as it is
    # stacked, so only the stacked entries are held meanwhile.
    for key, classes, widths in list(gathered):
        places, entries = zip(*gathered.pop((key, classes, widths)))
        # Per field and class pool, the member folds' arrays concatenated query by query.
        entries = tuple([np.concatenate(pool) for pool in zip(*field)] for field in zip(*entries))
        groups[key].append((classes, entries, np.concatenate(places)))
    negative = data.classes[1 - data.classes.index(positive)]
    ids = [data.ids[i] for i in rows]
    truth = [data.labels[i] for i in rows]
    y = label[rows] == data.classes.index(positive)
    for cfg in configs:
        hit, s = np.empty(len(rows), dtype=bool), np.zeros(len(rows))
        for classes, entries, at in groups[_fit_key(cfg)]:
            winners, scores = predict_table(entries, cfg)
            # Folds that never saw the positive class predict it nowhere, scoring 0.
            p = classes.index(positive) if positive in classes else -1
            hit[at] = winners == p
            if p >= 0:
                s[at] = scores[:, p]
        per_fold = np.bincount(4 * fold_of + 2 * y + hit, minlength=4 * len(splits))
        folds = tuple(_fold_result(ConfusionCounts(tp, fp, tn, fn))
                      for tn, fp, fn, tp in per_fold.reshape(-1, 4).tolist())
        pooled = _counts(y, hit)
        sens, spec, acc = rates(pooled)
        roc = _roc(s, y)
        averaged = {}
        for key in ("sensitivity", "specificity", "accuracy"):
            defined = [getattr(f, key) for f in folds if getattr(f, key) is not None]
            averaged[key] = sum(defined) / len(defined) if defined else None
        predicted = np.where(hit, positive, negative).tolist()
        yield EvaluationReport(
            config=cfg,
            protocol=protocol,
            positive_class=positive,
            pooled=pooled,
            sensitivity=sens,
            specificity=spec,
            accuracy=acc,
            roc=roc,
            auc=roc.auc,
            averaged=averaged,
            folds=folds,
            predictions=tuple(zip(ids, truth, predicted, s.tolist())),
        )


def evaluate(data: Dataset, cfg: ClassifierConfig, protocol,
             positive_class: str | None = None) -> EvaluationReport:
    """Run one classifier config under a protocol and assemble the report.

    Deterministic given the protocol seed. Every fold scores as a model
    fitted on its training rows alone would; a fold model that never saw
    the positive class scores it at zero.
    """
    return next(_cross_validate(data, [cfg], protocol, positive_class))


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    k: int
    sensitivity: float
    specificity: float
    accuracy: float
    auc: float

    @classmethod
    def from_report(cls, report: EvaluationReport, method: str) -> "ComparisonRow":
        """The pooled rates and AUC of one report, labelled ``method``."""
        return cls(method, report.config.k, report.sensitivity, report.specificity,
                   report.accuracy, report.auc)


@dataclass(frozen=True)
class ComparisonTable:
    """One row per classifier config, in input order: the combined
    sensitivity/specificity/accuracy and area-under-curve layout."""

    rows: tuple[ComparisonRow, ...]

    def to_json_obj(self) -> list[dict]:
        return [asdict(r) for r in self.rows]

    def render_text(self) -> str:
        cells = [("method", "sensitivity", "specificity", "accuracy", "auc")]
        for r in self.rows:
            cells.append((r.method, f"{r.sensitivity:.4f}", f"{r.specificity:.4f}",
                          f"{r.accuracy:.4f}", f"{r.auc:.4f}"))
        widths = [max(len(cell) for cell in column) for column in zip(*cells)]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                         for row in cells)


def compare_classifiers(data: Dataset, configs, protocol,
                        positive_class: str | None = None) -> ComparisonTable:
    """Evaluate each config under the same protocol; rows keep input order.

    Each row equals what ``evaluate`` reports for its config alone. Method
    labels are the config kinds; when one kind appears with several k
    values the label carries the k to stay unambiguous.
    """
    if not configs:
        raise ValueError("at least one classifier config is required")
    kinds = [c.kind for c in configs]
    dup = {k for k in kinds if kinds.count(k) > 1}
    return ComparisonTable(rows=tuple(
        ComparisonRow.from_report(rep, f"{cfg.kind}[k={cfg.k}]" if cfg.kind in dup else cfg.kind)
        for cfg, rep in zip(configs, _cross_validate(data, configs, protocol, positive_class))
    ))
