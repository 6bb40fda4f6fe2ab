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
    ClassifierConfig,
    Dataset,
    fit,
    neighbour_table,
    predict,  # noqa: F401 -- re-exported; perfbench/worker.py wraps fknne.evaluation.predict
    predict_table,
)


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
        pts = tuple((float(f), float(t), float(th)) for f, t, th in self.points)
        if pts[0][:2] != (0.0, 0.0) or pts[-1][:2] != (1.0, 1.0):
            raise ValueError("ROC points must run from (0,0) to (1,1)")
        for (f0, t0, _), (f1, t1, _) in zip(pts, pts[1:]):
            if f1 < f0 or t1 < t0:
                raise ValueError("ROC points must be monotone non-decreasing")
        object.__setattr__(self, "points", pts)


def confusion(predictions, truth, positive: str = "malignant", classes=None) -> ConfusionCounts:
    """Tally predictions (labels or Prediction objects) against the truth.

    ``classes`` widens the known class set; without it the set is inferred
    from the inputs, and a positive class outside it is an error.
    """
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth must have equal length")
    predicted = [p if isinstance(p, str) else p.label for p in predictions]
    known = set(truth) | set(predicted) | set(classes or ())
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


def roc_curve(scores, truth, positive: str = "malignant") -> RocCurve:
    """Sweep thresholds over the distinct scores, descending.

    A sample counts as predicted-positive when its score is >= the
    threshold; samples with equal scores move together in one step. The
    curve starts at (0,0) (threshold +inf) and ends at (1,1).
    """
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
    return RocCurve(points=tuple(points), auc=float(area))


def auc(scores, truth, positive: str = "malignant") -> float:
    """Trapezoidal area under the ROC curve; equals the probability that a
    random positive outscores a random negative, ties counting half."""
    return roc_curve(scores, truth, positive).auc


def _shuffled_by_class(data: Dataset, seed: int):
    """Yield (class, ids) in class order: each class's ids sorted, then
    permuted by one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    for c in data.classes:
        ids_c = sorted(i for i, lab in zip(data.ids, data.labels) if lab == c)
        yield c, [ids_c[t] for t in rng.permutation(len(ids_c))]


def stratified_kfold(data: Dataset, k: int, seed: int):
    """Deterministic stratified folds: per class, ids are sorted, shuffled
    with the seed and dealt round-robin, so fold class proportions stay
    within one sample of the global split.

    Returns k (train_ids, test_ids) pairs; the test sets partition the
    dataset. The assignment depends only on (seed, ids), not input order.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    folds: list[list[str]] = [[] for _ in range(k)]
    for c, ids_c in _shuffled_by_class(data, seed):
        if len(ids_c) < k:
            raise ValueError(f"class {c!r} has fewer than {k} samples")
        for pos, sid in enumerate(ids_c):
            folds[pos % k].append(sid)
    out = []
    for i in range(k):
        test = sorted(folds[i])
        test_set = set(test)
        train = sorted(s for s in data.ids if s not in test_set)
        out.append((train, test))
    return out


# Protocols. Each names itself in reports, carries its shuffling seed (None
# when it has none) and splits a dataset into (train_ids, test_ids) pairs.

@dataclass(frozen=True)
class KFold:
    k: int = 10
    seed: int = 0

    @property
    def name(self) -> str:
        return f"kfold({self.k})"

    def splits(self, data: Dataset):
        return stratified_kfold(data, self.k, self.seed)


@dataclass(frozen=True)
class Holdout:
    fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("holdout fraction must be in (0, 1)")

    @property
    def name(self) -> str:
        return f"holdout({self.fraction})"

    def splits(self, data: Dataset):
        train: list[str] = []
        test: list[str] = []
        for c, ids_c in _shuffled_by_class(data, self.seed):
            if len(ids_c) < 2:
                raise ValueError(f"class {c!r} needs >= 2 samples for a holdout split")
            n_test = int(round(self.fraction * len(ids_c)))
            n_test = min(max(n_test, 1), len(ids_c) - 1)
            test.extend(ids_c[:n_test])
            train.extend(ids_c[n_test:])
        return [(sorted(train), sorted(test))]


@dataclass(frozen=True)
class Loocv:
    name = "loocv"
    seed = None

    def splits(self, data: Dataset):
        ordered = sorted(data.ids)
        return [([s for s in ordered if s != sid], [sid]) for sid in ordered]


@dataclass(frozen=True)
class FoldResult:
    """One fold's confusion plus whichever rates are defined for it."""

    counts: ConfusionCounts
    sensitivity: float | None
    specificity: float | None
    accuracy: float


def _safe_rate(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


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
            "pooled": asdict(self.pooled),
            "averaged": dict(self.averaged),
            "folds": [
                dict(asdict(f.counts), sensitivity=f.sensitivity,
                     specificity=f.specificity, accuracy=f.accuracy)
                for f in self.folds
            ],
        }


def _default_positive(classes) -> str:
    return "malignant" if "malignant" in classes else classes[-1]


def _report(cfg, protocol, positive, ids, truth, predicted, scores,
            fold_results) -> EvaluationReport:
    pooled = confusion(predicted, truth, positive)
    sens, spec, acc = rates(pooled)
    roc = roc_curve(scores, truth, positive)

    def _mean_defined(vals):
        defined = [v for v in vals if v is not None]
        return sum(defined) / len(defined) if defined else None

    averaged = {
        "sensitivity": _mean_defined([f.sensitivity for f in fold_results]),
        "specificity": _mean_defined([f.specificity for f in fold_results]),
        "accuracy": _mean_defined([f.accuracy for f in fold_results]),
    }
    return EvaluationReport(
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
        folds=tuple(fold_results),
        predictions=tuple(zip(ids, truth, predicted, scores)),
    )


def _cross_validate(data: Dataset, configs, protocol, positive_class: str | None):
    """Run every config under the same splits; yield one report per
    config, in order.

    Each fold subsets the data once and searches its test set's
    neighbours once per ``normalize`` setting, at the largest k among the
    configs sharing it; every config then scores from that table.
    """
    if len(data.classes) != 2:
        raise ValueError(
            f"evaluation requires a binary task, got classes {data.classes}"
        )
    positive = positive_class if positive_class is not None else _default_positive(data.classes)
    if positive not in data.classes:
        raise ValueError(f"positive class {positive!r} not in {data.classes}")
    if not isinstance(protocol, (KFold, Holdout, Loocv)):
        raise ValueError(f"unknown protocol {protocol!r}")

    index_of = {sid: i for i, sid in enumerate(data.ids)}
    k_max: dict[bool, int] = {}
    for cfg in configs:
        k_max[cfg.normalize] = max(k_max.get(cfg.normalize, 0), cfg.k)
    # Test ids and their labels in fold order, the same for every config.
    tested: list[str] = []
    tested_truth: list[str] = []
    predicted: list[list[str]] = [[] for _ in configs]
    scores: list[list[float]] = [[] for _ in configs]
    fold_results: list[list[FoldResult]] = [[] for _ in configs]
    for train_ids, test_ids in protocol.splits(data):
        train = data.subset(train_ids)
        test = [index_of[sid] for sid in test_ids]
        truth = [data.labels[i] for i in test]
        tested.extend(test_ids)
        tested_truth.extend(truth)
        tables = {}
        for cfg, labels, cfg_scores, folds in zip(configs, predicted, scores, fold_results):
            model = fit(train, cfg)
            if cfg.normalize not in tables:
                tables[cfg.normalize] = neighbour_table(model, data.X[test], k_max[cfg.normalize])
            preds = predict_table(model, tables[cfg.normalize])
            fold_labels = [p.label for p in preds]
            labels.extend(fold_labels)
            cfg_scores.extend(p.score(positive) if positive in p.classes else 0.0 for p in preds)
            counts = confusion(fold_labels, truth, positive, classes=data.classes)
            folds.append(
                FoldResult(
                    counts=counts,
                    sensitivity=_safe_rate(counts.tp, counts.tp + counts.fn),
                    specificity=_safe_rate(counts.tn, counts.tn + counts.fp),
                    accuracy=(counts.tp + counts.tn) / counts.total,
                )
            )
    for cfg, labels, cfg_scores, folds in zip(configs, predicted, scores, fold_results):
        yield _report(cfg, protocol, positive, tested, tested_truth, labels, cfg_scores, folds)


def evaluate(data: Dataset, cfg: ClassifierConfig, protocol,
             positive_class: str | None = None) -> EvaluationReport:
    """Run one classifier config under a protocol and assemble the report.

    Deterministic given the protocol seed. Fold models see only the fold's
    training ids; a fold model that never saw the positive class scores it
    at zero.
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

    @classmethod
    def from_json_obj(cls, obj) -> "ComparisonTable":
        return cls(
            rows=tuple(
                ComparisonRow(
                    method=r["method"],
                    k=int(r["k"]),
                    sensitivity=float(r["sensitivity"]),
                    specificity=float(r["specificity"]),
                    accuracy=float(r["accuracy"]),
                    auc=float(r["auc"]),
                )
                for r in obj
            )
        )

    def render_text(self) -> str:
        header = ("method", "sensitivity", "specificity", "accuracy", "auc")
        body = [
            (r.method, f"{r.sensitivity:.4f}", f"{r.specificity:.4f}",
             f"{r.accuracy:.4f}", f"{r.auc:.4f}")
            for r in self.rows
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)


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
