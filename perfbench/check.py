"""Output checks for the benchmark's CLI runs.

For any seed a command must exit 0 and its outputs must hold together:

* extract: one row per annotated ROI, sorted by id, with the index's label
  and 25 finite feature values;
* compare: one row per (rule, k) in order, whose rates are exact ratios of
  whole confusion counts over the known class sizes;
* eval: one fold per held-out sample whose single confusion count matches
  the sample's true class, pooled counts equal to the fold sums, and a ROC
  curve from (0,0) to (1,1) whose trapezoid area is the reported AUC.

For the reference seed the outputs must also agree with the ones recorded
in ``reference/``: ids, labels and confusion counts exactly, floats within
``|a - b| <= REL_TOL * |b| + ABS_TOL``. Output files byte-identical to the
reference are counted, not required.

A failed operation is an ROI or a prediction whose row or label is
missing or wrong; a nonzero exit fails every operation of the command.

Record the reference again only when an output change is intended:

    python3 perfbench/check.py --record
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import corpus as corpora

REL_TOL = 1e-9
ABS_TOL = 1e-12
# Prediction scores are checked in the worker: each in [0, 1] and their sum
# 1, both within this many units. The fuzzy rules normalise a sum by a sum
# taken in another order, which can land one ulp above 1.
SCORE_TOL = 1e-9
REFERENCE_SEED = 0
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"


@dataclass
class Outcome:
    failed: int
    problems: list[str] = field(default_factory=list)
    identical: int | None = None  # outputs byte-identical to the reference


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * abs(b) + ABS_TOL


def _rate(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def _features(path: Path):
    rows = _read_csv(path)
    return rows[0], [r[0] for r in rows[1:]], {r[0]: (r[1], [float(v) for v in r[2:]])
                                               for r in rows[1:]}


def _check_extract(c: corpora.Corpus, out: Path, ref: Path | None) -> Outcome:
    header, order, rows = _features(out / "features.csv")
    if header != ["id", "label", *corpora.FEATURE_NAMES]:
        return Outcome(c.ops, [f"feature CSV header {header[:3]}..."])
    want = _features(ref / "features.csv")[2] if ref else None
    bad = []
    for sid, label in c.expect["rows"]:
        got = rows.get(sid)
        ok = (got is not None and got[0] == label
              and len(got[1]) == len(corpora.FEATURE_NAMES)
              and all(math.isfinite(v) for v in got[1]))
        if ok and want is not None:
            w = want.get(sid)
            ok = w is not None and w[0] == got[0] and all(map(_close, got[1], w[1]))
        if not ok:
            bad.append(sid)
    expected_order = [sid for sid, _ in c.expect["rows"]]
    extra = len(order) - len(set(order) & set(expected_order))
    problems = [f"ROI {sid}: row missing or wrong" for sid in bad[:5]]
    if order != expected_order:
        problems.append("feature rows are not exactly the index ROIs sorted by id")
    return Outcome(len(bad) + extra, problems)


def _confusion(row: dict, n_pos: int, n_neg: int):
    """(tp, tn) behind a comparison row's rates, or None if its rates are
    not ratios of whole counts."""
    if not all(_rate(row.get(key)) for key in ("sensitivity", "specificity", "accuracy", "auc")):
        return None
    tp, tn = row["sensitivity"] * n_pos, row["specificity"] * n_neg
    if abs(tp - round(tp)) > 1e-6 or abs(tn - round(tn)) > 1e-6:
        return None
    if abs(row["accuracy"] * (n_pos + n_neg) - (tp + tn)) > 1e-6:
        return None
    return round(tp), round(tn)


def _check_compare(c: corpora.Corpus, out: Path, ref: Path | None) -> Outcome:
    rows = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    want = json.loads((ref / "compare.json").read_text(encoding="utf-8")) if ref else None
    labels = list(c.expect["labels"].values())
    n_pos = labels.count("malignant")
    n_neg = len(labels) - n_pos
    failed, problems = 0, []
    for i, method in enumerate(c.expect["methods"]):
        row = rows[i] if i < len(rows) else {}
        counts = _confusion(row, n_pos, n_neg)
        ok = row.get("method") == method and counts is not None
        if ok and want is not None:
            ok = (want[i]["method"] == method and counts == _confusion(want[i], n_pos, n_neg)
                  and _close(row["auc"], want[i]["auc"]))
        if not ok:
            failed += len(labels)
            problems.append(f"comparison row {method}: missing or wrong")
    if len(rows) != len(c.expect["methods"]):
        failed += len(labels) * max(0, len(rows) - len(c.expect["methods"]))
        problems.append(f"{len(rows)} comparison rows, expected {len(c.expect['methods'])}")
    return Outcome(failed, problems)


_COUNT_KEYS = ("tp", "fp", "tn", "fn")


def _roc(path: Path) -> list[tuple[float, float, float]]:
    rows = _read_csv(path)
    if rows[0] != ["threshold", "fpr", "tpr"]:
        raise ValueError("ROC CSV header")
    return [tuple(float(v) for v in r) for r in rows[1:]]


def _roc_problem(points, auc) -> str | None:
    if points[0] != (math.inf, 0.0, 0.0) or points[-1][1:] != (1.0, 1.0):
        return "ROC curve does not run from (0,0) to (1,1)"
    if not all(_rate(th) for th, _, _ in points[1:]):
        return "ROC threshold is not a finite score in [0, 1]"
    area = 0.0
    for (t0, f0, r0), (t1, f1, r1) in zip(points, points[1:]):
        if not (t1 < t0 and f1 >= f0 and r1 >= r0):
            return "ROC points are not monotone"
        area += (f1 - f0) * (r0 + r1) / 2.0
    return None if _close(area, auc) else f"AUC {auc} is not the ROC area {area}"


def _check_eval(c: corpora.Corpus, out: Path, ref: Path | None) -> Outcome:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    points = _roc(out / "roc.csv")
    ids = sorted(c.expect["labels"])
    n = len(ids)
    folds = report["folds"]
    problems = []
    if len(folds) != n:
        return Outcome(n, [f"{len(folds)} folds, expected {n}"])
    if any(report[key] != value for key, value in c.expect["config"].items()):
        problems.append("report does not echo the requested configuration")
    want = json.loads((ref / "report.json").read_text(encoding="utf-8")) if ref else None
    bad = 0
    for i, sid in enumerate(ids):
        counts = [folds[i].get(key) for key in _COUNT_KEYS]
        tp, fp, tn, fn = counts
        ok = all(isinstance(v, int) and v >= 0 for v in counts) and sum(counts) == 1
        ok = ok and (tp + fn == 1) == (c.expect["labels"][sid] == "malignant")
        if ok and want is not None:
            ok = counts == [want["folds"][i][key] for key in _COUNT_KEYS]
        bad += not ok
    pooled = [report["pooled"][key] for key in _COUNT_KEYS]
    if pooled != [sum(f[key] for f in folds) for key in _COUNT_KEYS]:
        problems.append("pooled counts are not the fold sums")
    if not all(_rate(report[key]) for key in ("sensitivity", "specificity", "accuracy", "auc")):
        problems.append("pooled rates are not finite rates")
    roc_problem = _roc_problem(points, report["auc"])
    if roc_problem:
        problems.append(roc_problem)
    if want is not None:
        if pooled != [want["pooled"][key] for key in _COUNT_KEYS]:
            problems.append("pooled counts differ from the reference")
        floats = [report[key] for key in ("sensitivity", "specificity", "accuracy", "auc")]
        ref_floats = [want[key] for key in ("sensitivity", "specificity", "accuracy", "auc")]
        ref_points = _roc(ref / "roc.csv")
        if (not all(map(_close, floats, ref_floats)) or len(points) != len(ref_points)
                or not all(map(_close, sum(points, ()), sum(ref_points, ())))):
            problems.append("report or ROC values differ from the reference")
    return Outcome(n if len(problems) else bad, problems)


CHECKS = {
    "extract-mias": _check_extract,
    "extract-p2": _check_extract,
    "compare-kfold": _check_compare,
    "loocv-keller": _check_eval,
}


def check(c: corpora.Corpus, out: Path, exit_code, seed: int) -> Outcome:
    """Check one command's outputs in ``out``; see the module docstring."""
    if exit_code != 0:
        return Outcome(c.ops, [f"exit code {exit_code}"])
    ref = REFERENCE / c.workload if seed == REFERENCE_SEED else None
    try:
        outcome = CHECKS[c.workload](c, out, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(c.ops, [f"unreadable output: {exc!r}"])
    outcome.failed = min(outcome.failed, c.ops)
    if ref is not None:
        outcome.identical = sum(filecmp.cmp(out / name, ref / name, shallow=False)
                                for name in c.outputs)
    return outcome


def record(root: Path) -> None:
    """Run each workload once at the reference seed and store its outputs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for workload in corpora.WORKLOADS:
        tmp = root / ".perfbench_work" / "record" / workload
        shutil.rmtree(tmp, ignore_errors=True)
        c = corpora.build(workload, tmp / "inputs", REFERENCE_SEED)
        out = tmp / "out"
        out.mkdir(parents=True)
        argv = [a.replace("{out}", str(out)) for a in c.argv]
        subprocess.run([sys.executable, "-m", "fknne.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        dest = REFERENCE / workload
        dest.mkdir(parents=True, exist_ok=True)
        for name in c.outputs:
            shutil.copyfile(out / name, dest / name)
        shutil.rmtree(tmp)
        print(f"recorded {workload}: {', '.join(c.outputs)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    record(HERE.parent)
