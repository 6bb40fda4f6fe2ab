"""On-disk interchange formats: feature CSV, ROC CSV and report JSON.

The feature CSV header is ``id,label,<feature names...>`` with RFC-4180
quoting, '.' decimal point and UTF-8 text. Floats are written with
``repr`` so values round-trip exactly and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .classifiers import Dataset
from .evaluation import ComparisonTable, EvaluationReport, RocCurve


def _fmt(v) -> str:
    return repr(float(v))


def feature_rows_text(feature_names, rows) -> str:
    """Serialize (id, label, feature values) rows in feature-CSV form, in
    the given order. With no rows the text is the header line alone."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("id", "label") + tuple(feature_names))
    for sid, label, values in rows:
        w.writerow([sid, label] + [_fmt(v) for v in values])
    return buf.getvalue()


def feature_csv_text(dataset: Dataset) -> str:
    """Serialize a dataset in feature-CSV form, rows in dataset order."""
    return feature_rows_text(dataset.feature_names,
                             zip(dataset.ids, dataset.labels, dataset.X))


def write_feature_csv(path, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(feature_csv_text(dataset))


def read_feature_csv(path) -> Dataset:
    """Load a feature CSV back into a Dataset."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature CSV") from None
        if header[:2] != ["id", "label"] or len(header) < 3:
            raise ValueError(f"{path}: feature CSV must start with id,label,<features>")
        names = tuple(header[2:])
        dup = sorted({n for n in names if names.count(n) > 1})
        if dup:
            raise ValueError(f"{path}: duplicate feature names: {', '.join(dup)}")
        ids, labels, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            ids.append(row[0])
            labels.append(row[1])
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(ids, np.array(rows), labels, feature_names=names)


def roc_csv_text(roc: RocCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("threshold", "fpr", "tpr"))
    for fpr, tpr, threshold in roc.points:
        w.writerow((_fmt(threshold), _fmt(fpr), _fmt(tpr)))
    return buf.getvalue()


def write_roc_csv(path, roc: RocCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(roc_csv_text(roc))


def report_json_text(report: EvaluationReport, features=None) -> str:
    """Stable-keyed JSON for one evaluation report.

    ``features`` optionally echoes the feature names the run used.
    """
    obj = report.to_dict()
    if features is not None:
        obj["features"] = list(features)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def comparison_json_text(table: ComparisonTable) -> str:
    return json.dumps(table.to_json_obj(), indent=2, sort_keys=True) + "\n"
