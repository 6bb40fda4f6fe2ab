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


def read_utf8(path):
    """(text, None): the file's text, decoded as UTF-8, from one read. When a
    byte does not decode, (the whole lines before it, a ValueError naming the
    path, the line and the byte), so a caller can parse those lines first and
    report a fault in them before the bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        return data[:cut].decode("utf-8"), ValueError(
            f"{path}:{line}: not UTF-8 text (byte 0x{data[exc.start]:02x})")


def _then_raise(lines, error):
    """The items of ``lines``, then a raise of ``error``."""
    yield from lines
    raise error


def _feature_names(path, header) -> tuple:
    if header[:2] != ["id", "label"] or len(header) < 3:
        raise ValueError(f"{path}: feature CSV must start with id,label,<features>")
    names = tuple(header[2:])
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        raise ValueError(f"{path}: duplicate feature names: {', '.join(dup)}")
    return names


def _records(path, lines):
    """csv.reader's records of ``lines``. A record it cannot read (a field
    over csv.field_size_limit(), or a NUL byte before Python 3.11) raises
    ValueError naming the path and its line, counted as records are."""
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(lines), start=1):
            yield row
    except csv.Error as exc:
        raise ValueError(f"{path}:{lineno + 1}: {exc}") from None


def _csv_rows(path, lines):
    """(names, ids, labels, X, line of each row) of a feature CSV's lines,
    read by csv.reader: any RFC-4180 file, blank lines skipped."""
    reader = _records(path, lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty feature CSV") from None
    names = _feature_names(path, header)
    ids, labels, rows = [], [], []
    line_of = {}  # id -> its line
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        if row[0] in line_of:
            raise ValueError(f"{path}:{lineno}: duplicate id {row[0]!r} "
                             f"(first on line {line_of[row[0]]})")
        line_of[row[0]] = lineno
        ids.append(row[0])
        labels.append(row[1])
        try:
            rows.append([float(v) for v in row[2:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric feature value") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, ids, labels, np.array(rows), list(line_of.values())


def _loadtxt_rows(path, text):
    """_csv_rows's result when every line is one numpy's C reader reads as
    csv.reader and float() do, else None. Text holding quotes, CR or NUL,
    which csv.reader parses otherwise, or bytes 0x1c-0x1f, which the C reader
    strips around a value and float() does not, is None at once."""
    if any(c in text for c in '"\r\x00\x1c\x1d\x1e\x1f'):
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    names = _feature_names(path, lines[0].split(","))
    try:
        ids, labels, values = zip(*[line.split(",", 2) for line in lines[1:]])
        if "" in values:  # loadtxt skips an empty line, warning when all are
            return None
        X = np.loadtxt(values, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:  # a line of fewer than three fields, or a value loadtxt rejects
        return None
    if X.shape != (len(values), len(names)) or len(set(ids)) < len(ids):
        return None
    return names, ids, labels, X, range(2, len(ids) + 2)


def read_feature_csv(path) -> Dataset:
    """Load a feature CSV back into a Dataset.

    An unquoted, LF-only file has its values parsed by one np.loadtxt; a
    file that reader does not take goes through csv.reader, with the same
    Dataset or the same ValueError. Of a file that is not UTF-8, csv.reader
    reads the lines before the first bad byte, so a fault in them is the one
    reported, and then read_utf8's error is raised."""
    text, error = read_utf8(path)
    rows = None if error else _loadtxt_rows(path, text)
    if rows is None:
        lines = io.StringIO(text, newline="")
        rows = _csv_rows(path, _then_raise(lines, error) if error else lines)
    names, ids, labels, X, line_of = rows
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}:{line_of[row]}: non-finite value in column {names[col]!r}")
    return Dataset(ids, X, labels, feature_names=names)


def roc_csv_text(roc: RocCurve) -> str:
    # A float's repr holds no character CSV would quote.
    return "threshold,fpr,tpr\n" + "".join(
        f"{_fmt(threshold)},{_fmt(fpr)},{_fmt(tpr)}\n" for fpr, tpr, threshold in roc.points)


def write_roc_csv(path, roc: RocCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(roc_csv_text(roc))


def report_json_text(report: EvaluationReport, features=None) -> str:
    """Stable-keyed JSON for one evaluation report.

    ``features`` optionally echoes the feature names the run used. Each
    distinct fold is rendered once: a LOOCV report has n folds and at most
    four distinct ones.
    """
    obj = report.to_dict()
    if features is not None:
        obj["features"] = list(features)
    folds, obj["folds"] = obj["folds"], []
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if not folds:
        return text
    rendered = {}  # a fold's repr -> its text; equal reprs render as equal JSON
    texts = []
    for fold in folds:
        key = repr(tuple(fold.values()))  # to_dict gives every fold the same keys
        if key not in rendered:
            rendered[key] = "    " + json.dumps(fold, indent=2, sort_keys=True).replace(
                "\n", "\n    ")
        texts.append(rendered[key])
    # JSON strings escape every newline, so the key at the start of a line
    # can only be the report's own.
    return text.replace('\n  "folds": []',
                        '\n  "folds": [\n' + ",\n".join(texts) + "\n  ]", 1)


def comparison_json_text(table: ComparisonTable) -> str:
    return json.dumps(table.to_json_obj(), indent=2, sort_keys=True) + "\n"
