"""Recorded bytes of eval and compare: exit code, stdout, stderr and every
output file, for each command in CASES over tests/data/golden/features.csv
(40 rows, 4 features, one row repeated exactly under the other class) and
its copy with quoted ids, which csv.reader parses instead of np.loadtxt.

Extract is left out: its feature bits follow the BLAS kernel. So is synth:
numpy's Generator streams carry no guarantee across versions.

Rewrite the goldens, after a change that is meant to alter them, with
    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fknne.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ("features.csv", "features_quoted.csv")
EVAL_OUT = ["--out-json", "report.json", "--out-roc", "roc.csv"]
CASES = {
    "kfold-crisp-fknne": ["eval", "--method", "fknne", "--init", "crisp", "--k", "3",
                          "--protocol", "kfold", "--folds", "5", "--seed", "3", *EVAL_OUT],
    "loocv-keller-fknn": ["eval", "--method", "fknn", "--init", "keller", "--k", "5",
                          "--protocol", "loocv", *EVAL_OUT],
    "holdout-knn": ["eval", "--method", "knn", "--k", "3", "--protocol", "holdout",
                    "--fraction", "0.3", "--seed", "1", *EVAL_OUT],
    "compare-k-sweep": ["compare", "--k-sweep", "1,3,5", "--folds", "5", "--seed", "2",
                        "--out-json", "compare.json"],
}


def outcome(case, features, workdir):
    """{file name: bytes} of one run of CASES[case] on ``features`` in the
    empty directory ``workdir``: its outputs plus exit_code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(CASES[case] + ["--features", str(features)])
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in Path(workdir).iterdir()}
    for name, text in (("exit_code", f"{code}\n"), ("stdout", out.getvalue()),
                       ("stderr", err.getvalue())):
        files[name] = text.encode("utf-8")
    return files


@pytest.mark.parametrize("features", INPUTS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_the_recorded_bytes(case, features, tmp_path):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert outcome(case, GOLDEN / features, tmp_path) == expected


if __name__ == "__main__":
    for case in CASES:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            files = outcome(case, GOLDEN / INPUTS[0], tmp)
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"wrote {len(files)} files to {GOLDEN / case}", file=sys.stderr)
