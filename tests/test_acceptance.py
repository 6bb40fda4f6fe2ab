"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The last criterion needs real mammogram files and skips when
none are available (point MIAS_DIR at a directory of <ref>.pgm files plus
the annotation index).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fknne import (
    ClassifierConfig,
    ComparisonRow,
    ComparisonTable,
    Dataset,
    KFold,
    Loocv,
    auc,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    evaluate,
    fit,
    haralick_features,
    kneighbors,
    parse_mias_index,
    predict,
    read_feature_csv,
    runlength_features,
    two_cluster_dataset,
    write_feature_csv,
)
from fknne.cli import main
from fknne.ingestion import GrayImage
from fknne.texture import DIRECTIONS


def _report(num, name):
    print(f"\nacceptance {num:02d} ({name}): PASS")


def _mann_whitney(scores, truth, positive):
    pos = [s for s, t in zip(scores, truth) if t == positive]
    neg = [s for s, t in zip(scores, truth) if t != positive]
    wins = sum(1.0 if sp > sn else 0.5 if sp == sn else 0.0
               for sp in pos for sn in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_01_neighbour_search_matches_exhaustive_oracle():
    rng = np.random.default_rng(101)
    n = 200
    X = rng.normal(size=(n, 5))
    ids = [f"s{i:03d}" for i in range(n)]
    labels = ["benign" if i % 2 else "malignant" for i in range(n)]
    model = fit(Dataset(ids, X, labels), ClassifierConfig(normalize=False))
    start = time.perf_counter()
    for q in rng.normal(size=(200, 5)):
        d = np.sqrt(((X - q) ** 2).sum(axis=1))
        oracle = sorted(zip(d, ids))
        for k in (1, 3, 5):
            expected = [(sid, dist) for dist, sid in oracle[:k]]
            assert kneighbors(model, q, k) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"neighbour search took {elapsed:.2f}s"
    _report(1, "neighbour oracle")


def test_criterion_02_fuzzy_scores_are_normalized_distributions():
    rng = np.random.default_rng(102)
    X = rng.normal(size=(100, 4))
    labels = ["benign" if i % 2 else "malignant" for i in range(100)]
    data = Dataset([f"s{i:03d}" for i in range(100)], X, labels)
    model = fit(data, ClassifierConfig(k=5, init="keller"))
    for q in rng.normal(size=(1000, 4)):
        for kind in ("fknn", "fknne"):
            s = predict(model, q, kind).scores
            assert abs(s.sum() - 1.0) <= 1e-9
            assert (s >= 0.0).all() and (s <= 1.0).all()
    _report(2, "membership normalization")


def test_criterion_03_uniform_scaling_invariance():
    rng = np.random.default_rng(103)
    X = rng.normal(size=(80, 4))
    ids = [f"s{i:03d}" for i in range(80)]
    labels = ["benign" if i % 2 else "malignant" for i in range(80)]
    for normalize in (False, True):
        cfg = ClassifierConfig(k=5, init="keller", normalize=normalize)
        base = fit(Dataset(ids, X, labels), cfg)
        scaled = fit(Dataset(ids, X * 7.3, labels), cfg)
        for q in rng.normal(size=(200, 4)):
            assert predict(base, q, "knn").label == predict(scaled, q * 7.3, "knn").label
            assert predict(base, q, "knne").label == predict(scaled, q * 7.3, "knne").label
            for kind in ("fknn", "fknne"):
                delta = predict(base, q, kind).scores - predict(scaled, q * 7.3, kind).scores
                assert np.abs(delta).max() <= 1e-9
    _report(3, "scaling invariance")


def test_criterion_04_trapezoidal_auc_equals_pair_count_oracle():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(4, 40))
        if rng.random() < 0.5:
            scores = rng.integers(0, 5, n) / 4.0  # deliberate ties
        else:
            scores = rng.random(n)
        truth = [["benign", "malignant"][v] for v in rng.integers(0, 2, n)]
        if len(set(truth)) < 2:
            continue
        got = auc(scores, truth, positive="malignant")
        want = _mann_whitney(scores, truth, "malignant")
        assert abs(got - want) <= 1e-9
        checked += 1
    _report(4, "auc equivalence")


def test_criterion_05_texture_identities_on_random_and_constant_images():
    rng = np.random.default_rng(105)
    for _ in range(100):
        img = GrayImage(rng.integers(0, 8, size=(8, 8)), 7)
        for dx, dy in DIRECTIONS:
            p = compute_glcm(img, dx, dy).p
            assert (p >= 0).all() and abs(p.sum() - 1.0) <= 1e-9
            d = compute_gldm(img, dx, dy).d
            assert (d >= 0).all() and abs(d.sum() - 1.0) <= 1e-9
            rl = compute_glrlm(img, dx, dy)
            assert int((rl.r * np.arange(1, rl.max_run + 1)).sum()) == rl.n_pixels

    const = GrayImage(np.full((8, 8), 3), 7)
    runs_by_direction = {(1, 0): 8, (0, 1): 8, (1, 1): 15, (1, -1): 15}
    for dx, dy in DIRECTIONS:
        hf = haralick_features(compute_glcm(const, dx, dy))
        assert hf["asm"] == 1.0 and hf["contrast"] == 0.0 and hf["entropy"] == 0.0
        rp = runlength_features(compute_glrlm(const, dx, dy))["rp"]
        assert rp == runs_by_direction[(dx, dy)] / 64
    _report(5, "texture identities")


def test_criterion_06_hand_fixtures_reproduce_exactly():
    glcm = compute_glcm(GrayImage([[0, 0, 1], [0, 0, 1], [0, 2, 2]], 2), 1, 0)
    expected = np.zeros((3, 3))
    expected[0, 0], expected[0, 1], expected[0, 2], expected[2, 2] = (
        2 / 6, 2 / 6, 1 / 6, 1 / 6,
    )
    assert np.abs(glcm.p - expected).max() <= 1e-12

    rl = compute_glrlm(GrayImage([[0, 0, 1, 1, 1]], 1), 1, 0)
    assert rl.r[0, 1] == 1 and rl.r[1, 2] == 1 and rl.r.sum() == 2

    data = Dataset(["a1", "a2", "b1", "b2"],
                   np.array([[0.0], [1.0], [3.0], [5.0]]),
                   ["A", "A", "B", "B"])
    model = fit(data, ClassifierConfig(kind="knne", k=2, normalize=False))
    p = predict(model, np.array([2.0]), "knne")
    assert p.label == "A"
    assert abs(p.scores[0] - 4 / 7) <= 1e-12
    assert abs(p.scores[1] - 3 / 7) <= 1e-12
    _report(6, "hand-fixture exactness")


def test_criterion_07_separable_dataset_is_perfect_for_all_four():
    start = time.perf_counter()
    data = two_cluster_dataset()  # 60 samples, margin >> spread
    assert len(data) == 60
    for kind in ("knn", "fknn", "knne", "fknne"):
        rep = evaluate(data, ClassifierConfig(kind=kind, k=3), KFold(5, seed=0))
        assert rep.accuracy == 1.0, f"{kind} accuracy {rep.accuracy}"
        assert rep.auc == 1.0, f"{kind} auc {rep.auc}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f}s"
    _report(7, "separable end-to-end")


def test_criterion_08_two_sample_loocv_is_forced_to_zero():
    data = Dataset(["a", "b"], np.array([[0.0], [1.0]]), ["benign", "malignant"])
    rep = evaluate(data, ClassifierConfig(kind="knn", k=1), Loocv())
    assert rep.accuracy == 0.0
    _report(8, "degenerate protocol")


def test_criterion_09_compare_table_shape_and_json_round_trip(tmp_path, capsys):
    csv_path = tmp_path / "clusters.csv"
    write_feature_csv(csv_path, two_cluster_dataset())
    out_json = tmp_path / "compare.json"
    assert main(["compare", "--features", str(csv_path), "--folds", "5",
                 "--out-json", str(out_json)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    table_text = "\n".join(out_lines[:5])  # header + one row per method

    rows = json.loads(out_json.read_text())
    assert [sorted(r.keys()) for r in rows] == [
        ["accuracy", "auc", "k", "method", "sensitivity", "specificity"]
    ] * 4
    assert [r["method"] for r in rows] == ["knn", "fknn", "knne", "fknne"]
    assert out_lines[0].split() == ["method", "sensitivity", "specificity",
                                    "accuracy", "auc"]
    # lossless round trip: JSON -> table -> same rendering, JSON -> JSON stable
    table = ComparisonTable(rows=tuple(ComparisonRow(**r) for r in rows))
    assert table.render_text() == table_text
    assert json.loads(json.dumps(table.to_json_obj())) == rows
    _report(9, "report fidelity")


def _find_mias():
    candidates = []
    env = os.environ.get("MIAS_DIR")
    if env:
        candidates.append(Path(env))
    candidates += [Path("data/mias"), Path("mias")]
    for root in candidates:
        if not root.is_dir() or not list(root.glob("*.pgm")):
            continue
        for index in sorted(root.glob("*.txt")):
            try:
                rois = parse_mias_index(index.read_text(errors="replace"))
            except ValueError:
                continue
            if rois:
                return root, index, rois
    return None


def test_criterion_10_mias_smoke_when_available(tmp_path):
    found = _find_mias()
    if found is None:
        pytest.skip("MIAS files not present (set MIAS_DIR to run)")
    root, index, rois = found
    out = tmp_path / "mias_features.csv"
    code = main(["extract", "--images", str(root), "--index", str(index),
                 "--out", str(out)])
    assert code == 0
    data = read_feature_csv(out)
    assert len(data) == len(rois)
    out_json = tmp_path / "mias_compare.json"
    assert main(["compare", "--features", str(out), "--folds", "5",
                 "--out-json", str(out_json)]) == 0
    for row in json.loads(out_json.read_text()):
        for key in ("sensitivity", "specificity", "accuracy", "auc"):
            assert 0.0 <= row[key] <= 1.0
    _report(10, "mias smoke")
