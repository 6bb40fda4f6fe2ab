"""End-to-end command behavior: artifacts, determinism and exit codes."""

import json

import numpy as np
import pytest

from fknne import (
    Dataset,
    feature_csv_text,
    read_feature_csv,
    two_cluster_dataset,
    write_feature_csv,
    write_pgm,
)
from fknne.cli import main
from fknne.synthetic import textured_image
from fknne.texture import FEATURE_NAMES


@pytest.fixture
def image_dir(tmp_path):
    d = tmp_path / "images"
    d.mkdir()
    for i, seed in ((1, 10), (2, 11)):
        img = textured_image(32, 32, seed=seed)
        (d / f"mdb00{i}.pgm").write_bytes(write_pgm(img))
    return d


@pytest.fixture
def index_file(tmp_path):
    p = tmp_path / "index.txt"
    p.write_text("mdb001 G CIRC B 20 15 8\nmdb002 D MISC M 12 20 6\n")
    return p


@pytest.fixture
def synthetic_csv(tmp_path):
    p = tmp_path / "clusters.csv"
    write_feature_csv(p, two_cluster_dataset())
    return p


def extract_args(image_dir, index_file, out):
    return ["extract", "--images", str(image_dir), "--index", str(index_file),
            "--out", str(out), "--image-height", "32"]


class TestExtract:
    def test_writes_one_row_per_roi(self, tmp_path, image_dir, index_file):
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 0
        data = read_feature_csv(out)
        assert data.ids == ("mdb001", "mdb002")
        assert data.labels == ("benign", "malignant")
        assert data.feature_names == FEATURE_NAMES

    def test_rerun_is_byte_identical(self, tmp_path, image_dir, index_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(extract_args(image_dir, index_file, out1)) == 0
        assert main(extract_args(image_dir, index_file, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_image_gives_partial_and_exit_2(self, tmp_path, image_dir,
                                                    index_file, capsys):
        index_file.write_text(index_file.read_text() +
                              "mdb999 G CIRC B 16 16 5\n")
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 2
        err = capsys.readouterr().err
        assert "mdb999" in err
        assert not out.exists()
        partial = tmp_path / "features.csv.partial"
        assert partial.exists()
        assert len(read_feature_csv(partial)) == 2

    def test_csv_is_the_formats_serialization(self, tmp_path, image_dir, index_file):
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 0
        assert out.read_text(encoding="utf-8") == feature_csv_text(read_feature_csv(out))

    def test_all_failed_writes_header_only_partial(self, tmp_path, image_dir, index_file):
        index_file.write_text("mdb998 G CIRC B 16 16 5\nmdb999 G CIRC M 16 16 5\n")
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 2
        partial = tmp_path / "features.csv.partial"
        assert partial.read_bytes() == ("id,label," + ",".join(FEATURE_NAMES) + "\n").encode()

    def test_output_dir_env_override(self, tmp_path, image_dir, index_file,
                                     monkeypatch):
        outdir = tmp_path / "runs"
        monkeypatch.setenv("FKNNE_OUT", str(outdir))
        assert main(["extract", "--images", str(image_dir),
                     "--index", str(index_file), "--image-height", "32"]) == 0
        assert (outdir / "features.csv").exists()


class TestEval:
    def test_separable_clusters_reach_perfect_accuracy(self, tmp_path,
                                                       synthetic_csv, capsys):
        out_json = tmp_path / "report.json"
        code = main(["eval", "--features", str(synthetic_csv),
                     "--method", "fknne", "--k", "3",
                     "--protocol", "kfold", "--folds", "5", "--seed", "0",
                     "--out-json", str(out_json),
                     "--out-roc", str(tmp_path / "roc.csv")])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["accuracy"] == 1.0
        assert report["auc"] == 1.0
        assert "fknne" in capsys.readouterr().out

    def test_same_seed_twice_identical_json(self, tmp_path, synthetic_csv):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["eval", "--features", str(synthetic_csv),
                         "--method", "knn", "--k", "3", "--seed", "7",
                         "--out-json", str(out),
                         "--out-roc", str(tmp_path / (name + ".roc.csv"))]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_feature_mask_is_echoed(self, tmp_path):
        rng = np.random.default_rng(0)
        names = ("glcm.contrast", "rl.sre", "gldm.mean")
        data = Dataset([f"s{i}" for i in range(12)], rng.normal(size=(12, 3)),
                       ["benign", "malignant"] * 6, feature_names=names)
        csv_path = tmp_path / "f.csv"
        write_feature_csv(csv_path, data)
        out_json = tmp_path / "report.json"
        code = main(["eval", "--features", str(csv_path),
                     "--feature-mask", "glcm.contrast,rl.sre",
                     "--folds", "2", "--out-json", str(out_json),
                     "--out-roc", str(tmp_path / "roc.csv")])
        assert code == 0
        assert json.loads(out_json.read_text())["features"] == [
            "glcm.contrast", "rl.sre"
        ]

    def test_unknown_mask_name_exits_2(self, synthetic_csv, capsys):
        code = main(["eval", "--features", str(synthetic_csv),
                     "--feature-mask", "f0,nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_one_class_data_exits_2(self, tmp_path, capsys):
        data = Dataset(["a", "b", "c"], np.zeros((3, 2)), ["benign"] * 3)
        p = tmp_path / "one.csv"
        write_feature_csv(p, data)
        assert main(["eval", "--features", str(p)]) == 2

    def test_roc_csv_header(self, tmp_path, synthetic_csv):
        roc = tmp_path / "roc.csv"
        assert main(["eval", "--features", str(synthetic_csv),
                     "--out-json", str(tmp_path / "r.json"),
                     "--out-roc", str(roc)]) == 0
        assert roc.read_text().splitlines()[0] == "threshold,fpr,tpr"

    def test_printed_row_equals_compare_row(self, tmp_path, synthetic_csv, capsys):
        common = ["--features", str(synthetic_csv), "--k", "5", "--init", "keller",
                  "--folds", "4", "--seed", "3"]
        assert main(["eval", "--method", "knne", *common,
                     "--out-json", str(tmp_path / "r.json"),
                     "--out-roc", str(tmp_path / "roc.csv")]) == 0
        eval_lines = capsys.readouterr().out.splitlines()
        assert main(["compare", "--methods", "knne", *common,
                     "--out-json", str(tmp_path / "cmp.json")]) == 0
        compare_lines = capsys.readouterr().out.splitlines()
        assert eval_lines[:2] == compare_lines[:2]
        assert eval_lines[1].split()[0] == "knne"
        report = json.loads((tmp_path / "r.json").read_text())
        (row,) = json.loads((tmp_path / "cmp.json").read_text())
        assert row == {key: report[key] for key in row}


class TestCompare:
    def test_default_four_methods(self, tmp_path, synthetic_csv, capsys):
        out_json = tmp_path / "cmp.json"
        code = main(["compare", "--features", str(synthetic_csv),
                     "--folds", "5", "--out-json", str(out_json)])
        assert code == 0
        rows = json.loads(out_json.read_text())
        assert [r["method"] for r in rows] == ["knn", "fknn", "knne", "fknne"]
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == ["method", "sensitivity", "specificity", "accuracy", "auc"]

    def test_single_method(self, tmp_path, synthetic_csv):
        out_json = tmp_path / "cmp.json"
        assert main(["compare", "--features", str(synthetic_csv),
                     "--methods", "knne", "--folds", "5",
                     "--out-json", str(out_json)]) == 0
        rows = json.loads(out_json.read_text())
        assert len(rows) == 1 and rows[0]["method"] == "knne"

    def test_k_sweep_rows_per_method_and_k(self, tmp_path, synthetic_csv):
        out_json = tmp_path / "cmp.json"
        assert main(["compare", "--features", str(synthetic_csv),
                     "--methods", "knn,fknne", "--k-sweep", "1,3,5",
                     "--folds", "5", "--out-json", str(out_json)]) == 0
        rows = json.loads(out_json.read_text())
        assert [(r["method"], r["k"]) for r in rows] == [
            ("knn[k=1]", 1), ("knn[k=3]", 3), ("knn[k=5]", 5),
            ("fknne[k=1]", 1), ("fknne[k=3]", 3), ("fknne[k=5]", 5),
        ]

    def test_unknown_method_exits_2(self, synthetic_csv, capsys):
        assert main(["compare", "--features", str(synthetic_csv),
                     "--methods", "svm"]) == 2
        assert "svm" in capsys.readouterr().err


class TestSynth:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "synthetic.csv"
        assert main(["synth", "--out", str(out), "--n-per-class", "10"]) == 0
        data = read_feature_csv(out)
        assert len(data) == 20
        assert data.classes == ("benign", "malignant")

    def test_matches_library_generator(self, tmp_path, synthetic_csv):
        # the CLI writes exactly what the library generator produces
        out = tmp_path / "synthetic.csv"
        assert main(["synth", "--out", str(out)]) == 0
        assert out.read_bytes() == synthetic_csv.read_bytes()


class TestFeatureCsv:
    def test_duplicate_feature_names_rejected(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("id,label,u,v,u\na,benign,1,2,3\nb,malignant,4,5,6\n")
        with pytest.raises(ValueError, match="dup.csv: duplicate feature names: u"):
            read_feature_csv(p)
        assert main(["eval", "--features", str(p)]) == 2
        assert "duplicate feature names" in capsys.readouterr().err
