"""End-to-end command behavior: artifacts, determinism and exit codes."""

import contextlib
import csv
import io
import json
import mmap
import os
import re
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fknne.cli
import fknne.formats
from fknne import (
    KINDS,
    ClassifierConfig,
    ConfusionCounts,
    Dataset,
    EvaluationReport,
    FoldResult,
    Holdout,
    KFold,
    Loocv,
    RocCurve,
    crop_roi,
    extract_all,
    feature_csv_text,
    parse_mias_index,
    read_feature_csv,
    read_pgm,
    report_json_text,
    two_cluster_dataset,
    write_feature_csv,
    write_pgm,
)
from fknne.cli import build_parser, main
from fknne.formats import feature_rows_text
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

    def test_image_is_named_by_the_index_reference(self, tmp_path, image_dir, index_file):
        # "case-7" is a reference of its own, not a repeat of "case".
        (image_dir / "case-7.pgm").write_bytes((image_dir / "mdb001.pgm").read_bytes())
        (image_dir / "case.pgm").write_bytes((image_dir / "mdb002.pgm").read_bytes())
        index_file.write_text("mdb001 G CIRC B 20 15 8\ncase-7 G CIRC B 20 15 8\n")
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 0
        data = read_feature_csv(out)
        assert data.ids == ("case-7", "mdb001")
        assert data.X[0].tobytes() == data.X[1].tobytes()

    def test_duplicate_roi_id_exits_2_naming_the_line(self, tmp_path, image_dir,
                                                      index_file, capsys):
        index_file.write_text("mdb001 G CIRC B 20 15 8\nmdb001 G CIRC B 10 10 4\n"
                              "mdb001-2 G CIRC M 12 20 6\n")
        out = tmp_path / "features.csv"
        assert main(extract_args(image_dir, index_file, out)) == 2
        assert "line 3: duplicate ROI id 'mdb001-2'" in capsys.readouterr().err
        assert not out.exists()

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

    def test_non_utf8_index_exits_2_naming_the_line_and_byte(self, tmp_path, image_dir,
                                                             capsys):
        index = tmp_path / "info.txt"
        index.write_bytes(b"mdb001 G CIRC B 20 15 8\nmdb002 D MISC M 12 \xd8 6\n")
        assert main(extract_args(image_dir, index, tmp_path / "f.csv")) == 2
        assert capsys.readouterr().err == f"error: {index}:2: not UTF-8 text (byte 0xd8)\n"

    @pytest.mark.parametrize("flags, message", [
        (["--levels", "1"], "error: --levels must be in [2, 64]"),
        (["--levels", "65"], "error: --levels must be in [2, 64]"),
        (["--distance", "0"], "error: --distance must be >= 1"),
        (["--side", "0"], "error: --side must be >= 1"),
        (["--side", "-3"], "error: --side must be >= 1"),
        (["--side", "2", "--distance", "2"], "error: --side must be greater than --distance"),
        (["--image-height", "0"], "error: --image-height must be >= 1"),
        (["--image-height", "-5"], "error: --image-height must be >= 1"),
    ])
    def test_bad_flag_exits_2_naming_it_before_any_image_is_read(
            self, tmp_path, image_dir, index_file, capsys, monkeypatch, flags, message):
        def unreachable(data):
            raise AssertionError("an image was read")

        monkeypatch.setattr(fknne.cli, "read_pgm", unreachable)
        assert main(extract_args(image_dir, index_file, tmp_path / "f.csv") + flags) == 2
        assert capsys.readouterr().err == message + "\n"
        assert list(tmp_path.glob("f.csv*")) == []

    def test_output_dir_env_override(self, tmp_path, image_dir, index_file,
                                     monkeypatch):
        outdir = tmp_path / "runs"
        monkeypatch.setenv("FKNNE_OUT", str(outdir))
        assert main(["extract", "--images", str(image_dir),
                     "--index", str(index_file), "--image-height", "32"]) == 0
        assert (outdir / "features.csv").exists()


def per_roi_extract(image_dir, index_file, image_height):
    """The extract command as one read per ROI: the reference for the
    grouped reads. Returns the CSV text and the (id, message) failures."""
    rois = sorted(parse_mias_index(index_file.read_text(), image_height=image_height),
                  key=lambda r: r.id)
    rows, failures = [], []
    for roi in rois:
        try:
            img = read_pgm((image_dir / f"{roi.reference}.pgm").read_bytes())
            fv = extract_all(crop_roi(img, roi))
        except (OSError, ValueError) as exc:
            failures.append((roi.id, str(exc)))
            continue
        rows.append((roi.id, roi.label, fv.values))
    return feature_rows_text(FEATURE_NAMES, rows), failures


class TestExtractReadsEachImageOnce:
    # Ids sort as m, m-1, m-1-2, m-2, m-25, m-25-2, m-3: the ROIs of images
    # "m", "m-1" (corrupt) and "m-25" (missing) interleave in id order.
    INDEX = ("m G CIRC B 20 15 8\nm-1 G CIRC M 10 10 4\nm G CIRC M 12 20 6\n"
             "m-25 G CIRC B 16 16 5\nm G CIRC B 5 5 3\nm-1 G CIRC B 9 9 2\n"
             "m-25 G CIRC M 16 16 5\n")

    @pytest.fixture
    def corpus(self, tmp_path):
        images = tmp_path / "images"
        images.mkdir()
        (images / "m.pgm").write_bytes(write_pgm(textured_image(32, 32, seed=3)))
        (images / "m-1.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(100))
        index = tmp_path / "index.txt"
        index.write_text(self.INDEX)
        return images, index

    def test_one_read_per_image_and_the_per_roi_output(self, tmp_path, corpus,
                                                       monkeypatch, capsys):
        images, index = corpus
        expected_csv, expected_failures = per_roi_extract(images, index, 32)
        assert [sid for sid, _ in expected_failures] == ["m-1", "m-1-2", "m-25", "m-25-2"]

        real_read = fknne.cli.read_pgm
        reads = []
        alive = []

        def counting_read(data):
            # The image read before this one has already been freed.
            assert all(ref() is None for ref in alive)
            # A P5 image comes as a memory map, which never equals bytes.
            reads.append(bytes(data))
            img = real_read(data)
            alive.append(weakref.ref(img.pixels))
            return img

        monkeypatch.setattr(fknne.cli, "read_pgm", counting_read)
        out = tmp_path / "features.csv"
        assert main(extract_args(images, index, out)) == 2
        # "m-25.pgm" is missing, so only two images reach the parser.
        assert reads == [(images / "m.pgm").read_bytes(), (images / "m-1.pgm").read_bytes()]

        partial = tmp_path / "features.csv.partial"
        assert partial.read_text(encoding="utf-8") == expected_csv
        assert read_feature_csv(partial).ids == ("m", "m-2", "m-3")
        err = capsys.readouterr().err.splitlines()
        assert err == [f"failed {sid}: {msg}" for sid, msg in expected_failures] + [
            "4 of 7 ROIs failed"]
        assert "truncated P5 pixel data" in err[0] and "No such file" in err[2]

    def test_complete_corpus_matches_the_per_roi_reference(self, tmp_path, corpus):
        images, index = corpus
        (images / "m-1.pgm").write_bytes(write_pgm(textured_image(32, 32, seed=4), binary=False))
        (images / "m-25.pgm").write_bytes(write_pgm(textured_image(32, 32, levels=4096, seed=5)))
        expected_csv, expected_failures = per_roi_extract(images, index, 32)
        assert expected_failures == []
        out = tmp_path / "features.csv"
        assert main(extract_args(images, index, out)) == 0
        assert out.read_text(encoding="utf-8") == expected_csv


_FUZZ_IMAGE = write_pgm(textured_image(24, 24, seed=9))
# Rows 20 and 11 of a 24-row image, at --image-height 32.
_FUZZ_INDEX = "img G CIRC B 12 11 6\nimg G CIRC M 6 20 3\n"


def extract_outcome(tmp):
    """Exit code, stdout, stderr and output file bytes of extract over the
    images and index.txt in ``tmp``, twice: as the command reads images
    (a P5 file through a memory map) and with every image read whole, as
    Path.read_bytes reads it. Output files are removed after each run."""
    outcomes = []
    for read in (fknne.cli._image_data, Path.read_bytes):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(fknne.cli, "_image_data", read), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(extract_args(tmp, tmp / "index.txt", tmp / "features.csv"))
        files = {}
        for path in sorted(tmp.glob("features.csv*")):
            files[path.name] = path.read_bytes()
            path.unlink()
        outcomes.append((code, out.getvalue(), err.getvalue(), files))
    return outcomes


class TestExtractMutatedImage:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_FUZZ_IMAGE) - 1), st.integers(0, 255)),
                    min_size=1, max_size=4),
           st.just(len(_FUZZ_IMAGE)) | st.integers(0, len(_FUZZ_IMAGE)))
    def test_fails_each_roi_with_exit_2_or_succeeds(self, edits, keep):
        data = bytearray(_FUZZ_IMAGE)
        for pos, byte in edits:
            data[pos] = byte
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "img.pgm").write_bytes(bytes(data[:keep]))
            (tmp / "index.txt").write_text(_FUZZ_INDEX)
            mapped, whole = extract_outcome(tmp)
        # A mutation that keeps the P5 magic is read through the map.
        assert mapped == whole
        code, _, err, files = mapped
        assert list(files) == ["features.csv" if code == 0 else "features.csv.partial"]
        lines = next(iter(files.values())).decode("utf-8").splitlines()
        written = [line.split(",", 1)[0] for line in lines[1:]]
        if code == 0:
            assert written == ["img", "img-2"]
            return
        assert code == 2
        failed = [sid for sid in ("img", "img-2") if sid not in written]
        lines = err.splitlines()
        assert [line.split(": ", 1)[0] for line in lines[:-1]] == [
            f"failed {sid}" for sid in failed]
        assert lines[-1] == f"{len(failed)} of 2 ROIs failed"


def _p5_with_pixel(img, value):
    """img's P5 bytes with its last pixel set to ``value``."""
    data = bytearray(write_pgm(img))
    width = 1 if img.max_val <= 255 else 2
    data[-width:] = value.to_bytes(width, "big")
    return bytes(data)


_IMAGE_FILES = {
    "empty": b"",
    "magic only": b"P5",
    "P5 header only": b"P5\n24 24\n255\n",
    "truncated P5": _FUZZ_IMAGE[:-100],
    "P2": write_pgm(textured_image(24, 24, seed=9), binary=False),
    "8-bit P5 at max_val 255": _FUZZ_IMAGE,
    "8-bit P5 above max_val 200": _p5_with_pixel(textured_image(24, 24, levels=201, seed=2),
                                                 255),
    "16-bit P5 at max_val 4095": write_pgm(textured_image(24, 24, levels=4096, seed=5)),
    "16-bit P5 above max_val 4095": _p5_with_pixel(
        textured_image(24, 24, levels=4096, seed=5), 4096),
    "16-bit P5 at max_val 65535": write_pgm(textured_image(24, 24, levels=65536, seed=6)),
}


class TestExtractMappedRead:
    """extract reads a file that starts with the P5 magic through a memory
    map and any other whole; the output, messages and exit code are those
    of reading every image whole."""

    @pytest.mark.parametrize("name", sorted(_IMAGE_FILES))
    def test_same_outcome_as_reading_the_file_whole(self, tmp_path, name):
        (tmp_path / "img.pgm").write_bytes(_IMAGE_FILES[name])
        (tmp_path / "index.txt").write_text(_FUZZ_INDEX)
        mapped, whole = extract_outcome(tmp_path)
        assert mapped == whole
        expect_ok = name in ("P2", "8-bit P5 at max_val 255", "16-bit P5 at max_val 4095",
                             "16-bit P5 at max_val 65535")
        assert mapped[0] == (0 if expect_ok else 2)

    def test_directory_named_as_the_image(self, tmp_path):
        (tmp_path / "img.pgm").mkdir()
        (tmp_path / "index.txt").write_text(_FUZZ_INDEX)
        mapped, whole = extract_outcome(tmp_path)
        assert mapped == whole
        assert mapped[0] == 2 and "Is a directory" in mapped[2]

    def test_an_8_bit_p5_image_is_a_view_of_its_map(self, tmp_path, monkeypatch):
        for ref, seed in (("a", 1), ("b", 2)):
            (tmp_path / f"{ref}.pgm").write_bytes(write_pgm(textured_image(24, 24, seed=seed)))
        (tmp_path / "index.txt").write_text("a G CIRC B 12 11 6\nb G CIRC M 6 20 3\n")
        real_read = fknne.cli.read_pgm
        maps = []

        def mapped_read(data):
            assert isinstance(data, mmap.mmap)
            # The map read before this one has been let go.
            assert all(ref() is None for ref in maps)
            maps.append(weakref.ref(data))
            img = real_read(data)
            base = img.pixels
            while isinstance(base, np.ndarray):
                base = base.base
            assert base.obj is data  # a memoryview of the map
            return img

        monkeypatch.setattr(fknne.cli, "read_pgm", mapped_read)
        assert main(extract_args(tmp_path, tmp_path / "index.txt",
                                 tmp_path / "features.csv")) == 0
        assert len(maps) == 2 and maps[-1]() is None

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_whole(self, tmp_path):
        fifo = tmp_path / "img.pgm"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(_FUZZ_IMAGE,))
        writer.start()
        try:
            data = fknne.cli._image_data(fifo)
        finally:
            writer.join()
        assert type(data) is bytes and data == _FUZZ_IMAGE


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

    def test_overflowing_feature_span_exits_2(self, tmp_path, capsys):
        # Each extreme twice, so every leave-one-out training set spans both.
        wide = [-1e308, -1e308, 1e308, 1e308, 0, 5]
        data = Dataset(list("abcdef"), [[v, i] for i, v in enumerate(wide)],
                       ["benign", "malignant"] * 3, feature_names=("wide", "narrow"))
        p = tmp_path / "wide.csv"
        write_feature_csv(p, data)
        assert main(["eval", "--features", str(p), "--protocol", "loocv"]) == 2
        assert "feature 'wide': max - min overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", [["loocv"], ["kfold", "--folds", "2"]])
    def test_overflowing_distances_name_the_sample(self, tmp_path, capsys, protocol):
        # d is alone at f0's max: every fold that tests it normalizes it to
        # inf, so its distances to every training row overflow.
        p = tmp_path / "edge.csv"
        p.write_text("id,label,f0,f1\n"
                     "a,benign,0.0,0.0\n"
                     "b,malignant,1e-300,1.0\n"
                     "c,benign,2e-300,2.0\n"
                     "d,malignant,1e300,3.0\n"
                     "e,benign,1e-300,4.0\n"
                     "f,malignant,0.0,5.0\n")
        assert main(["eval", "--features", str(p), "--method", "fknne", "--k", "2",
                     "--protocol", *protocol]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: sample 'd': every distance to its fold's training rows overflows "
            "to inf; feature values are too large")

    @pytest.mark.parametrize("flags, message", [
        (["--folds", "-3"], "error: --folds must be >= 2"),
        (["--seed", "-1"], "error: --seed must be >= 0"),
        (["--k", "0"], "error: --k must be >= 1"),
        (["--init", "keller", "--k-init", "0"], "error: --k-init must be >= 1"),
        (["--m", "1"], "error: --m must be > 1"),
        (["--m", "nan"], "error: --m must be > 1"),
        (["--m", "inf"], "error: --m must be finite"),
        (["--protocol", "holdout", "--fraction", "1.5"], "error: --fraction must be in (0, 1)"),
        (["--feature-mask", ","], "error: --feature-mask lists no feature"),
        (["--feature-mask", ""], "error: --feature-mask lists no feature"),
    ])
    def test_bad_protocol_flag_exits_2_naming_it(self, tmp_path, synthetic_csv, capsys,
                                                 flags, message):
        assert main(["eval", "--features", str(synthetic_csv), *flags,
                     "--out-json", str(tmp_path / "r.json"),
                     "--out-roc", str(tmp_path / "roc.csv")]) == 2
        assert capsys.readouterr().err == message + "\n"

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

    def test_non_integer_k_sweep_exits_2_naming_the_flag(self, tmp_path, synthetic_csv,
                                                         capsys):
        assert main(["compare", "--features", str(synthetic_csv), "--k-sweep", "3,x",
                     "--out-json", str(tmp_path / "cmp.json")]) == 2
        assert capsys.readouterr().err == "error: --k-sweep: 'x' is not an integer\n"

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "error: --k must be >= 1"),
        (["--k-sweep", "3,0"], "error: --k-sweep: '0' is below 1"),
        (["--m", "0.5"], "error: --m must be > 1"),
        (["--m", "inf"], "error: --m must be finite"),
        (["--methods", ","], "error: --methods lists no method"),
        (["--methods", ""], "error: --methods lists no method"),
        (["--k-sweep", ","], "error: --k-sweep lists no k"),
        (["--k-sweep", ""], "error: --k-sweep lists no k"),
        (["--methods", "knn,fknn,knn"], "error: --methods: 'knn' is repeated"),
        (["--k-sweep", "3,5,03"], "error: --k-sweep: '03' is repeated"),
        (["--feature-mask", ","], "error: --feature-mask lists no feature"),
    ])
    def test_bad_classifier_flag_exits_2_naming_it(self, tmp_path, synthetic_csv, capsys,
                                                   flags, message):
        assert main(["compare", "--features", str(synthetic_csv), *flags,
                     "--out-json", str(tmp_path / "cmp.json")]) == 2
        assert capsys.readouterr().err == message + "\n"

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

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "s.csv"), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize("flags, message", [
        (["--n-per-class", "0"], "error: --n-per-class must be >= 1"),
        (["--dim", "0"], "error: --dim must be >= 1"),
        (["--spread", "-1"], "error: --spread must be finite and >= 0"),
        (["--spread", "inf"], "error: --spread must be finite and >= 0"),
        (["--spread", "nan"], "error: --spread must be finite and >= 0"),
        (["--separation", "nan"], "error: --separation must be finite"),
        (["--separation", "inf"], "error: --separation must be finite"),
    ])
    def test_bad_size_flag_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        assert main(["synth", "--out", str(tmp_path / "s.csv"), *flags]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "s.csv").exists()


class TestFeatureCsv:
    def test_duplicate_feature_names_rejected(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("id,label,u,v,u\na,benign,1,2,3\nb,malignant,4,5,6\n")
        with pytest.raises(ValueError, match="dup.csv: duplicate feature names: u"):
            read_feature_csv(p)
        assert main(["eval", "--features", str(p)]) == 2
        assert "duplicate feature names" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2_naming_line_and_column(self, tmp_path, capsys, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"id,label,a,b\nx,benign,1,2\ny,malignant,3,{cell}\n")
        assert main(["eval", "--features", str(p)]) == 2
        assert f"{p}:3: non-finite value in column 'b'" in capsys.readouterr().err

    def test_duplicate_id_exits_2_naming_both_lines(self, tmp_path, capsys):
        p = tmp_path / "dupid.csv"
        p.write_text("id,label,a\nx,benign,1\ny,malignant,2\nx,malignant,3\n")
        assert main(["eval", "--features", str(p)]) == 2
        assert f"{p}:4: duplicate id 'x' (first on line 2)" in capsys.readouterr().err

    def test_non_utf8_csv_exits_2_naming_the_line_and_byte(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"id,label,a\nx,benign,1\ny,malign\xd8nt,2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: not UTF-8 text"):
            read_feature_csv(p)
        assert main(["eval", "--features", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}:3: not UTF-8 text (byte 0xd8)\n"

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_past_the_size_limit_exits_2_naming_the_line(self, tmp_path, capsys, line):
        lines = ["id,label,a", "x,benign,1", "y,malignant,2"]
        lines[line - 1] = "z" * csv.field_size_limit() + lines[line - 1]  # the first field too long
        p = tmp_path / "long.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--features", str(p)]) == 2
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"error: {p}:{line}: field larger than field limit ({limit})\n")


def _read_outcome(path):
    """read_feature_csv's Dataset as (ids, labels, names, X bytes), or its
    ValueError's message (a NUL byte on Python 3.10 and a field past the
    field size limit included)."""
    try:
        data = read_feature_csv(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return data.ids, data.labels, data.feature_names, data.X.tobytes()


# Values the C reader and float() may disagree on, or that either rejects.
_VALUE_TOKENS = ("0.5", "-0", "1e-3", "2.5E+2", ".5", "7.", "inf", "-Infinity", "nan", "+nan",
                 "1e400", "-1e400", "1_0", "\u0661", "\u0663.\u0665", " 2 ", "\t3", "3\x0b",
                 "\xa04", "", " ", "0x1f", "1\x1c", "\x1f2", "1e", "\u22121", "1 2")
# Single characters a mutation inserts: CSV syntax, line breaks and value text.
_MUTATIONS = ('"', "\r\n", "\r", "\n", "\n\n", ",", "\x00", "\x1c", "_", " ", "\u0661", "e",
              "-", ".", "\xe9")


@st.composite
def feature_csv_texts(draw):
    """A feature CSV of 1-4 rows and 1-3 features, then a few inserted
    characters. About one in six takes the C reader; the rest hold a
    character it is never given, or a line or value it declines."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(("a", "b", "c", "\u00e9", "a b")), min_size=d,
                          max_size=d))
    good = st.floats().map(repr)
    value = st.one_of(good, good, good, good, st.sampled_from(_VALUE_TOKENS))
    lines = [",".join(["id", "label"] + names)]
    for _ in range(n):
        cells = [draw(st.sampled_from(("x", "\u00e9", "r 1"))) + draw(st.sampled_from("01234567")),
                 draw(st.sampled_from(("benign", "malignant")))]
        cells += [draw(value) for _ in range(d)]
        if draw(st.sampled_from((False,) * 9 + (True,))):
            cells[-1] = f'"{cells[-1]}"'
        lines.append(",".join(cells))
    text = draw(st.sampled_from(("\n",) * 5 + ("\r\n",))).join(lines) + draw(
        st.sampled_from(("\n", "\n", "\n", "", "\n\n")))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from(_MUTATIONS)) + text[pos:]
    return text


class TestFeatureCsvFastPath:
    """read_feature_csv parses an unquoted, LF-only file with np.loadtxt and
    any other through csv.reader; both give one Dataset or one error."""

    @settings(max_examples=400, deadline=None)
    @given(feature_csv_texts())
    def test_same_dataset_or_error_as_the_csv_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            path.write_bytes(text.encode("utf-8"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = _read_outcome(path)
            with mock.patch.object(fknne.formats, "_loadtxt_rows", return_value=None):
                oracle = _read_outcome(path)
        assert fast == oracle
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("text", [
        "id,label,a,b\nx,benign,1,2\ny,malignant,-0,3e-7\n",
        "id,label,a\n\u00e9,benign, 1 \ny,malignant,\t2",
        "id,label,a\nx,benign,1\ny,malignant,inf\n",
        "id,label,a\n",
    ])
    def test_unquoted_lf_files_take_the_c_reader(self, text, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8", newline="")
        oracle = _read_outcome(path)
        with mock.patch.object(fknne.formats, "_csv_rows", wraps=fknne.formats._csv_rows) as spy:
            assert _read_outcome(path) == oracle
        # A file without data rows is left to csv.reader, which names the fault.
        assert spy.called == (text == "id,label,a\n")

    def test_a_fault_before_the_first_non_utf8_byte_is_reported(self, tmp_path):
        # Past the first 8 KiB a text stream has not decoded the bad byte yet.
        rows = b"".join(b"r%d,benign,1\n" % i for i in range(3000))
        path = tmp_path / "features.csv"
        path.write_bytes(b"id,label,a\nx,benign,1\nx,malignant,2\n" + rows + b"y,b\xd8,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: duplicate id 'x'"):
            read_feature_csv(path)
        path.write_bytes(b"id,label,a\nx,benign,1\n" + rows + b"y,b\xd8,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3003: not UTF-8 text"):
            read_feature_csv(path)

    @pytest.mark.parametrize("text", [
        "",
        'id,label,a\nx,benign,"1"\n',
        "id,label,a\r\nx,benign,1\r\n",
        "id,label,a\nx,benign,1\n\ny,malignant,2\n",
        "id,label,a\nx,benign,1_0\n",
        "id,label,a\nx,benign,\u0661\n",
        "id,label,a,b\nx,benign,,1\n",
        "id,label,a\nx,benign,1\x1c\n",
        "id,label,a\nx\x00,benign,1\n",
        "id,label,a\nx,benign\n",
        "id,label,a\nx,benign,1,2\n",
        "id,label,a\nx,benign,1\nx,malignant,2\n",
        pytest.param("id,label,a\n" + "x" * 131073 + ",benign,1\n", id="field-past-limit"),
    ])
    def test_other_files_go_through_csv_reader(self, text, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(fknne.formats, "_csv_rows", wraps=fknne.formats._csv_rows) as spy:
            outcome = _read_outcome(path)
        assert spy.called
        with mock.patch.object(fknne.formats, "_loadtxt_rows", return_value=None):
            assert outcome == _read_outcome(path)


_NAMES = st.text(st.characters(codec="utf-8"), max_size=5) | st.sampled_from(
    ('folds": []', '\n  "folds": []', "\\", '"', "\u00e9\u4e2d"))
# Classes of values equal under == that print apart.
_EQUAL_RATES = ((None,), (0, 0.0, -0.0, False), (1, 1.0, True, np.float64(1.0)),
                (0.5, np.float64(0.5)), (float("nan"),))


@st.composite
def evaluation_reports(draw):
    """A report whose folds repeat a few distinct ones, as a LOOCV report's
    do. In half the reports the distinct folds share a class of
    _EQUAL_RATES per rate and one of two confusions, so folds equal as
    dicts often print apart."""
    if draw(st.booleans()):
        counts = st.sampled_from((ConfusionCounts(1, 0, 0, 0), ConfusionCounts(0, 0, 1, 0)))
        rates = [st.sampled_from(draw(st.sampled_from(_EQUAL_RATES))) for _ in range(3)]
    else:
        counts = st.builds(ConfusionCounts, *[st.integers(0, 3)] * 4)
        rates = [st.none() | st.floats()] * 3
    distinct = draw(st.lists(st.builds(FoldResult, counts, *rates), min_size=1, max_size=5))
    rate = lambda: draw(st.none() | st.floats())  # noqa: E731
    return EvaluationReport(
        config=ClassifierConfig(kind=draw(st.sampled_from(KINDS)), k=draw(st.integers(1, 9)),
                                init=draw(st.sampled_from(("crisp", "keller")))),
        protocol=draw(st.sampled_from((Loocv(), KFold(3, 1), Holdout(0.25, 2)))),
        positive_class=draw(_NAMES),
        pooled=draw(counts),
        sensitivity=rate(), specificity=rate(), accuracy=rate(),
        roc=RocCurve(((0.0, 0.0, 1.0), (1.0, 1.0, 0.0)), 0.5),
        auc=rate(),
        averaged={"sensitivity": rate(), "specificity": rate(), "accuracy": rate()},
        folds=tuple(draw(st.lists(st.sampled_from(distinct), max_size=12))),
        predictions=(),  # not in the JSON, so no id is either
    )


class TestReportJsonFolds:
    """report_json_text renders each distinct fold once and reuses its text."""

    @settings(max_examples=300, deadline=None)
    @given(evaluation_reports(), st.none() | st.lists(_NAMES, max_size=4))
    def test_text_is_json_dumps_of_the_report(self, report, features):
        obj = report.to_dict() | ({} if features is None else {"features": features})
        assert report_json_text(report, features) == json.dumps(
            obj, indent=2, sort_keys=True) + "\n"


_USAGE = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text(
    encoding="utf-8"))


class TestUsageText:
    """Help and usage errors, recorded from the parser that added every
    subcommand's flags on each call, at 80 columns."""

    @pytest.mark.parametrize("case", _USAGE, ids=lambda c: " ".join(c["argv"]) or "no-args")
    def test_matches_the_recorded_text(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("command, argv", [
        ("extract", ["--images", "i", "--index", "x.txt", "--side", "9"]),
        ("eval", ["--features", "f.csv", "--protocol", "loocv", "--init", "keller"]),
        ("compare", ["--features", "f.csv", "--k-sweep", "1,3", "--no-normalize"]),
        ("synth", ["--dim", "2"]),
    ])
    def test_one_subcommand_parser_parses_and_helps_as_the_full_one(self, command, argv):
        helps = []
        for parser in (build_parser(command), build_parser()):
            with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps.append(out.getvalue())
        assert helps[0] == helps[1]
        assert build_parser(command).parse_args([command] + argv) == build_parser().parse_args(
            [command] + argv)
