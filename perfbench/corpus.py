"""Seeded input corpora for the four benchmark workloads.

The benchmark makes its own inputs with numpy and the standard library; it
never calls the package under test to make them, so a change to fknne
cannot change what is measured. The same seed gives byte-identical files.

What sets the run time is fixed for every seed: ROI radii and where the
border clamps them, image smoothness, row counts and class sizes. The seed
draws pixel values, positions, labels and feature values, so throughput
differs little from seed to seed.

Run as a script to write one corpus and print its properties:

    python3 perfbench/corpus.py --workload extract-mias --seed 0 --out corpus-out
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("extract-mias", "extract-p2", "compare-kfold", "loocv-keller")

# The paper's 25-feature schema, the header every feature CSV carries.
FEATURE_NAMES = tuple(
    [f"glcm.{n}" for n in ("asm", "contrast", "correlation", "variance", "idm",
                           "sum_average", "sum_variance", "sum_entropy", "entropy",
                           "diff_variance", "diff_entropy", "imc1", "imc2")]
    + [f"rl.{n}" for n in ("sre", "lre", "gln", "rln", "rp", "lgre", "hgre")]
    + [f"gldm.{n}" for n in ("mean", "contrast", "asm", "entropy", "idm")]
)
DIRECTIONS = 4  # texture matrices are built along four directions per ROI
KINDS = ("knn", "fknn", "knne", "fknne")
K_SWEEP = (1, 3, 5, 7, 9)
FOLDS = 10


@dataclass
class Corpus:
    """One workload's generated inputs and what the benchmark knows of them.

    ``argv`` is the fknne command line; ``{out}`` in it stands for the
    directory a repetition writes into. ``ops`` counts the operations one
    command performs (ROIs or held-out predictions). ``expect`` holds what
    the output check needs; ``work`` holds work counts computed from the
    inputs, not measured.
    """

    workload: str
    argv: list[str]
    outputs: tuple[str, ...]
    operation: str  # what one operation is: "rois" or "predictions"
    ops: int
    properties: dict
    work: dict
    expect: dict
    alloc_probe: dict | None = field(default=None)


def _quartiles(values) -> dict:
    v = np.sort(np.asarray(values, dtype=np.float64))
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return {"min": float(v[0]), "q1": float(q1), "median": float(med),
            "q3": float(q3), "max": float(v[-1])}


def _textured(rng, size: int, smoothness: int) -> np.ndarray:
    # Uniform 8-bit blocks of smoothness x smoothness pixels: larger blocks
    # give longer gray runs and coarser co-occurrence structure.
    n = -(-size // smoothness)
    coarse = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
    return np.repeat(np.repeat(coarse, smoothness, axis=0), smoothness, axis=1)[:size, :size]


def _p5_bytes(img: np.ndarray) -> bytes:
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


_P2_TOKENS = np.array([str(v).encode("ascii") for v in range(256)], dtype=object)


def _p2_bytes(img: np.ndarray) -> bytes:
    h, w = img.shape
    rows = [b" ".join(_P2_TOKENS[row]) for row in img]
    return f"P2\n# synthetic texture\n{w} {h}\n255\n".encode("ascii") + b"\n".join(rows) + b"\n"


def _place(rng, size: int, radius: int, at_border: bool) -> tuple[int, int]:
    """Raster (column, row) of an ROI centre. Interior centres keep the
    whole 2r+1 square inside the image; border centres sit r//2 from one
    randomly chosen edge, so the crop loses the same share whichever edge
    it is."""
    lo, hi = radius, size - 1 - radius
    along = int(rng.integers(lo, hi + 1))
    if at_border:
        edge = int(rng.integers(0, 4))
        across = radius // 2 if edge % 2 == 0 else size - 1 - radius // 2
        return (along, across) if edge < 2 else (across, along)
    return along, int(rng.integers(lo, hi + 1))


def _crop_shape(size: int, cx: int, cy: int, radius: int) -> tuple[int, int]:
    side = 2 * radius + 1
    x0, y0 = cx - radius, cy - radius
    w = min(x0 + side, size) - max(x0, 0)
    h = min(y0 + side, size) - max(y0, 0)
    return h, w


def _image_corpus(workload: str, out: Path, seed: int, *, size: int, ascii_pgm: bool,
                  rois_per_image: list[int], radii, smoothness, n_border: int,
                  n_normals: int) -> Corpus:
    # The seed draws pixels, centres, edges, labels and the index order. The
    # pairing of radii, smoothness and border placement is fixed, so the
    # texture work per command is the same for every seed.
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n_rois = sum(rois_per_image)
    radii = np.asarray(radii, dtype=np.int64)
    border = np.zeros(n_rois, dtype=bool)
    border[np.linspace(0, n_rois - 1, n_border).round().astype(int)] = True
    smooth = np.resize(np.asarray(smoothness), len(rois_per_image))
    images = out / "images"
    images.mkdir(parents=True, exist_ok=True)

    records = []  # (reference, index line, label)
    read_bytes, pixels, sides, clamped = 0, 0, [], 0
    roi = 0
    for i, count in enumerate(rois_per_image):
        ref = f"mdb{i + 1:03d}"
        img = _textured(rng, size, int(smooth[i]))
        data = _p2_bytes(img) if ascii_pgm else _p5_bytes(img)
        (images / f"{ref}.pgm").write_bytes(data)
        for _ in range(count):
            r = int(radii[roi])
            cx, cy = _place(rng, size, r, bool(border[roi]))
            severity = "BM"[int(rng.integers(0, 2))]
            tissue = "FGD"[int(rng.integers(0, 3))]
            cls = ("CIRC", "SPIC", "MISC", "ARCH", "ASYM")[int(rng.integers(0, 5))]
            # MIAS index y has a bottom-left origin.
            records.append((ref, f"{ref} {tissue} {cls} {severity} {cx} {size - 1 - cy} {r}",
                            "benign" if severity == "B" else "malignant"))
            h, w = _crop_shape(size, cx, cy, r)
            clamped += (h, w) != (2 * r + 1, 2 * r + 1)
            sides.append(2 * r + 1)
            pixels += h * w
            read_bytes += len(data)
            roi += 1
    # Normal records carry no coordinates; the parser skips them.
    for i in range(n_normals):
        records.append((None, f"mdb{len(rois_per_image) + i + 1:03d} {'FGD'[i % 3]} NORM", None))
    records = [records[t] for t in rng.permutation(len(records))]
    (out / "info.txt").write_text("".join(line + "\n" for _, line, _ in records), encoding="ascii")
    # A reference's second and later records get "-2", "-3" ids in file order.
    seen, expected_rows = {}, []
    for ref, _, label in records:
        if ref is not None:
            seen[ref] = seen.get(ref, 0) + 1
            expected_rows.append((ref if seen[ref] == 1 else f"{ref}-{seen[ref]}", label))

    argv = ["extract", "--images", str(images), "--index", str(out / "info.txt"),
            "--out", "{out}/features.csv"]
    if size != 1024:
        argv += ["--image-height", str(size)]
    per_image = np.bincount(rois_per_image)
    return Corpus(
        workload=workload,
        argv=argv,
        outputs=("features.csv",),
        operation="rois",
        ops=n_rois,
        properties={
            "images": len(rois_per_image),
            "image_side": size,
            "format": "P2" if ascii_pgm else "P5",
            "rois": n_rois,
            "roi_side": _quartiles(sides),
            "border_clamped_share": clamped / n_rois,
            "rois_per_image": {"mean": n_rois / len(rois_per_image),
                               "histogram": {str(c): int(n) for c, n in enumerate(per_image) if n}},
            "smoothness": sorted(int(s) for s in set(smooth.tolist())),
        },
        work={
            "read_pgm_bytes": read_bytes,
            "roi_pixel_directions": pixels * DIRECTIONS,
            "distinct_images": len(rois_per_image),
            "border_clamped": clamped,
        },
        expect={"rows": sorted(expected_rows)},
    )


def _feature_table(rng, n_benign: int, n_malignant: int, n_dup: int):
    """Two overlapping Gaussian classes over the 25-feature schema.

    Column scales spread over seven decades so min-max normalization
    matters; ``n_dup`` malignant rows copy a benign row's exact values so
    the exact-match rule fires.
    """
    n = n_benign + n_malignant
    d = len(FEATURE_NAMES)
    z = rng.normal(size=(n, d))
    z[n_benign:, : d // 2] += 0.8
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=d)
    offset = rng.normal(size=d) * scale * 3.0
    X = offset + z * scale
    src = rng.choice(n_benign, size=n_dup, replace=False)
    dst = n_benign + rng.choice(n_malignant, size=n_dup, replace=False)
    X[dst] = X[src]
    labels = ["benign"] * n_benign + ["malignant"] * n_malignant
    order = rng.permutation(n)
    ids = [f"r{i:04d}" for i in range(n)]
    rows = [(ids[t], labels[i], X[i]) for t, i in enumerate(order)]
    return rows, float(np.log10(scale.max() / scale.min()))


def _write_features(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(("id", "label") + FEATURE_NAMES) + "\n")
        for sid, label, x in rows:
            f.write(",".join([sid, label] + [repr(float(v)) for v in x]) + "\n")


def _fold_sizes(class_counts, k: int) -> list[int]:
    # The CLI deals each class round-robin over k folds, starting at fold 0.
    return [sum(n // k + (i < n % k) for n in class_counts) for i in range(k)]


def _table_corpus(workload: str, out: Path, seed: int, n_benign: int, n_malignant: int,
                  n_dup: int) -> tuple[Path, list, dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    rows, decades = _feature_table(rng, n_benign, n_malignant, n_dup)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "features.csv"
    _write_features(path, rows)
    n = n_benign + n_malignant
    props = {
        "rows": n,
        "features": len(FEATURE_NAMES),
        "class_counts": {"benign": n_benign, "malignant": n_malignant},
        "duplicate_share": 2 * n_dup / n,
        "column_scale_decades": decades,
    }
    return path, rows, props


def compare_kfold(out: Path, seed: int) -> Corpus:
    path, rows, props = _table_corpus("compare-kfold", out, seed, 330, 270, 9)
    n = len(rows)
    sizes = _fold_sizes((330, 270), FOLDS)
    configs = len(KINDS) * len(K_SWEEP)
    distances = configs * sum(s * (n - s) for s in sizes)
    first_test = min(sizes)
    return Corpus(
        workload="compare-kfold",
        argv=["compare", "--features", str(path), "--k-sweep", ",".join(map(str, K_SWEEP)),
              "--protocol", "kfold", "--folds", str(FOLDS), "--init", "crisp",
              "--seed", str(seed), "--out-json", "{out}/compare.json"],
        outputs=("compare.json",),
        operation="predictions",
        ops=configs * n,
        properties=props,
        work={"predict_distances": distances, "fit_pair_distances": 0},
        expect={"labels": {sid: lab for sid, lab, _ in rows},
                "methods": [f"{kind}[k={k}]" for kind in KINDS for k in K_SWEEP]},
        alloc_probe={"features": str(path), "train_size": n - first_test,
                     "config": {"kind": "fknne", "k": 3, "init": "crisp"}},
    )


def loocv_keller(out: Path, seed: int) -> Corpus:
    path, rows, props = _table_corpus("loocv-keller", out, seed, 110, 90, 3)
    n = len(rows)
    return Corpus(
        workload="loocv-keller",
        argv=["eval", "--features", str(path), "--method", "fknne", "--init", "keller",
              "--k", "5", "--protocol", "loocv", "--out-json", "{out}/report.json",
              "--out-roc", "{out}/roc.csv"],
        outputs=("report.json", "roc.csv"),
        operation="predictions",
        ops=n,
        properties=props,
        work={"predict_distances": n * (n - 1), "fit_pair_distances": n * (n - 1) ** 2},
        expect={"labels": {sid: lab for sid, lab, _ in rows},
                "config": {"method": "fknne", "k": 5, "init": "keller", "protocol": "loocv"}},
        alloc_probe={"features": str(path), "train_size": n - 1,
                     "config": {"kind": "fknne", "k": 5, "init": "keller"}},
    )


def extract_mias(out: Path, seed: int) -> Corpus:
    # 54 full-size mammograms, six of them with a second abnormality, as in
    # MIAS; radii spread geometrically over MIAS's 16..197 range.
    return _image_corpus(
        "extract-mias", out, seed, size=1024, ascii_pgm=False,
        rois_per_image=[2] * 6 + [1] * 48,
        radii=np.round(np.geomspace(16, 197, 60)),
        smoothness=(2, 4, 8, 16), n_border=8, n_normals=6)


def extract_p2(out: Path, seed: int) -> Corpus:
    # Four small ROIs per ASCII image: each image is parsed four times.
    return _image_corpus(
        "extract-p2", out, seed, size=512, ascii_pgm=True,
        rois_per_image=[4] * 15,
        radii=np.round(np.geomspace(8, 32, 60)),
        smoothness=(1, 2, 4, 8), n_border=4, n_normals=0)


BUILDERS = {
    "extract-mias": extract_mias,
    "extract-p2": extract_p2,
    "compare-kfold": compare_kfold,
    "loocv-keller": loocv_keller,
}


def build(workload: str, out: Path, seed: int) -> Corpus:
    """Write the workload's inputs under ``out`` and describe them."""
    return BUILDERS[workload](Path(out), seed)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="directory to write the inputs into")
    args = p.parse_args(argv)
    c = build(args.workload, Path(args.out), args.seed)
    print(json.dumps({"argv": c.argv, "ops": c.ops, "properties": c.properties,
                      "work_computed": c.work}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
