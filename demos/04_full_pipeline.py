"""The whole pipeline on synthetic mammogram-like files.

Generates PGM images and a matching annotation index in a temp directory,
which is removed once the features are extracted, then runs: parse index
-> crop ROIs -> extract features -> compare the four classifiers. Benign
ROIs get smooth texture, malignant ones coarse high-contrast texture, so
the features genuinely separate the classes.
"""

import tempfile
from pathlib import Path

import numpy as np

from fknne import (
    ClassifierConfig,
    Dataset,
    KFold,
    compare_classifiers,
    crop_roi,
    extract_all,
    parse_mias_index,
    read_pgm,
    write_pgm,
)
from fknne.synthetic import textured_image

HEIGHT = 256
rng = np.random.default_rng(5)

# The images live only as long as the extraction needs them.
with tempfile.TemporaryDirectory(prefix="fknne_demo_") as tmp:
    workdir = Path(tmp)
    index_lines = []
    for i in range(16):
        ref = f"img{i:03d}"
        malignant = i % 2 == 1
        # coarse blocks for malignant, fine grain for benign
        img = textured_image(HEIGHT, HEIGHT, smoothness=8 if malignant else 2,
                             seed=40 + i)
        (workdir / f"{ref}.pgm").write_bytes(write_pgm(img))
        x, y = int(rng.integers(60, 200)), int(rng.integers(60, 200))
        index_lines.append(f"{ref} G CIRC {'M' if malignant else 'B'} {x} {y} 24")
    index_path = workdir / "index.txt"
    index_path.write_text("\n".join(index_lines) + "\n")
    print(f"wrote 16 synthetic images + index under {workdir}")

    rois = parse_mias_index(index_path.read_text(), image_height=HEIGHT)
    samples = []
    for roi in rois:
        img = read_pgm((workdir / f"{roi.reference}.pgm").read_bytes())
        fv = extract_all(crop_roi(img, roi))
        samples.append((roi.id, fv, roi.label))
data = Dataset.from_samples(samples)
print(f"extracted {len(data)} ROIs x {len(data.feature_names)} features")

table = compare_classifiers(
    data,
    [ClassifierConfig(kind=kind, k=3) for kind in ("knn", "fknn", "knne", "fknne")],
    KFold(k=4, seed=0),
)
print("\nstratified 4-fold comparison:\n")
print(table.render_text())
print("\n(the same run is available from the shell: fknne extract + fknne compare)")
