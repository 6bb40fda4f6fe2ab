"""Bundled synthetic data so the full pipeline runs without real mammograms."""

from __future__ import annotations

import numpy as np

from .classifiers import Dataset
from .ingestion import BENIGN, MALIGNANT, GrayImage, _check_int


def two_cluster_dataset(n_per_class: int = 30, n_features: int = 4,
                        separation: float = 8.0, spread: float = 0.5,
                        seed: int = 7) -> Dataset:
    """Two seeded Gaussian clusters, one per class, with the benign cluster
    at the origin and the malignant one at ``separation`` along every axis.

    The default margin dwarfs the spread, so any sane classifier separates
    the classes perfectly; useful as an end-to-end smoke fixture.
    """
    _check_int("n_per_class", n_per_class, 1)
    _check_int("n_features", n_features, 1)
    rng = np.random.default_rng(seed)
    benign = rng.normal(0.0, spread, size=(n_per_class, n_features))
    malignant = rng.normal(separation, spread, size=(n_per_class, n_features))
    X = np.vstack([benign, malignant])
    ids = [f"b{i:03d}" for i in range(n_per_class)] + [
        f"m{i:03d}" for i in range(n_per_class)
    ]
    labels = [BENIGN] * n_per_class + [MALIGNANT] * n_per_class
    return Dataset(ids, X, labels)


def textured_image(width: int = 32, height: int = 32, levels: int = 256,
                   smoothness: int = 4, seed: int = 0) -> GrayImage:
    """A random grayscale patch with local correlation, handy for demos and
    PGM fixtures. Larger ``smoothness`` gives coarser texture."""
    for name, value, least in (("width", width, 1), ("height", height, 1),
                               ("levels", levels, 2), ("smoothness", smoothness, 1)):
        _check_int(name, value, least)
    # As Python ints: a numpy unsigned one would wrap in the ceiling division below.
    width, height, levels, smoothness = int(width), int(height), int(levels), int(smoothness)
    if levels > 65536:
        raise ValueError("levels must be <= 65536")
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, levels, size=(-(-height // smoothness),
                                           -(-width // smoothness)))
    # Nearest-neighbour upscale keeps values integral.
    img = np.repeat(np.repeat(coarse, smoothness, axis=0), smoothness, axis=1)
    return GrayImage(img[:height, :width], levels - 1)
