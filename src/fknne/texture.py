"""Texture matrices and the scalar statistics derived from them.

Three matrix families are built from a quantized gray image:

* co-occurrence (GLCM): joint probability of gray pairs at a pixel offset,
* run-length (GLRLM): counts of maximal constant-gray runs by level/length,
* gray difference (GLDM): distribution of |gray difference| at an offset.

``extract_all`` composes them over the four standard directions and
averages, yielding one fixed-schema feature vector per image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingestion import GrayImage, quantize

# Direction set used throughout: right, down-right, down, up-right.
# dx is a column offset, dy a row offset (top-left raster origin).
DIRECTIONS = ((1, 0), (1, 1), (0, 1), (1, -1))

HARALICK_NAMES = (
    "asm",
    "contrast",
    "correlation",
    "variance",
    "idm",
    "sum_average",
    "sum_variance",
    "sum_entropy",
    "entropy",
    "diff_variance",
    "diff_entropy",
    "imc1",
    "imc2",
)

RUNLENGTH_NAMES = ("sre", "lre", "gln", "rln", "rp", "lgre", "hgre")

GLDM_NAMES = ("mean", "contrast", "asm", "entropy", "idm")

_MAX_LEVELS = 64


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Named, finite, real-valued features in a fixed order."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or len(names) != values.size:
            raise ValueError("names and values must be parallel 1-D sequences")
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.names)

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values.tolist()))


@dataclass(frozen=True, eq=False)
class Glcm:
    """Gray-level co-occurrence matrix: p[i, j] = P(gray i at p, gray j at p+offset)."""

    levels: int
    p: np.ndarray
    offset: tuple[int, int]
    symmetric: bool

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (self.levels, self.levels):
            raise ValueError("p must be a levels x levels matrix")
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("p must be a probability matrix summing to 1")
        if self.symmetric and not np.allclose(p, p.T, atol=1e-12):
            raise ValueError("symmetric GLCM must equal its transpose")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class Glrlm:
    """Run-length matrix: r[g, l-1] = number of maximal runs of gray g, length l."""

    levels: int
    max_run: int
    r: np.ndarray
    direction: tuple[int, int]
    n_pixels: int

    def __post_init__(self):
        r = np.asarray(self.r)
        if r.shape != (self.levels, self.max_run) or not np.issubdtype(r.dtype, np.integer):
            raise ValueError("r must be a levels x max_run integer matrix")
        covered = int((r * np.arange(1, self.max_run + 1)).sum())
        if covered != self.n_pixels:
            raise ValueError(
                f"runs cover {covered} pixels, expected {self.n_pixels}"
            )
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "r", r)


@dataclass(frozen=True, eq=False)
class Gldm:
    """Gray difference vector: d[k] = P(|gray(p) - gray(p+offset)| = k)."""

    levels: int
    d: np.ndarray
    offset: tuple[int, int]

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.levels,):
            raise ValueError("d must have one entry per gray level")
        if (d < 0).any() or abs(d.sum() - 1.0) > 1e-9:
            raise ValueError("d must be a probability vector summing to 1")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


def _offset_pairs(pixels: np.ndarray, dx: int, dy: int):
    """All in-bounds (value, shifted value) pairs at the offset, flattened."""
    h, w = pixels.shape
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        return None, None
    a = pixels[y0:y1, x0:x1]
    b = pixels[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    return a.ravel(), b.ravel()


def compute_glcm(img: GrayImage, dx: int, dy: int, symmetric: bool = False) -> Glcm:
    """Count gray pairs at offset (dx, dy) and normalize to probabilities.

    The image must already be quantized (max_val + 1 <= 64 levels). With
    ``symmetric`` each pair is also counted in reverse, making p its own
    transpose.
    """
    if (dx, dy) == (0, 0):
        raise ValueError("offset must be nonzero")
    levels = img.max_val + 1
    if levels > _MAX_LEVELS:
        raise ValueError(f"image must be quantized to <= {_MAX_LEVELS} levels")
    a, b = _offset_pairs(img.pixels, dx, dy)
    if a is None:
        raise ValueError("empty co-occurrence: no pixel pair fits the offset")
    counts = np.bincount(
        a.astype(np.int64) * levels + b, minlength=levels * levels
    ).reshape(levels, levels).astype(np.float64)
    if symmetric:
        counts = counts + counts.T
    return Glcm(levels=levels, p=counts / counts.sum(), offset=(dx, dy), symmetric=symmetric)


def _entropy(q: np.ndarray) -> float:
    # Natural log with the 0*log(0) = 0 convention.
    nz = q[q > 0]
    return float(-(nz * np.log(nz)).sum())


def haralick_features(glcm: Glcm) -> FeatureVector:
    """The 13 classic co-occurrence statistics.

    asm           sum of squared probabilities (energy)
    contrast      sum of (i-j)^2 p(i,j)
    correlation   covariance of (i, j) over their marginal deviations;
                  0 when either marginal is degenerate
    variance      intensity variance of the pooled marginal (px+py)/2
    idm           sum of p(i,j) / (1 + (i-j)^2)
    sum_average   mean of the i+j distribution
    sum_variance  variance of the i+j distribution about sum_average
    sum_entropy   entropy of the i+j distribution
    entropy       entropy of p itself
    diff_variance variance of the |i-j| distribution
    diff_entropy  entropy of the |i-j| distribution
    imc1, imc2    information measures of correlation (0 when HX = HY = 0)

    All logarithms are natural; the maximal-correlation coefficient is
    deliberately not computed (eigen-solver, fragile on sparse matrices).
    """
    p = glcm.p
    g = glcm.levels
    i = np.arange(g, dtype=np.float64)
    ii, jj = np.indices((g, g))

    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float(i @ px)
    mu_y = float(i @ py)
    var_x = float(((i - mu_x) ** 2) @ px)
    var_y = float(((i - mu_y) ** 2) @ py)

    psum = np.bincount((ii + jj).ravel(), weights=p.ravel(), minlength=2 * g - 1)
    pdiff = np.bincount(np.abs(ii - jj).ravel(), weights=p.ravel(), minlength=g)

    asm = float((p**2).sum())
    contrast = float((((ii - jj) ** 2) * p).sum())
    cov = float((ii * jj * p).sum()) - mu_x * mu_y
    correlation = 0.0 if var_x == 0.0 or var_y == 0.0 else cov / np.sqrt(var_x * var_y)

    pooled = 0.5 * (px + py)
    mu = float(i @ pooled)
    variance = float(((i - mu) ** 2) @ pooled)

    idm = float((p / (1.0 + (ii - jj) ** 2)).sum())

    ks = np.arange(2 * g - 1, dtype=np.float64)
    sum_average = float(ks @ psum)
    sum_variance = float(((ks - sum_average) ** 2) @ psum)
    sum_entropy = _entropy(psum)

    entropy = _entropy(p)

    kd = np.arange(g, dtype=np.float64)
    diff_mean = float(kd @ pdiff)
    diff_variance = float(((kd - diff_mean) ** 2) @ pdiff)
    diff_entropy = _entropy(pdiff)

    outer = np.outer(px, py)
    mask = p > 0  # p(i,j) > 0 implies px(i)py(j) > 0
    hxy1 = float(-(p[mask] * np.log(outer[mask])).sum())
    hxy2 = _entropy(outer)
    hx, hy = _entropy(px), _entropy(py)
    denom = max(hx, hy)
    imc1 = 0.0 if denom == 0.0 else (entropy - hxy1) / denom
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy)))))

    values = [
        asm,
        contrast,
        correlation,
        variance,
        idm,
        sum_average,
        sum_variance,
        sum_entropy,
        entropy,
        diff_variance,
        diff_entropy,
        imc1,
        imc2,
    ]
    return FeatureVector(HARALICK_NAMES, np.array(values))


def _line_views(pixels: np.ndarray, dx: int, dy: int):
    """Decompose the image into the 1-D lines running along (dx, dy)."""
    h, w = pixels.shape
    if (dx, dy) == (1, 0):
        return [pixels[y] for y in range(h)]
    if (dx, dy) == (0, 1):
        return [pixels[:, x] for x in range(w)]
    if (dx, dy) == (1, 1):
        return [pixels.diagonal(o) for o in range(-(h - 1), w)]
    if (dx, dy) == (1, -1):
        flipped = np.flipud(pixels)
        return [flipped.diagonal(o) for o in range(-(h - 1), w)]
    raise ValueError(f"unsupported run direction ({dx},{dy})")


def compute_glrlm(img: GrayImage, dx: int, dy: int) -> Glrlm:
    """Count maximal constant-gray runs along one of the four directions.

    Every pixel belongs to exactly one maximal run, so the run lengths
    weighted by count always sum to the pixel count.
    """
    lines = _line_views(img.pixels, dx, dy)
    levels = img.max_val + 1
    h, w = img.pixels.shape
    max_run = max(h, w)
    r = np.zeros((levels, max_run), dtype=np.int64)
    for line in lines:
        n = line.size
        if n == 0:
            continue
        boundaries = np.flatnonzero(np.diff(line)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        np.add.at(r, (line[starts], ends - starts - 1), 1)
    return Glrlm(levels=levels, max_run=max_run, r=r, direction=(dx, dy), n_pixels=h * w)


def runlength_features(glrlm: Glrlm) -> FeatureVector:
    """The 7 run-length statistics.

    sre / lre   short/long run emphasis (inverse/direct squared length)
    gln / rln   gray-level / run-length non-uniformity
    rp          run percentage: total runs over total pixels
    lgre / hgre low/high gray emphasis, gray levels indexed from 1
    """
    r = glrlm.r.astype(np.float64)
    n_runs = r.sum()
    if n_runs == 0:
        raise ValueError("empty run-length matrix")
    lengths = np.arange(1, glrlm.max_run + 1, dtype=np.float64)
    grays = np.arange(1, glrlm.levels + 1, dtype=np.float64)
    by_gray = r.sum(axis=1)
    by_len = r.sum(axis=0)
    values = [
        (by_len / lengths**2).sum() / n_runs,
        (by_len * lengths**2).sum() / n_runs,
        (by_gray**2).sum() / n_runs,
        (by_len**2).sum() / n_runs,
        n_runs / glrlm.n_pixels,
        (by_gray / grays**2).sum() / n_runs,
        (by_gray * grays**2).sum() / n_runs,
    ]
    return FeatureVector(RUNLENGTH_NAMES, np.array(values))


def compute_gldm(img: GrayImage, dx: int, dy: int) -> Gldm:
    """Distribution of absolute gray differences at offset (dx, dy)."""
    if (dx, dy) == (0, 0):
        raise ValueError("offset must be nonzero")
    levels = img.max_val + 1
    a, b = _offset_pairs(img.pixels, dx, dy)
    if a is None:
        raise ValueError("no pixel pair fits the offset")
    diffs = np.abs(a.astype(np.int64) - b)
    d = np.bincount(diffs, minlength=levels).astype(np.float64) / diffs.size
    return Gldm(levels=levels, d=d, offset=(dx, dy))


def gldm_features(gldm: Gldm) -> FeatureVector:
    """Mean, contrast, angular second moment, entropy and inverse difference
    moment of the gray-difference distribution."""
    d = gldm.d
    k = np.arange(gldm.levels, dtype=np.float64)
    values = [
        float(k @ d),
        float((k**2) @ d),
        float((d**2).sum()),
        _entropy(d),
        float((d / (k**2 + 1.0)).sum()),
    ]
    return FeatureVector(GLDM_NAMES, np.array(values))


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for the full texture extraction pass."""

    levels: int = 16
    distance: int = 1
    symmetric: bool = False

    def __post_init__(self):
        if not 2 <= self.levels <= _MAX_LEVELS:
            raise ValueError(f"levels must be in [2, {_MAX_LEVELS}]")
        if self.distance < 1:
            raise ValueError("distance must be >= 1")


FEATURE_NAMES = (
    tuple(f"glcm.{n}" for n in HARALICK_NAMES)
    + tuple(f"rl.{n}" for n in RUNLENGTH_NAMES)
    + tuple(f"gldm.{n}" for n in GLDM_NAMES)
)


def extract_all(img: GrayImage, cfg: ExtractionConfig | None = None) -> FeatureVector:
    """Quantize, run all three matrix families per direction, average the
    features over directions and concatenate.

    The output schema is fixed: the 13 "glcm." statistics, then the 7
    "rl." statistics, then the 5 "gldm." statistics (see FEATURE_NAMES).
    Images already at or below the target depth are used as-is.
    """
    if cfg is None:
        cfg = ExtractionConfig()
    q = img if img.max_val + 1 <= cfg.levels else quantize(img, cfg.levels)
    per_direction = []
    for ux, uy in DIRECTIONS:
        off = (ux * cfg.distance, uy * cfg.distance)
        glcm = haralick_features(compute_glcm(q, off[0], off[1], symmetric=cfg.symmetric))
        rl = runlength_features(compute_glrlm(q, ux, uy))
        gd = gldm_features(compute_gldm(q, off[0], off[1]))
        per_direction.append(np.concatenate([glcm.values, rl.values, gd.values]))
    return FeatureVector(FEATURE_NAMES, np.mean(per_direction, axis=0))
