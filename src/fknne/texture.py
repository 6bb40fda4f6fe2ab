"""Texture matrices and the scalar statistics derived from them.

Three matrix families are built from a quantized gray image:

* co-occurrence (GLCM): joint probability of gray pairs at a pixel offset,
* run-length (GLRLM): counts of maximal constant-gray runs by level/length,
* gray difference (GLDM): distribution of |gray difference| at an offset.

The GLDM is the |i-j| marginal of the GLCM's integer pair counts, so
``gldm.contrast``, ``gldm.idm`` and ``gldm.entropy`` equal ``glcm.contrast``,
``glcm.idm`` and ``glcm.diff_entropy`` in exact arithmetic. All three stay:
the paper's 25-feature schema, and so every distance, includes them.

``extract_all`` averages them over the four standard directions into one
fixed-schema feature vector per image, in one pass: pixels coded once as uint16
``gray * levels``, index grids kept per level count, one row of statistics per
direction. Statistics and runs stay per direction, in the kernels the public
functions wrap: batching four directions' dot products or row sums changes the
summation order and so the last bits, and one four-direction run buffer was slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .ingestion import GrayImage, _check_int, quantize

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
        if name not in self.names:
            raise KeyError(f"unknown feature {name!r}")
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
    counts: np.ndarray | None = None  # integer pair counts behind p, set by compute_glcm

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (self.levels, self.levels):
            raise ValueError("p must be a levels x levels matrix")
        _check_probability(p, self.symmetric)
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
        _check_runs(r, self.levels, self.max_run, self.n_pixels)
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
        _check_probability(d)
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


def _check_probability(x: np.ndarray, symmetric: bool = False) -> None:
    """Check a GLCM's p (2-D) or a GLDM's d (1-D)."""
    if (x < 0).any() or abs(x.sum() - 1.0) > 1e-9:
        name = "p must be a probability matrix" if x.ndim == 2 else "d must be a probability vector"
        raise ValueError(f"{name} summing to 1")
    if symmetric and not np.allclose(x, x.T, atol=1e-12):
        raise ValueError("symmetric GLCM must equal its transpose")


def _check_runs(r: np.ndarray, levels: int, max_run: int, n_pixels: int) -> None:
    if r.shape != (levels, max_run) or not np.issubdtype(r.dtype, np.integer):
        raise ValueError("r must be a levels x max_run integer matrix")
    if (r < 0).any():
        raise ValueError("run counts must be non-negative")
    covered = int((r * np.arange(1, max_run + 1)).sum())
    if covered != n_pixels:
        raise ValueError(f"runs cover {covered} pixels, expected {n_pixels}")


@cache
def _grids(g: int) -> SimpleNamespace:
    """Index grids of a g-level matrix, built on first use of each g."""
    i = np.arange(g, dtype=np.float64)
    ii, jj = np.indices((g, g))
    sq = (ii - jj) ** 2
    return SimpleNamespace(i=i, sums=(ii + jj).ravel(), diffs=np.abs(ii - jj).ravel(), sq=sq,
                           prod=ii * jj, idm=1.0 + sq, ks=np.arange(2 * g - 1, dtype=np.float64),
                           k2=i**2, k2_1=i**2 + 1.0, grays=i + 1.0)


def _coded(img: GrayImage) -> tuple[np.ndarray, np.ndarray, int]:
    """The pixels, their uint16 codes gray * levels (below 4096) and the level count."""
    levels = _levels(img)
    return img.pixels, np.multiply(img.pixels, levels, dtype=np.uint16), levels


def _levels(img: GrayImage) -> int:
    if img.max_val + 1 > _MAX_LEVELS:
        raise ValueError(f"image must be quantized to <= {_MAX_LEVELS} levels")
    return img.max_val + 1


def _glcm(pixels: np.ndarray, codes: np.ndarray, levels: int, dx: int, dy: int, symmetric: bool):
    """int64 counts of (gray at p, gray at p + (dx, dy)), reversed too if symmetric, and p."""
    if (dx, dy) == (0, 0):
        raise ValueError("offset must be nonzero")
    h, w = pixels.shape
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("empty co-occurrence: no pixel pair fits the offset")
    # uint16 + uint8 stays uint16 under value-based promotion and NEP 50 alike.
    pairs = codes[y0:y1, x0:x1] + pixels[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    counts = np.bincount(pairs.ravel(), minlength=levels * levels).reshape(levels, levels)
    if symmetric:
        counts = counts + counts.T
    p = counts / counts.sum()
    _check_probability(p, symmetric)
    return counts, p


def compute_glcm(img: GrayImage, dx: int, dy: int, symmetric: bool = False) -> Glcm:
    """Count gray pairs at offset (dx, dy) and normalize to probabilities.

    The image must already be quantized (max_val + 1 <= 64 levels). With
    ``symmetric`` each pair is also counted in reverse, making p its own
    transpose.
    """
    counts, p = _glcm(*_coded(img), dx, dy, symmetric)
    counts.flags.writeable = False
    return Glcm(len(counts), p, (dx, dy), symmetric, counts)


def _entropy(q: np.ndarray) -> float:
    nz = q[q > 0]  # natural log with the 0*log(0) = 0 convention
    return float(-(nz * np.log(nz)).sum())


def _haralick(p: np.ndarray) -> list:
    G = _grids(len(p))
    i = G.i
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float(i @ px)
    mu_y = float(i @ py)
    var_x = float(((i - mu_x) ** 2) @ px)
    var_y = float(((i - mu_y) ** 2) @ py)

    psum = np.bincount(G.sums, weights=p.ravel(), minlength=2 * len(p) - 1)
    pdiff = np.bincount(G.diffs, weights=p.ravel(), minlength=len(p))

    asm = float((p**2).sum())
    contrast = float((G.sq * p).sum())
    cov = float((G.prod * p).sum()) - mu_x * mu_y
    # A marginal on one gray has variance 0, though its float sum may round above 0.
    degenerate = np.count_nonzero(px) == 1 or np.count_nonzero(py) == 1
    correlation = 0.0 if degenerate else cov / np.sqrt(var_x * var_y)

    pooled = 0.5 * (px + py)
    mu = float(i @ pooled)
    variance = float(((i - mu) ** 2) @ pooled)

    idm = float((p / G.idm).sum())

    sum_average = float(G.ks @ psum)
    sum_variance = float(((G.ks - sum_average) ** 2) @ psum)
    sum_entropy = _entropy(psum)

    entropy = _entropy(p)

    diff_mean = float(i @ pdiff)
    diff_variance = float(((i - diff_mean) ** 2) @ pdiff)
    diff_entropy = _entropy(pdiff)

    outer = np.outer(px, py)
    mask = p > 0  # p(i,j) > 0 implies px(i)py(j) > 0
    hxy1 = float(-(p[mask] * np.log(outer[mask])).sum())
    hxy2 = _entropy(outer)
    hx, hy = _entropy(px), _entropy(py)
    denom = max(hx, hy)
    imc1 = 0.0 if denom == 0.0 else (entropy - hxy1) / denom
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy)))))

    return [asm, contrast, correlation, variance, idm, sum_average, sum_variance, sum_entropy,
            entropy, diff_variance, diff_entropy, imc1, imc2]


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
    return FeatureVector(HARALICK_NAMES, _haralick(glcm.p))


def _runs(p: np.ndarray, levels: int, dx: int, dy: int) -> np.ndarray:
    if (dx, dy) not in DIRECTIONS:
        raise ValueError(f"unsupported run direction ({dx},{dy})")
    h, w = p.shape
    max_run = max(h, w)
    # Each line of (dx, dy) becomes one column of a one-byte buffer, above a row of
    # 255: no quantized gray is 255, so no run crosses lines, and the runs of 255 are
    # dropped. The (1, 1) lines of p, reversed, are the (1, -1) lines x + y = c of
    # p[::-1], and a transpose keeps x + y. So the rows of the shorter side are sheared,
    # row y right by y, putting line c in column c of (min(h, w) + 1) * (h + w - 1) cells.
    shear = int(dx * dy != 0)
    q = p.T if dy == 0 else p[::-1] if dx * dy > 0 else p
    q = q.T if shear and h > w else q
    s, t = q.shape
    buf = np.full((s + 1, t + shear * (s - 1)), 255, np.uint8)
    buf.reshape(-1)[: s * (t + shear * s)].reshape(s, -1)[:, :t] = q
    flat = buf.T.ravel()
    change = np.ones(flat.size, bool)
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    # The buffer's last cell is a 255, so each counted run ends where the next starts.
    grays = flat[starts[:-1]]
    cells = np.multiply(grays, max_run, dtype=np.int64) + np.diff(starts) - 1
    r = np.bincount(cells[grays != 255], minlength=levels * max_run).reshape(levels, max_run)
    _check_runs(r, levels, max_run, h * w)
    return r


def compute_glrlm(img: GrayImage, dx: int, dy: int) -> Glrlm:
    """Count maximal constant-gray runs along one of the four directions.

    Every pixel belongs to exactly one maximal run, so the run lengths
    weighted by count always sum to the pixel count. The image must already
    be quantized (max_val + 1 <= 64 levels).
    """
    r = _runs(img.pixels, _levels(img), dx, dy)
    return Glrlm(len(r), r.shape[1], r, (dx, dy), img.pixels.size)


def _runlength(r: np.ndarray, n_pixels: int) -> list:
    r = r.astype(np.float64)
    n_runs = r.sum()
    if n_runs == 0:
        raise ValueError("empty run-length matrix")
    lengths = np.arange(1, r.shape[1] + 1, dtype=np.float64)
    grays = _grids(len(r)).grays
    by_gray = r.sum(axis=1)
    by_len = r.sum(axis=0)
    return [(by_len / lengths**2).sum() / n_runs, (by_len * lengths**2).sum() / n_runs,
            (by_gray**2).sum() / n_runs, (by_len**2).sum() / n_runs, n_runs / n_pixels,
            (by_gray / grays**2).sum() / n_runs, (by_gray * grays**2).sum() / n_runs]


def runlength_features(glrlm: Glrlm) -> FeatureVector:
    """The 7 run-length statistics.

    sre / lre   short/long run emphasis (inverse/direct squared length)
    gln / rln   gray-level / run-length non-uniformity
    rp          run percentage: total runs over total pixels
    lgre / hgre low/high gray emphasis, gray levels indexed from 1
    """
    return FeatureVector(RUNLENGTH_NAMES, _runlength(glrlm.r, glrlm.n_pixels))


def _gldm(counts: np.ndarray) -> np.ndarray:
    # Integer weights sum exactly in float64, so this equals counting the
    # pixel differences one by one, bit for bit.
    d = np.bincount(_grids(len(counts)).diffs, weights=counts.ravel(), minlength=len(counts))
    d = d / counts.sum()
    _check_probability(d)
    return d


def compute_gldm(img: GrayImage, dx: int, dy: int) -> Gldm:
    """Distribution of absolute gray differences at offset (dx, dy): the
    |i-j| marginal of the pair counts."""
    d = _gldm(_glcm(*_coded(img), dx, dy, False)[0])
    return Gldm(levels=len(d), d=d, offset=(dx, dy))


def _gldm_stats(d: np.ndarray) -> list:
    G = _grids(len(d))
    return [float(G.i @ d), float(G.k2 @ d), float((d**2).sum()), _entropy(d),
            float((d / G.k2_1).sum())]


def gldm_features(gldm: Gldm) -> FeatureVector:
    """Mean, contrast, angular second moment, entropy and inverse difference
    moment of the gray-difference distribution."""
    return FeatureVector(GLDM_NAMES, _gldm_stats(gldm.d))


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for the full texture extraction pass."""

    levels: int = 16
    distance: int = 1
    symmetric: bool = False

    def __post_init__(self):
        _check_int("levels", self.levels, 2)
        if self.levels > _MAX_LEVELS:
            raise ValueError(f"levels must be in [2, {_MAX_LEVELS}]")
        _check_int("distance", self.distance, 1)


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
    pixels, codes, levels = _coded(q)
    rows = np.empty((len(DIRECTIONS), len(FEATURE_NAMES)))
    for row, (ux, uy) in zip(rows, DIRECTIONS):
        off = (ux * cfg.distance, uy * cfg.distance)
        counts, p = _glcm(pixels, codes, levels, *off, cfg.symmetric)
        row[:13] = _haralick(p)
        row[13:20] = _runlength(_runs(pixels, levels, ux, uy), pixels.size)
        row[20:] = _gldm_stats(_gldm(counts))
    return FeatureVector(FEATURE_NAMES, np.mean(rows, axis=0))
