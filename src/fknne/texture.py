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
fixed-schema feature vector per image. Each direction's runs are found once and
kept only as marginals (runs per gray and per length) and a table of consecutive
run pairs. At distance 1 every co-occurring pixel pair is two neighbours on one
run line, so that table also gives the direction's pair counts: pairs of
different grays are run boundaries, and pairs of gray g number its pixels minus
its runs. At larger distances the pairs are counted from pixels coded once as
``gray * levels``. The statistics of all four directions then come from one pass
over the stacks, the code the public ``*_features`` run on a stack of one.
Stacked forms keep the bits of one matrix alone: one bincount over row-offset
codes, sums over the contiguous last axis, (n, 1, g) @ (g, 1) matmuls (one BLAS
dot per row), and one reduce per row for the ragged sums over positive entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .ingestion import GrayImage, _check_bool, _check_int, quantize

# Direction set used throughout: right, down-right, down, up-right.
# dx is a column offset, dy a row offset (top-left raster origin).
DIRECTIONS = ((1, 0), (1, 1), (0, 1), (1, -1))

HARALICK_NAMES = ("asm", "contrast", "correlation", "variance", "idm", "sum_average",
                  "sum_variance", "sum_entropy", "entropy", "diff_variance", "diff_entropy",
                  "imc1", "imc2")

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
        _check_probability(p[None], self.symmetric)
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
        r = np.array(self.r)
        if r.shape != (self.levels, self.max_run) or not np.issubdtype(r.dtype, np.integer):
            raise ValueError("r must be a levels x max_run integer matrix")
        if (r < 0).any():
            raise ValueError("run counts must be non-negative")
        _check_coverage(r.sum(axis=0)[None], self.n_pixels)
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
        _check_probability(d[None])
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


def _check_probability(x: np.ndarray, symmetric: bool = False) -> None:
    """Check a stack of GLCM p's (n, g, g) or GLDM d's (n, g); raise for the first failing."""
    flat = x.reshape(len(x), -1)
    off = (flat < 0).any(axis=1) | (np.abs(flat.sum(axis=1) - 1.0) > 1e-9)
    skew = symmetric and ~np.isclose(x, np.swapaxes(x, 1, 2), atol=1e-12).all(axis=(1, 2))
    for k in np.flatnonzero(off | skew)[:1]:
        if not off[k]:
            raise ValueError("symmetric GLCM must equal its transpose")
        name = "p must be a probability matrix" if x.ndim == 3 else "d must be a probability vector"
        raise ValueError(f"{name} summing to 1")


def _check_coverage(by_len: np.ndarray, n_pixels: int) -> None:
    """Every pixel lies in one maximal run: check each row of runs per length (n, max_run)."""
    covered = (by_len * np.arange(1, by_len.shape[1] + 1)).sum(axis=1)
    for c in covered[covered != n_pixels][:1]:
        raise ValueError(f"runs cover {int(c)} pixels, expected {n_pixels}")


@cache
def _grids(g: int, n: int = 1) -> SimpleNamespace:
    """Index grids of a g-level matrix, raveled, built on first use. The i + j and |i - j|
    bins of a stack of n are offset by row, so one bincount sums each row as alone."""
    i = np.arange(g, dtype=np.float64)
    ii, jj = (a.ravel() for a in np.indices((g, g)))
    rows, sq = np.arange(n)[:, None], (ii - jj) ** 2
    return SimpleNamespace(i=i, sums=(ii + jj + (2 * g - 1) * rows).ravel(),
                           diffs=(np.abs(ii - jj) + g * rows).ravel(), sq=sq, prod=ii * jj,
                           idm=1.0 + sq, ks=np.arange(2 * g - 1, dtype=np.float64),
                           k2=i**2, k2_1=i**2 + 1.0, grays=i + 1.0)


def _levels(img: GrayImage) -> int:
    """The level count of a quantized image, at most 64."""
    levels = img.max_val + 1
    if levels > _MAX_LEVELS:
        raise ValueError(f"image must be quantized to <= {_MAX_LEVELS} levels")
    return levels


def _coded(img: GrayImage) -> tuple[np.ndarray, np.ndarray, int]:
    """The pixels, their uint16 codes gray * levels (below 4096) and the level count."""
    levels = _levels(img)
    return img.pixels, np.multiply(img.pixels, levels, dtype=np.uint16), levels


def _window(shape: tuple[int, int], dx: int, dy: int) -> tuple[int, int, int, int]:
    """Rows y0:y1 and columns x0:x1 of the pixels p with p + (dx, dy) in the image."""
    h, w = shape
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        raise ValueError("empty co-occurrence: no pixel pair fits the offset")
    return y0, y1, x0, x1


def _glcm(pixels: np.ndarray, codes: np.ndarray, levels: int, dx: int, dy: int, symmetric: bool):
    """int64 counts of (gray at p, gray at p + (dx, dy)), reversed too if symmetric."""
    if (dx, dy) == (0, 0):
        raise ValueError("offset must be nonzero")
    y0, y1, x0, x1 = _window(pixels.shape, dx, dy)
    # uint16 + uint8 stays uint16 under value-based promotion and NEP 50 alike.
    pairs = codes[y0:y1, x0:x1] + pixels[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    counts = np.bincount(pairs.ravel(), minlength=levels * levels).reshape(levels, levels)
    return counts + counts.T if symmetric else counts


def compute_glcm(img: GrayImage, dx: int, dy: int, symmetric: bool = False) -> Glcm:
    """Count gray pairs at offset (dx, dy) and normalize to probabilities.

    The image must already be quantized (max_val + 1 <= 64 levels). With
    ``symmetric`` each pair is also counted in reverse, making p its own
    transpose.
    """
    counts = _glcm(*_coded(img), dx, dy, symmetric)
    counts.flags.writeable = False
    return Glcm(len(counts), counts / counts.sum(), (dx, dy), symmetric, counts)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a @ b of stacks of rows (or one shared row), one BLAS dot per row as a
    1-D a @ b makes; an (n, g) @ (g,) product, einsum or (a * b).sum(-1) sum otherwise."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _plogs(*pairs) -> np.ndarray:
    """Row sums of q * log(r) where q > 0, a column per (q, r) pair of (n, k) stacks
    (minus an entropy if r = q). Each row's terms are summed by one reduce over its
    slice, in the order of q[q > 0].sum(); np.add.reduceat sums in another."""
    q = np.concatenate([q for q, _ in pairs], axis=1)
    mask = q > 0  # natural log with the 0*log(0) = 0 convention
    terms = q[mask] * np.log(np.concatenate([r for _, r in pairs], axis=1)[mask])
    edges = np.cumsum([0] + [q.shape[1] for q, _ in pairs[:-1]])
    ends = np.cumsum(np.add.reduceat(mask, edges, axis=1, dtype=np.intp)).tolist()
    sums = [np.add.reduce(terms[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return np.array(sums).reshape(len(q), len(pairs))


def _haralick(p: np.ndarray) -> np.ndarray:
    """The 13 statistics of each matrix of a stack p (n, g, g), one row each."""
    n, g = p.shape[:2]
    G, flat = _grids(g, n), p.reshape(n, -1)
    px, py = p.sum(axis=2), p.sum(axis=1)
    psum = np.bincount(G.sums, weights=flat.ravel()).reshape(n, -1)
    pdiff = np.bincount(G.diffs, weights=flat.ravel()).reshape(n, -1)
    # Means and variances of px, py, the pooled marginal (px+py)/2 and the |i-j| distribution.
    m = np.stack([px, py, 0.5 * (px + py), pdiff])
    mu_x, mu_y, mu, diff_mean = means = _dot(G.i, m)
    var_x, var_y, variance, diff_variance = _dot((G.i - means[..., None]) ** 2, m)
    sum_average = _dot(G.ks, psum)
    sum_variance = _dot((G.ks - sum_average[:, None]) ** 2, psum)
    asm, contrast, prod, idm = np.stack([flat**2, G.sq * flat, G.prod * flat, flat / G.idm]).sum(2)
    cov = prod - mu_x * mu_y
    # A marginal on one gray has variance 0, though its float sum may round above 0.
    degenerate = ((px > 0).sum(axis=1) == 1) | ((py > 0).sum(axis=1) == 1)
    correlation = np.where(degenerate, 0.0, cov / np.sqrt(np.where(degenerate, 1, var_x * var_y)))
    outer = (px[:, :, None] * py[:, None, :]).reshape(n, -1)
    # p(i,j) > 0 implies px(i)py(j) > 0, so hxy1 takes no log of 0.
    pairs = ((psum, psum), (flat, flat), (pdiff, pdiff), (outer, outer), (px, px), (py, py))
    sum_entropy, entropy, diff_entropy, hxy2, hx, hy, hxy1 = -_plogs(*pairs, (flat, outer)).T
    denom = np.maximum(hx, hy)
    imc1 = np.where(denom == 0.0, 0.0, (entropy - hxy1) / np.where(denom == 0.0, 1.0, denom))
    imc2 = np.sqrt(np.maximum(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy))))
    return np.stack([asm, contrast, correlation, variance, idm, sum_average, sum_variance,
                     sum_entropy, entropy, diff_variance, diff_entropy, imc1, imc2], axis=1)


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
    return FeatureVector(HARALICK_NAMES, _haralick(glcm.p[None])[0])


def _runs(p: np.ndarray, levels: int, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray and length of every maximal run along (dx, dy), in buffer order: each
    line's runs in the order (dx, dy) steps through them, followed by a separator
    run of gray ``levels`` and length 0."""
    if (dx, dy) not in DIRECTIONS:
        raise ValueError(f"unsupported run direction ({dx},{dy})")
    # Each line of (dx, dy) becomes part of a row of a one-byte buffer, cut off from the
    # next line by cells of gray `levels`, above every quantized gray.
    if dx * dy == 0:
        q = p if dy == 0 else p.T
        buf = np.full((q.shape[0], q.shape[1] + 1), levels, np.uint8)
        buf[:, :-1] = q
        flat = buf.ravel()
    else:
        # The (1, 1) lines of p, reversed, are the (1, -1) lines x + y = c of p[::-1], and
        # a transpose keeps x + y. With s = min(h, w) rows in q, t rows of s + 2 cells hold
        # line c < t at columns y, then a separator, then line c + t at columns y + 1. So
        # q[y, x] goes to cell x(s + 2) + y(s + 3) modulo m, the buffer's length: written
        # unwrapped in 2m cells, whose halves never share a written cell, and folded.
        # A line is written from (x, y) to (x - 1, y + 1) of q, which is (dx, dy) of p
        # after the transpose; without it, a half turn (lines x + y = c, each reversed)
        # makes it so.
        q = p[::-1] if dx * dy > 0 else p
        q = q.T if q.shape[0] > q.shape[1] else q[::-1, ::-1]
        s, t = q.shape
        m = t * (s + 2) - 1
        buf = np.full(2 * m, levels, np.uint8)
        as_strided(buf, (s, t), (s + 3, s + 2))[...] = q
        flat = np.minimum(buf[:m], buf[m:])
    # Each run's start, then the buffer's end.
    change = np.ones(flat.size + 1, bool)
    np.not_equal(flat[1:], flat[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    grays = flat[bounds[:-1]]
    lengths = bounds[1:] - bounds[:-1]
    lengths[grays == levels] = 0
    return grays, lengths


def _run_pairs(grays: np.ndarray, levels: int, per_gray: np.ndarray):
    """Unit-offset pair counts (levels x levels int64) along the direction of runs
    from ``_runs``, and the runs per gray, given the pixels per gray.

    Neighbours of different grays on a line are the ends of consecutive runs;
    a pair touching a separator falls in the last row or column of the
    (levels + 1)-square table of consecutive run grays, which is dropped. Every
    run but the buffer's last is followed by one, so a row sums to the runs of its
    gray, and a run of gray g and length l holds l - 1 pairs (g, g)."""
    edge = levels + 1
    # uint16 products of uint8 grays plus a uint8 gray: below 65 * 65, and uint16
    # under value-based promotion and NEP 50 alike.
    codes = np.multiply(grays[:-1], edge, dtype=np.uint16) + grays[1:]
    table = np.bincount(codes, minlength=edge * edge).reshape(edge, edge)
    by_gray = table[:levels].sum(axis=1)
    counts = table[:levels, :levels]
    np.fill_diagonal(counts, per_gray - by_gray)
    return counts, by_gray


def compute_glrlm(img: GrayImage, dx: int, dy: int) -> Glrlm:
    """Count maximal constant-gray runs along one of the four directions.

    Every pixel belongs to exactly one maximal run, so the run lengths
    weighted by count always sum to the pixel count. The image must already
    be quantized (max_val + 1 <= 64 levels).
    """
    levels, width = _levels(img), max(img.pixels.shape) + 1
    grays, lengths = _runs(img.pixels, levels, dx, dy)
    cells = np.multiply(grays, width, dtype=np.int64) + lengths
    r = np.bincount(cells, minlength=(levels + 1) * width).reshape(levels + 1, width)[:levels, 1:]
    return Glrlm(levels, width - 1, r, (dx, dy), img.pixels.size)


def _runlength(by_gray: np.ndarray, by_len: np.ndarray, n_pixels: int) -> np.ndarray:
    """The 7 statistics of each row of stacked run counts per gray (n, levels)
    and per length (n, max_run): integers, so their float sums are exact."""
    by_gray, by_len = np.asarray(by_gray, np.float64), np.asarray(by_len, np.float64)
    n_runs = by_gray.sum(axis=1)
    if (n_runs == 0).any():
        raise ValueError("empty run-length matrix")
    l2, g2 = np.arange(1, by_len.shape[1] + 1.0) ** 2, _grids(by_gray.shape[1]).grays ** 2
    sre, lre, gln, rln, lgre, hgre = np.stack([  # one max_run-wide temporary at a time
        (by_len / l2).sum(1), (by_len * l2).sum(1), (by_gray**2).sum(1), (by_len**2).sum(1),
        (by_gray / g2).sum(1), (by_gray * g2).sum(1)]) / n_runs
    return np.stack([sre, lre, gln, rln, n_runs / n_pixels, lgre, hgre], axis=1)


def runlength_features(glrlm: Glrlm) -> FeatureVector:
    """The 7 run-length statistics.

    sre / lre   short/long run emphasis (inverse/direct squared length)
    gln / rln   gray-level / run-length non-uniformity
    rp          run percentage: total runs over total pixels
    lgre / hgre low/high gray emphasis, gray levels indexed from 1
    """
    by_gray, by_len = glrlm.r.sum(axis=1)[None], glrlm.r.sum(axis=0)[None]
    return FeatureVector(RUNLENGTH_NAMES, _runlength(by_gray, by_len, glrlm.n_pixels)[0])


def _gldm(counts: np.ndarray) -> np.ndarray:
    """The |i-j| distribution of each pair-count matrix of a stack (n, g, g). Integer weights
    sum exactly in float64: bit for bit the pixel differences counted one by one."""
    n, flat = len(counts), counts.reshape(len(counts), -1)
    d = np.bincount(_grids(counts.shape[1], n).diffs, weights=flat.ravel()).reshape(n, -1)
    return d / flat.sum(axis=1)[:, None]


def compute_gldm(img: GrayImage, dx: int, dy: int) -> Gldm:
    """Distribution of absolute gray differences at offset (dx, dy): the
    |i-j| marginal of the pair counts."""
    d = _gldm(_glcm(*_coded(img), dx, dy, False)[None])[0]
    return Gldm(levels=len(d), d=d, offset=(dx, dy))


def _gldm_stats(d: np.ndarray) -> np.ndarray:
    """The 5 statistics of each distribution of a stack d (n, g), one row each."""
    G = _grids(d.shape[1])
    return np.stack([_dot(G.i, d), _dot(G.k2, d), (d**2).sum(axis=1), -_plogs((d, d))[:, 0],
                     (d / G.k2_1).sum(axis=1)], axis=1)


def gldm_features(gldm: Gldm) -> FeatureVector:
    """Mean, contrast, angular second moment, entropy and inverse difference
    moment of the gray-difference distribution."""
    return FeatureVector(GLDM_NAMES, _gldm_stats(gldm.d[None])[0])


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
        _check_bool("symmetric", self.symmetric)


FEATURE_NAMES = tuple([f"glcm.{n}" for n in HARALICK_NAMES] + [f"rl.{n}" for n in RUNLENGTH_NAMES]
                      + [f"gldm.{n}" for n in GLDM_NAMES])


def extract_all(img: GrayImage, cfg: ExtractionConfig | None = None) -> FeatureVector:
    """Quantize, run all three matrix families per direction, average the
    features over directions and concatenate.

    The output schema is fixed: the 13 "glcm." statistics, then the 7
    "rl." statistics, then the 5 "gldm." statistics (see FEATURE_NAMES).
    Images already at or below the target depth are used as-is.
    """
    cfg = ExtractionConfig() if cfg is None else cfg
    q = img if img.max_val + 1 <= cfg.levels else quantize(img, cfg.levels)
    pixels, levels = q.pixels, _levels(q)
    codes = _coded(q)[1] if cfg.distance > 1 else None
    n, max_run = len(DIRECTIONS), max(pixels.shape)
    counts = np.empty((n, levels, levels), np.int64)
    by_gray = np.empty((n, levels), np.int64)
    by_len = np.empty((n, max_run))  # float64 holds these integers exactly
    for k, (ux, uy) in enumerate(DIRECTIONS):
        grays, lengths = _runs(pixels, levels, ux, uy)
        if k == 0:  # every pixel lies in one run of each direction
            per_gray = np.bincount(grays, weights=lengths)[:levels].astype(np.int64)
        unit, by_gray[k] = _run_pairs(grays, levels, per_gray)
        by_len[k] = np.bincount(lengths, minlength=max_run + 1)[1:]
        if codes is None:
            _window(pixels.shape, ux, uy)  # raises if no pair fits
            counts[k] = unit + unit.T if cfg.symmetric else unit
        else:
            off = (ux * cfg.distance, uy * cfg.distance)
            counts[k] = _glcm(pixels, codes, levels, *off, cfg.symmetric)
    del grays, lengths  # the statistics need only the marginals
    p = counts / counts.sum(axis=(1, 2))[:, None, None]
    _check_probability(p, cfg.symmetric)
    _check_coverage(by_len, pixels.size)
    d = _gldm(counts)
    _check_probability(d)
    rows = np.hstack([_haralick(p), _runlength(by_gray, by_len, pixels.size), _gldm_stats(d)])
    return FeatureVector(FEATURE_NAMES, np.mean(rows, axis=0))
