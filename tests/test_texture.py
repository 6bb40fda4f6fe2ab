"""Texture matrices and feature statistics, checked against hand
enumerations and independent re-implementations.

The oracles below are the per-line run counter and the pixel-difference
GLDM that the one-pass run counter and the GLCM-count marginal replaced,
and the scalar per-direction pair counts and statistics that the one-pass
``extract_all`` replaced. They share no code with ``fknne.texture``, and
the package must reproduce them bit for bit.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fknne import (
    DIRECTIONS,
    FEATURE_NAMES,
    ExtractionConfig,
    FeatureVector,
    Gldm,
    Glrlm,
    GrayImage,
    compute_glcm,
    compute_gldm,
    compute_glrlm,
    extract_all,
    gldm_features,
    haralick_features,
    quantize,
    runlength_features,
)
from fknne import texture
from fknne.texture import (
    HARALICK_NAMES,
    _gldm,
    _gldm_stats,
    _haralick,
    _run_pairs,
    _runlength,
    _runs,
)

EXAMPLE_3X3 = GrayImage([[0, 0, 1], [0, 0, 1], [0, 2, 2]], 2)


def random_quantized(rng, shape=(8, 8), levels=4) -> GrayImage:
    return GrayImage(rng.integers(0, levels, size=shape), levels - 1)


def checkerboard(n=6) -> GrayImage:
    return GrayImage(np.indices((n, n)).sum(axis=0) % 2, 1)


def smooth_roi(side, seed) -> GrayImage:
    """8-bit sum of four slow plane waves plus a little noise: long runs,
    pairs near the diagonal and many empty co-occurrence cells."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:side, 0:side] / side
    field = sum(np.sin(2 * np.pi * (a * x + b * y) + c) for a, b, c in rng.uniform(0, 3, (4, 3)))
    field += rng.normal(0.0, 0.05, field.shape)
    return GrayImage(np.clip((field + 4.0) * 32.0, 0, 255).astype(np.int64), 255)


# ---------------------------------------------------------------------------
# Oracles


def oracle_line_views(pixels, dx, dy):
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
    raise AssertionError((dx, dy))


def oracle_glrlm(img, dx, dy):
    h, w = img.pixels.shape
    r = np.zeros((img.max_val + 1, max(h, w)), dtype=np.int64)
    for line in oracle_line_views(img.pixels, dx, dy):
        boundaries = np.flatnonzero(np.diff(line)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [line.size]))
        np.add.at(r, (line[starts], ends - starts - 1), 1)
    return r


def oracle_gldm(img, dx, dy):
    """|gray difference| of every pixel pair at the offset, counted one by
    one; None when no pair fits."""
    h, w = img.pixels.shape
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        return None
    a = img.pixels[y0:y1, x0:x1].ravel()
    b = img.pixels[y0 + dy : y1 + dy, x0 + dx : x1 + dx].ravel()
    diffs = np.abs(a.astype(np.int64) - b)
    return np.bincount(diffs, minlength=img.max_val + 1).astype(np.float64) / diffs.size


def oracle_entropy(q):
    nz = q[q > 0]
    return float(-(nz * np.log(nz)).sum())


def oracle_pair_counts(pixels, levels, dx, dy):
    """levels x levels int64 counts of (gray at p, gray at p + (dx, dy));
    None when no pair fits."""
    h, w = pixels.shape
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        return None
    a = pixels[y0:y1, x0:x1].astype(np.int64)
    b = pixels[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
    return np.bincount((a * levels + b).ravel(), minlength=levels * levels).reshape(levels, levels)


def oracle_glcm(pixels, levels, dx, dy, symmetric):
    """(counts, p), or None when no pair fits."""
    counts = oracle_pair_counts(pixels, levels, dx, dy)
    if counts is None:
        return None
    if symmetric:
        counts = counts + counts.T
    return counts, counts / counts.sum()


def oracle_haralick_features(p):
    g = len(p)
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
    degenerate = np.count_nonzero(px) == 1 or np.count_nonzero(py) == 1
    correlation = 0.0 if degenerate else cov / np.sqrt(var_x * var_y)

    pooled = 0.5 * (px + py)
    mu = float(i @ pooled)
    variance = float(((i - mu) ** 2) @ pooled)

    idm = float((p / (1.0 + (ii - jj) ** 2)).sum())

    ks = np.arange(2 * g - 1, dtype=np.float64)
    sum_average = float(ks @ psum)
    sum_variance = float(((ks - sum_average) ** 2) @ psum)
    sum_entropy = oracle_entropy(psum)

    entropy = oracle_entropy(p)

    diff_mean = float(i @ pdiff)
    diff_variance = float(((i - diff_mean) ** 2) @ pdiff)
    diff_entropy = oracle_entropy(pdiff)

    outer = np.outer(px, py)
    mask = p > 0
    hxy1 = float(-(p[mask] * np.log(outer[mask])).sum())
    hxy2 = oracle_entropy(outer)
    hx, hy = oracle_entropy(px), oracle_entropy(py)
    denom = max(hx, hy)
    imc1 = 0.0 if denom == 0.0 else (entropy - hxy1) / denom
    imc2 = float(np.sqrt(max(0.0, 1.0 - np.exp(-2.0 * (hxy2 - entropy)))))

    return np.array([asm, contrast, correlation, variance, idm, sum_average, sum_variance,
                     sum_entropy, entropy, diff_variance, diff_entropy, imc1, imc2])


def oracle_runlength_features(r, n_pixels):
    levels, max_run = r.shape
    r = r.astype(np.float64)
    n_runs = r.sum()
    lengths = np.arange(1, max_run + 1, dtype=np.float64)
    grays = np.arange(1, levels + 1, dtype=np.float64)
    by_gray = r.sum(axis=1)
    by_len = r.sum(axis=0)
    return np.array([
        (by_len / lengths**2).sum() / n_runs,
        (by_len * lengths**2).sum() / n_runs,
        (by_gray**2).sum() / n_runs,
        (by_len**2).sum() / n_runs,
        n_runs / n_pixels,
        (by_gray / grays**2).sum() / n_runs,
        (by_gray * grays**2).sum() / n_runs,
    ])


def oracle_gldm_from_counts(counts):
    i, j = np.indices(counts.shape)
    d = np.bincount(np.abs(i - j).ravel(), weights=counts.ravel(), minlength=len(counts))
    return d / counts.sum()


def oracle_gldm_features(d):
    k = np.arange(len(d), dtype=np.float64)
    return np.array([
        float(k @ d),
        float((k**2) @ d),
        float((d**2).sum()),
        oracle_entropy(d),
        float((d / (k**2 + 1.0)).sum()),
    ])


def oracle_extract_all(img, cfg):
    q = img if img.max_val + 1 <= cfg.levels else quantize(img, cfg.levels)
    levels = q.max_val + 1
    rows = []
    for ux, uy in DIRECTIONS:
        glcm = oracle_glcm(q.pixels, levels, ux * cfg.distance, uy * cfg.distance, cfg.symmetric)
        if glcm is None:
            raise ValueError("empty co-occurrence: no pixel pair fits the offset")
        counts, p = glcm
        rows.append(np.concatenate([
            oracle_haralick_features(p),
            oracle_runlength_features(oracle_glrlm(q, ux, uy), q.pixels.size),
            oracle_gldm_features(oracle_gldm_from_counts(counts)),
        ]))
    return np.mean(rows, axis=0)


@st.composite
def quantized_images(draw, min_side=1, max_side=20):
    levels = draw(st.integers(2, 64))
    h = draw(st.integers(min_side, max_side))
    w = draw(st.integers(min_side, max_side))
    # A narrow band of grays makes long runs likely.
    top = draw(st.integers(0, levels - 1))
    pixels = draw(arrays(np.int64, (h, w), elements=st.integers(0, top)))
    return GrayImage(pixels, levels - 1)


def count_matrix(rng, g, kind):
    """A g x g pair-count matrix: "sparse" or "dense" cells, "one_row" (px on one
    gray, so correlation 0) or "one_cell" (HX = HY = 0, so imc1 = 0)."""
    counts = rng.integers(1, 1000, (g, g))
    if kind == "sparse":
        counts *= rng.random((g, g)) < rng.uniform(0.01, 0.5)
    elif kind == "one_row":
        counts[np.arange(g) != rng.integers(g)] = 0
    elif kind == "one_cell":
        counts = np.zeros((g, g), np.int64)
        counts[rng.integers(g), rng.integers(g)] = 7
    counts[0, 0] += not counts.any()
    return counts


@st.composite
def count_stacks(draw):
    """Stacks of 1-6 pair-count matrices of one level count, each row of its own
    kind and so with its own number of nonzero cells."""
    g = draw(st.integers(2, 64))
    kinds = draw(st.lists(st.sampled_from(("sparse", "dense", "one_row", "one_cell")),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([count_matrix(rng, g, kind) for kind in kinds])


@st.composite
def run_stacks(draw):
    """Stacks of 1-6 run-length matrices with up to 400 run lengths, some rows
    with a single run."""
    n, levels = draw(st.integers(1, 6)), draw(st.integers(2, 64))
    max_run = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = rng.integers(0, 50, (n, levels, max_run)) * (rng.random((n, levels, max_run)) < 0.3)
    r[:, 0, 0] += ~r.any(axis=(1, 2))
    return r


# 64 levels: 4096-cell rows, past numpy's 128-element pairwise-summation block.
MIXED_64 = np.stack([count_matrix(np.random.default_rng(k), 64, kind)
                     for k, kind in enumerate(("dense", "one_row", "sparse", "one_cell", "dense"))])

EDGE_SHAPES = (GrayImage([[0]], 1), GrayImage([[0, 1, 1, 3, 3, 3]], 3),
               GrayImage([[5], [5], [0], [5]], 7))
directions = st.sampled_from(DIRECTIONS)
# Beyond the strategy's 20-pixel sides: long lines both ways, both diagonals on
# wide and tall images, one run per line, all runs of length 1 along the axes,
# and the top gray of 64 levels next to each line's end.
LONG_SHAPES = tuple(random_quantized(np.random.default_rng(seed), shape, 2)
                    for seed, shape in enumerate([(1, 300), (300, 1), (7, 61), (61, 7)]))
CONSTANT = GrayImage(np.full((9, 14), 5), 7)
GRAY_63 = GrayImage(np.where(np.random.default_rng(4).random((11, 6)) < 0.7, 63, 62), 63)


class TestGlcm:
    def test_hand_enumerated_horizontal_pairs(self):
        g = compute_glcm(EXAMPLE_3X3, 1, 0)
        expected = np.zeros((3, 3))
        expected[0, 0] = 2 / 6
        expected[0, 1] = 2 / 6
        expected[0, 2] = 1 / 6
        expected[2, 2] = 1 / 6
        assert np.array_equal(g.p, expected)

    def test_symmetric_mirrors_counts(self):
        g = compute_glcm(EXAMPLE_3X3, 1, 0, symmetric=True)
        expected = np.zeros((3, 3))
        expected[0, 0] = 4 / 12
        expected[0, 1] = expected[1, 0] = 2 / 12
        expected[0, 2] = expected[2, 0] = 1 / 12
        expected[2, 2] = 2 / 12
        assert np.array_equal(g.p, expected)

    def test_constant_image_single_cell(self):
        g = compute_glcm(GrayImage(np.full((4, 4), 2), 3), 1, 0)
        assert g.p[2, 2] == 1.0
        assert g.p.sum() == 1.0

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            compute_glcm(EXAMPLE_3X3, 0, 0)

    def test_offset_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="empty co-occurrence"):
            compute_glcm(GrayImage([[0, 1]], 1), 5, 0)

    def test_probabilities_sum_to_one_on_random_images(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            img = random_quantized(rng)
            for dx, dy in DIRECTIONS:
                for sym in (False, True):
                    p = compute_glcm(img, dx, dy, symmetric=sym).p
                    assert (p >= 0).all()
                    assert abs(p.sum() - 1.0) < 1e-9


class TestHaralickFeatures:
    def test_constant_image_values(self):
        hf = haralick_features(compute_glcm(GrayImage(np.full((5, 5), 1), 3), 1, 0))
        assert hf["asm"] == 1.0
        assert hf["contrast"] == 0.0
        assert hf["entropy"] == 0.0
        assert hf["idm"] == 1.0
        # degenerate marginals: correlation defined as 0
        assert hf["correlation"] == 0.0

    def test_degenerate_marginal_with_rounding_noise_has_zero_correlation(self):
        # Rows of p sum to 4/6 + 1/6 + 1/6, which is not 1 in float arithmetic,
        # so var_x is a rounding residue rather than 0.
        img = GrayImage([[1, 1, 1, 2, 3, 1]] + [[1] * 6] * 4, 3)
        g = compute_glcm(img, 3, -3)
        assert np.count_nonzero(g.p.sum(axis=1)) == 1
        assert haralick_features(g)["correlation"] == 0.0

    def test_contrast_matches_direct_summation(self):
        hf = haralick_features(compute_glcm(EXAMPLE_3X3, 1, 0))
        # sum p(i,j)(i-j)^2 = (2/6)*1 + (1/6)*4 = 1
        assert hf["contrast"] == pytest.approx(1.0, abs=1e-12)

    def test_asm_against_independent_loop(self):
        rng = np.random.default_rng(1)
        g = compute_glcm(random_quantized(rng), 1, 1)
        direct = 0.0
        for i in range(g.levels):
            for j in range(g.levels):
                direct += g.p[i, j] ** 2
        assert haralick_features(g)["asm"] == pytest.approx(direct, abs=1e-12)

    def test_sum_average_is_twice_marginal_mean_when_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = compute_glcm(random_quantized(rng), 0, 1, symmetric=True)
            marginal_mean = float(np.arange(g.levels) @ g.p.sum(axis=1))
            assert haralick_features(g)["sum_average"] == pytest.approx(
                2.0 * marginal_mean, abs=1e-9
            )

    def test_ranges_on_random_fixtures(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = compute_glcm(random_quantized(rng), *DIRECTIONS[rng.integers(4)])
            hf = haralick_features(g)
            assert 0.0 < hf["asm"] <= 1.0
            assert hf["contrast"] >= 0.0
            assert hf["entropy"] >= 0.0
            assert -1.0 <= hf["correlation"] <= 1.0
            assert 0.0 < hf["idm"] <= 1.0


class TestGlrlm:
    def test_hand_run_enumeration(self):
        rl = compute_glrlm(GrayImage([[0, 0, 1, 1, 1]], 1), 1, 0)
        assert rl.r[0, 1] == 1  # one run of gray 0, length 2
        assert rl.r[1, 2] == 1  # one run of gray 1, length 3
        assert rl.r.sum() == 2

    def test_constant_image_one_run_per_row(self):
        rl = compute_glrlm(GrayImage(np.full((3, 5), 1), 1), 1, 0)
        assert rl.r[1, 4] == 3
        assert rl.r.sum() == 3

    def test_checkerboard_forces_unit_runs(self):
        img = checkerboard(6)
        rl = compute_glrlm(img, 1, 0)
        assert rl.r[:, 0].sum() == 36
        assert rl.r[:, 1:].sum() == 0

    def test_unsupported_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            compute_glrlm(EXAMPLE_3X3, 2, 0)

    def test_unquantized_image_rejected(self):
        img = GrayImage([[0, 65535], [7, 7]], 65535)
        with pytest.raises(ValueError, match="quantized to <= 64 levels"):
            compute_glrlm(img, 1, 0)
        with pytest.raises(ValueError, match="quantized to <= 64 levels"):
            compute_gldm(img, 1, 0)

    @settings(max_examples=300, deadline=None)
    @given(quantized_images(), directions)
    @example(EDGE_SHAPES[0], (1, 1))
    @example(EDGE_SHAPES[1], (1, -1))
    @example(EDGE_SHAPES[2], (1, 1))
    @example(LONG_SHAPES[0], (1, 1))
    @example(LONG_SHAPES[0], (0, 1))
    @example(LONG_SHAPES[1], (1, -1))
    @example(LONG_SHAPES[1], (1, 0))
    @example(LONG_SHAPES[2], (1, 1))
    @example(LONG_SHAPES[2], (1, -1))
    @example(LONG_SHAPES[3], (1, 1))
    @example(LONG_SHAPES[3], (1, -1))
    @example(CONSTANT, (1, 0))
    @example(CONSTANT, (1, -1))
    @example(checkerboard(7), (1, 0))
    @example(checkerboard(7), (0, 1))
    @example(GRAY_63, (1, 1))
    @example(GRAY_63, (0, 1))
    def test_matches_line_loop_oracle(self, img, direction):
        r = compute_glrlm(img, *direction).r
        expected = oracle_glrlm(img, *direction)
        assert r.dtype == expected.dtype
        assert r.tobytes() == expected.tobytes()

    def test_negative_run_counts_rejected(self):
        with pytest.raises(ValueError, match="run counts must be non-negative"):
            Glrlm(2, 3, [[3, -1, 0], [0, 0, 0]], (1, 0), 1)

    @pytest.mark.parametrize("shape", [(4000, 1), (1, 4000)])
    def test_thin_images_take_linear_memory(self, shape):
        # Shearing the 4000-pixel side would take two buffers of 4001 x 4000 bytes.
        img = random_quantized(np.random.default_rng(21), shape, 4)
        for direction in DIRECTIONS:
            tracemalloc.start()
            try:
                compute_glrlm(img, *direction)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000, (direction, peak)

    def test_pixel_coverage_identity_on_random_images(self):
        # every pixel lies in exactly one maximal run
        rng = np.random.default_rng(7)
        lengths = None
        for _ in range(100):
            img = random_quantized(rng)
            for dx, dy in DIRECTIONS:
                rl = compute_glrlm(img, dx, dy)
                lengths = np.arange(1, rl.max_run + 1)
                assert int((rl.r * lengths).sum()) == rl.n_pixels


class TestRunlengthFeatures:
    def test_run_percentage_single_row(self):
        rl = compute_glrlm(GrayImage([[0, 0, 1, 1, 1]], 1), 1, 0)
        assert runlength_features(rl)["rp"] == pytest.approx(0.4, abs=1e-12)

    def test_checkerboard_unit_emphases(self):
        feats = runlength_features(compute_glrlm(checkerboard(6), 1, 0))
        assert feats["sre"] == 1.0
        assert feats["lre"] == 1.0

    def test_constant_square_run_percentage(self):
        rl = compute_glrlm(GrayImage(np.zeros((4, 4), dtype=int), 1), 1, 0)
        assert runlength_features(rl)["rp"] == pytest.approx(0.25, abs=1e-12)


class TestGldm:
    def test_constant_image_all_mass_at_zero(self):
        d = compute_gldm(GrayImage(np.full((4, 4), 3), 7), 1, 0).d
        assert d[0] == 1.0

    def test_hand_enumerated_row(self):
        d = compute_gldm(GrayImage([[0, 2, 0]], 2), 1, 0).d
        assert d.tolist() == [0.0, 0.0, 1.0]

    def test_checkerboard_all_mass_at_one(self):
        d = compute_gldm(checkerboard(4), 1, 0).d
        assert d[1] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(quantized_images(), directions, st.integers(1, 3))
    @example(EDGE_SHAPES[0], (1, 0), 1)
    @example(EDGE_SHAPES[1], (1, 0), 2)
    @example(EDGE_SHAPES[2], (0, 1), 3)
    def test_matches_pixel_difference_oracle(self, img, direction, distance):
        dx, dy = direction[0] * distance, direction[1] * distance
        expected = oracle_gldm(img, dx, dy)
        if expected is None:
            with pytest.raises(ValueError, match="no pixel pair fits"):
                compute_gldm(img, dx, dy)
        else:
            assert compute_gldm(img, dx, dy).d.tobytes() == expected.tobytes()

    def test_probabilities_sum_to_one_on_random_images(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            img = random_quantized(rng)
            for dx, dy in DIRECTIONS:
                d = compute_gldm(img, dx, dy).d
                assert (d >= 0).all()
                assert abs(d.sum() - 1.0) < 1e-9


class TestGldmFeatures:
    def test_constant_image_values(self):
        feats = gldm_features(compute_gldm(GrayImage(np.full((4, 4), 1), 3), 1, 0))
        assert feats["mean"] == 0.0
        assert feats["contrast"] == 0.0
        assert feats["asm"] == 1.0
        assert feats["entropy"] == 0.0
        assert feats["idm"] == 1.0

    def test_checkerboard_values(self):
        feats = gldm_features(compute_gldm(checkerboard(4), 1, 0))
        assert feats["mean"] == 1.0
        assert feats["contrast"] == 1.0
        assert feats["idm"] == 0.5

    def test_uniform_two_cell_entropy(self):
        feats = gldm_features(Gldm(levels=2, d=np.array([0.5, 0.5]), offset=(1, 0)))
        assert feats["entropy"] == pytest.approx(np.log(2), abs=1e-12)


class TestPerDirectionFunctionsAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(quantized_images(), directions, st.integers(1, 3), st.booleans())
    @example(EDGE_SHAPES[1], (1, 0), 1, True)
    @example(GRAY_63, (1, -1), 2, False)
    @example(quantize(smooth_roi(40, seed=3), 32), (1, 1), 1, True)
    def test_each_matches_its_oracle_bit_for_bit(self, img, direction, distance, symmetric):
        levels = img.max_val + 1
        dx, dy = direction[0] * distance, direction[1] * distance
        expected = oracle_glcm(img.pixels, levels, dx, dy, symmetric)
        if expected is None:
            with pytest.raises(ValueError, match="no pixel pair fits"):
                compute_glcm(img, dx, dy, symmetric=symmetric)
        else:
            counts, p = expected
            glcm = compute_glcm(img, dx, dy, symmetric=symmetric)
            assert glcm.counts.tobytes() == counts.tobytes()
            assert glcm.p.tobytes() == p.tobytes()
            assert haralick_features(glcm).values.tobytes() == oracle_haralick_features(p).tobytes()
            d = oracle_gldm_from_counts(oracle_pair_counts(img.pixels, levels, dx, dy))
            gldm = compute_gldm(img, dx, dy)
            assert gldm.d.tobytes() == d.tobytes()
            assert gldm_features(gldm).values.tobytes() == oracle_gldm_features(d).tobytes()
        rl = runlength_features(compute_glrlm(img, *direction)).values
        r = oracle_glrlm(img, *direction)
        assert rl.tobytes() == oracle_runlength_features(r, img.pixels.size).tobytes()


class TestStackedStatistics:
    """extract_all computes the statistics of all directions stacked; each row must
    equal its matrix alone through the per-direction oracles, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(count_stacks())
    @example(MIXED_64)
    @example(MIXED_64[[1, 0]])
    @example(MIXED_64[[3, 4, 3]])
    def test_co_occurrence_rows_match_each_matrix_alone(self, counts):
        p = counts / counts.sum(axis=(1, 2))[:, None, None]
        d = _gldm(counts)
        haralick, gldm = _haralick(p), _gldm_stats(d)
        for k, c in enumerate(counts):
            pk, dk = c / c.sum(), oracle_gldm_from_counts(c)
            assert p[k].tobytes() == pk.tobytes() and d[k].tobytes() == dk.tobytes()
            assert haralick[k].tobytes() == oracle_haralick_features(pk).tobytes()
            assert gldm[k].tobytes() == oracle_gldm_features(dk).tobytes()

    def test_degenerate_rows_sit_next_to_normal_ones(self):
        p = MIXED_64 / MIXED_64.sum(axis=(1, 2))[:, None, None]
        haralick = dict(zip(HARALICK_NAMES, _haralick(p).T))
        assert haralick["correlation"][1] == 0.0 and haralick["correlation"][0] != 0.0
        assert haralick["imc1"][3] == 0.0 and haralick["imc1"][4] != 0.0

    @settings(max_examples=200, deadline=None)
    @given(run_stacks())
    def test_run_length_rows_match_each_matrix_alone(self, r):
        n_pixels = int((r.sum(axis=1) * np.arange(1, r.shape[2] + 1)).sum(axis=1).max())
        got = _runlength(r.sum(axis=2), r.sum(axis=1), n_pixels)
        for k, rk in enumerate(r):
            assert got[k].tobytes() == oracle_runlength_features(rk, n_pixels).tobytes()


class TestExtractAll:
    def test_schema_is_stable_across_images(self):
        rng = np.random.default_rng(10)
        fv1 = extract_all(random_quantized(rng, (6, 6), 16))
        fv2 = extract_all(random_quantized(rng, (9, 5), 16))
        assert fv1.names == fv2.names == FEATURE_NAMES
        assert len(fv1) == 25

    def test_constant_roi_direction_average(self):
        fv = extract_all(GrayImage(np.full((4, 4), 7), 255))
        assert fv["glcm.contrast"] == 0.0
        assert fv["glcm.asm"] == 1.0
        # rp averaged over the four directions of a 4x4 constant image:
        # rows 4/16, cols 4/16, diagonals 7/16 twice -> 11/32
        assert fv["rl.rp"] == pytest.approx(11 / 32, abs=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(12)
        img = random_quantized(rng, (10, 10), 16)
        a = extract_all(img)
        b = extract_all(img)
        assert a.values.tobytes() == b.values.tobytes()

    def test_rotation_by_90_degrees_preserves_direction_average(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            img = random_quantized(rng, (8, 8), 8)
            rot = GrayImage(np.rot90(img.pixels), img.max_val)
            a = extract_all(img)
            b = extract_all(rot)
            assert np.allclose(a.values, b.values, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(quantized_images(min_side=4), st.integers(2, 64), st.integers(1, 3), st.booleans())
    def test_rotation_invariance_on_random_rois(self, img, levels, distance, symmetric):
        # Rotation maps the four directions onto themselves, some reversed,
        # and every statistic is unchanged by reversing a direction. Only
        # the summation order changes. imc2 = sqrt(1 - exp(-2*(HXY2 - HXY)))
        # turns a rounding error e in HXY2 - HXY near 0 into about sqrt(2e),
        # so it gets a tolerance of sqrt(2 * 1e-13).
        cfg = ExtractionConfig(levels=levels, distance=distance, symmetric=symmetric)
        rot = GrayImage(np.rot90(img.pixels), img.max_val)
        a = extract_all(img, cfg).values
        b = extract_all(rot, cfg).values
        atol = np.where(np.array(FEATURE_NAMES) == "glcm.imc2", 5e-7, 1e-9)
        assert (np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all()

    @settings(max_examples=300, deadline=None)
    @given(quantized_images(), st.integers(2, 64), st.integers(1, 3), st.booleans())
    @example(EDGE_SHAPES[0], 2, 1, False)
    @example(EDGE_SHAPES[1], 64, 1, True)
    @example(EDGE_SHAPES[2], 4, 2, False)
    @example(LONG_SHAPES[2], 2, 1, False)
    @example(LONG_SHAPES[3], 2, 1, False)
    @example(GRAY_63, 64, 1, False)
    @example(LONG_SHAPES[0], 2, 1, False)
    @example(LONG_SHAPES[1], 2, 1, True)
    def test_matches_oracle_bitwise(self, img, levels, distance, symmetric):
        cfg = ExtractionConfig(levels=levels, distance=distance, symmetric=symmetric)
        try:
            expected = oracle_extract_all(img, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                extract_all(img, cfg)
        else:
            assert extract_all(img, cfg).values.tobytes() == expected.tobytes()

    def test_matches_oracle_bitwise_on_a_large_roi(self):
        # 8-bit blocks of 3 x 3 pixels quantized to 16 levels: runs of many lengths.
        coarse = np.random.default_rng(15).integers(0, 256, size=(54, 57))
        img = GrayImage(np.repeat(np.repeat(coarse, 3, axis=0), 3, axis=1)[:160, :171], 255)
        cfg = ExtractionConfig()
        assert extract_all(img, cfg).values.tobytes() == oracle_extract_all(img, cfg).tobytes()

    @pytest.mark.parametrize("levels", [16, 64])
    def test_matches_oracle_bitwise_on_a_large_smooth_roi(self, levels):
        img = smooth_roi(395, seed=levels)
        for symmetric in (False, True):
            cfg = ExtractionConfig(levels=levels, symmetric=symmetric)
            expected = oracle_extract_all(img, cfg)
            assert extract_all(img, cfg).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(2, 20000), (20000, 2)])
    def test_thin_images_take_linear_memory(self, shape):
        # Only run counts per gray and per length are held, never the 16 levels x
        # 20000 run lengths matrix (160 B per pixel of a two-pixel-wide image as
        # int64 and float64). Anything quadratic in the long side would take gigabytes.
        img = random_quantized(np.random.default_rng(22), shape, 16)
        extract_all(img)  # the 16-level index grids are built once, outside the bound
        tracemalloc.start()
        try:
            extract_all(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * img.pixels.size, peak

    def test_propagates_quantization(self):
        # raw 8-bit input is quantized down to the configured depth
        rng = np.random.default_rng(14)
        img = GrayImage(rng.integers(0, 256, size=(8, 8)), 255)
        fv = extract_all(img, ExtractionConfig(levels=8))
        assert np.all(np.isfinite(fv.values))


class TestRunPairCounts:
    """At distance 1 extract_all takes each direction's pair counts from its runs."""

    @settings(max_examples=300, deadline=None)
    @given(quantized_images(), directions)
    @example(LONG_SHAPES[0], (0, 1))
    @example(LONG_SHAPES[0], (1, 1))
    @example(LONG_SHAPES[1], (1, 0))
    @example(LONG_SHAPES[2], (1, 1))
    @example(LONG_SHAPES[2], (1, -1))
    @example(LONG_SHAPES[3], (1, 1))
    @example(LONG_SHAPES[3], (1, -1))
    @example(CONSTANT, (1, 1))
    @example(checkerboard(7), (1, -1))
    @example(GRAY_63, (1, -1))
    def test_unit_pair_counts_and_runs_per_gray_match_the_oracles(self, img, direction):
        levels = img.max_val + 1
        per_gray = np.bincount(img.pixels.ravel(), minlength=levels)
        grays = _runs(img.pixels, levels, *direction)[0]
        counts, by_gray = _run_pairs(grays, levels, per_gray)
        expected = oracle_pair_counts(img.pixels, levels, *direction)
        if expected is None:  # no pair fits: none is counted
            expected = np.zeros((levels, levels), np.int64)
        assert counts.dtype == by_gray.dtype == expected.dtype
        assert counts.tobytes() == expected.tobytes()
        assert by_gray.tobytes() == oracle_glrlm(img, *direction).sum(axis=1).tobytes()


class TestUnitDistanceDispatch:
    def test_pixel_pair_count_runs_only_past_distance_1(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pixel pair count called")

        monkeypatch.setattr(texture, "_glcm", refuse)
        img = random_quantized(np.random.default_rng(23), (9, 7), 8)
        for symmetric in (False, True):
            extract_all(img, ExtractionConfig(distance=1, symmetric=symmetric))
            with pytest.raises(AssertionError, match="pixel pair count called"):
                extract_all(img, ExtractionConfig(distance=2, symmetric=symmetric))


class TestExtractionConfig:
    @pytest.mark.parametrize("field, value", [
        ("levels", 8.5), ("levels", True), ("distance", 1.5), ("distance", True)])
    def test_non_integer_sizes_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ExtractionConfig(**{field: value})

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_boolean_symmetric_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match=f"^symmetric must be a boolean, got {value!r}$"):
            ExtractionConfig(symmetric=value)

    def test_numpy_boolean_symmetric_accepted(self):
        img = random_quantized(np.random.default_rng(17), (8, 8), 8)
        got = extract_all(img, ExtractionConfig(symmetric=np.True_)).values
        assert got.tobytes() == extract_all(img, ExtractionConfig(symmetric=True)).values.tobytes()

    def test_numpy_integer_sizes_accepted(self):
        img = random_quantized(np.random.default_rng(16), (8, 8), 8)
        got = extract_all(img, ExtractionConfig(levels=np.int64(4), distance=np.int32(2)))
        assert got.values.tobytes() == extract_all(img, ExtractionConfig(levels=4, distance=2)).values.tobytes()


class TestFeatureVector:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FeatureVector(("a", "a"), np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureVector(("a",), np.array([np.inf]))

    def test_unknown_name_raises_key_error(self):
        fv = FeatureVector(("x", "y"), np.array([1.5, -2.0]))
        with pytest.raises(KeyError, match="unknown feature 'nope'"):
            fv["nope"]

    def test_as_dict_round_trip(self):
        fv = FeatureVector(("x", "y"), np.array([1.5, -2.0]))
        assert fv.as_dict() == {"x": 1.5, "y": -2.0}
