"""PGM parsing, annotation index parsing, cropping and quantization."""

import numpy as np
import pytest

from fknne import (
    BENIGN,
    MALIGNANT,
    GrayImage,
    RoiSpec,
    crop_roi,
    minmax_normalize,
    parse_mias_index,
    quantize,
    read_pgm,
    write_pgm,
)


class TestReadPgm:
    def test_minimal_ascii_file(self):
        img = read_pgm(b"P2\n1 1\n255\n7")
        assert (img.width, img.height, img.max_val) == (1, 1, 255)
        assert img.pixels[0, 0] == 7

    def test_p2_and_p5_encodings_agree(self):
        # Same 2x2 content written both ways parses to equal values.
        p2 = b"P2\n2 2\n255\n0 64\n128 255\n"
        p5 = b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])
        assert read_pgm(p2) == read_pgm(p5)

    def test_header_comments_are_skipped(self):
        data = b"P2\n# created by a scanner\n2 1 # inline too\n# more\n255\n3 4\n"
        img = read_pgm(data)
        assert img.pixels.tolist() == [[3, 4]]

    def test_sixteen_bit_p5_is_big_endian(self):
        data = b"P5\n1 1\n65535\n" + (300).to_bytes(2, "big")
        assert read_pgm(data).pixels[0, 0] == 300

    def test_unknown_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_pgm(b"P3\n1 1\n255\n1 1 1")

    def test_truncated_pixels_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(b"P2\n2 2\n255\n1 2 3")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_bad_max_val_rejected(self):
        with pytest.raises(ValueError, match="max_val"):
            read_pgm(b"P2\n1 1\n0\n0")
        with pytest.raises(ValueError, match="max_val"):
            read_pgm(b"P2\n1 1\n70000\n0")

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            read_pgm(b"P2\n0 2\n255\n")

    def test_pixel_above_max_val_rejected(self):
        with pytest.raises(ValueError):
            read_pgm(b"P2\n1 1\n10\n11")

    def test_p2_value_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 255\]"):
            read_pgm(b"P2\n2 1\n255\n1 99999999999999999999")

    def test_round_trip_both_encodings(self):
        rng = np.random.default_rng(11)
        for max_val in (1, 255, 4095):
            pix = rng.integers(0, max_val + 1, size=(9, 7))
            img = GrayImage(pix, max_val)
            assert read_pgm(write_pgm(img, binary=True)) == img
            assert read_pgm(write_pgm(img, binary=False)) == img


class TestParseMiasIndex:
    def test_record_with_coordinates(self):
        # y flips from bottom-left to top-left rows: 1024 - 1 - 425 = 598.
        (roi,) = parse_mias_index("mdb001 G CIRC B 535 425 197")
        assert roi == RoiSpec("mdb001", 535, 598, 197, BENIGN)

    def test_malignant_severity(self):
        (roi,) = parse_mias_index("mdb102 D ARCH M 100 200 30")
        assert roi.label == MALIGNANT
        assert roi.center_y == 1024 - 1 - 200

    def test_normals_without_coordinates_are_skipped(self):
        specs = parse_mias_index("mdb003 D NORM\nmdb001 G CIRC B 535 425 197\n")
        assert [r.id for r in specs] == ["mdb001"]

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            parse_mias_index("mdb000 G CIRC X 1 2 3")

    def test_malformed_numbers_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            parse_mias_index("mdb000 G CIRC B x y z")

    def test_nonpositive_radius_names_the_line(self):
        with pytest.raises(ValueError, match="^line 2: radius must be >= 1"):
            parse_mias_index("mdb001 G CIRC B 1 2 3\nmdb002 G CIRC B 1 2 0\n")

    def test_custom_image_height(self):
        (roi,) = parse_mias_index("mdb001 G CIRC B 5 3 2", image_height=10)
        assert roi.center_y == 10 - 1 - 3

    def test_repeated_reference_gets_unique_ids(self):
        text = "mdb005 F CIRC B 477 133 30\nmdb005 F CIRC B 500 168 26\n"
        specs = parse_mias_index(text)
        assert [r.id for r in specs] == ["mdb005", "mdb005-2"]


class TestCropRoi:
    def test_default_side_from_radius(self):
        img = GrayImage(np.arange(100).reshape(10, 10), 255)
        crop = crop_roi(img, RoiSpec("r", 5, 5, 2, BENIGN))
        assert (crop.width, crop.height) == (5, 5)

    def test_clamped_at_corner(self):
        img = GrayImage(np.arange(100).reshape(10, 10), 255)
        crop = crop_roi(img, RoiSpec("r", 0, 0, 2, BENIGN))
        assert (crop.width, crop.height) == (3, 3)

    def test_center_outside_rejected(self):
        img = GrayImage(np.zeros((10, 10), dtype=int), 255)
        with pytest.raises(ValueError, match="outside"):
            crop_roi(img, RoiSpec("r", 20, 20, 2, BENIGN))

    def test_pixels_copied_verbatim(self):
        rng = np.random.default_rng(3)
        pix = rng.integers(0, 256, size=(12, 12))
        img = GrayImage(pix, 255)
        crop = crop_roi(img, RoiSpec("r", 6, 4, 3, MALIGNANT))
        assert np.array_equal(crop.pixels, pix[1:8, 3:10])

    def test_explicit_side_overrides_radius(self):
        img = GrayImage(np.zeros((20, 20), dtype=int), 255)
        crop = crop_roi(img, RoiSpec("r", 10, 10, 8, BENIGN), side=5)
        assert (crop.width, crop.height) == (5, 5)


class TestMinmaxNormalize:
    def test_simple_ramp(self):
        assert minmax_normalize([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]

    def test_constant_input_maps_to_zero(self):
        assert minmax_normalize([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            minmax_normalize([])

    def test_random_input_spans_unit_interval(self):
        rng = np.random.default_rng(5)
        out = minmax_normalize(rng.normal(size=100))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        base = minmax_normalize(x)
        for a, b in [(2.0, 3.0), (0.1, -7.0), (1000.0, 0.5)]:
            assert np.allclose(minmax_normalize(a * x + b), base, atol=1e-9)


class TestQuantize:
    def test_top_and_bottom_values(self):
        img = GrayImage([[0, 255]], 255)
        q = quantize(img, 4)
        assert q.pixels.tolist() == [[0, 3]]
        assert q.max_val == 3

    def test_constant_image_stays_constant(self):
        q = quantize(GrayImage(np.full((4, 4), 99), 255), 8)
        assert len(np.unique(q.pixels)) == 1

    def test_levels_below_two_rejected(self):
        with pytest.raises(ValueError, match="levels"):
            quantize(GrayImage([[0]], 255), 1)

    def test_monotone_and_surjective(self):
        img = GrayImage(np.arange(256).reshape(16, 16), 255)
        q = quantize(img, 16)
        flat = q.pixels.ravel()
        assert (np.diff(flat) >= 0).all()
        assert set(flat.tolist()) == set(range(16))
