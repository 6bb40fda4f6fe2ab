"""PGM parsing, annotation index parsing, cropping and quantization."""

import contextlib
import io
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fknne.ingestion
from fknne import (
    BENIGN,
    MALIGNANT,
    GrayImage,
    RoiSpec,
    crop_roi,
    parse_mias_index,
    quantize,
    read_feature_csv,
    read_pgm,
    write_pgm,
)
from fknne.cli import main


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

    def test_p2_negative_token_rejected_before_narrowing(self):
        # Narrowed to uint8 first, -1 would wrap to 255 and pass the check.
        with pytest.raises(ValueError, match=r"^pixel values must lie in \[0, max_val\]$"):
            read_pgm(b"P2\n2 1\n255\n7 -1\n")

    @pytest.mark.parametrize("max_val, dtype", [(1, np.uint8), (255, np.uint8),
                                                (256, np.uint16), (65535, np.uint16)])
    def test_p2_and_p5_give_equal_pixels_of_one_dtype(self, max_val, dtype):
        rng = np.random.default_rng(max_val)
        img = GrayImage(rng.integers(0, max_val + 1, size=(6, 9)), max_val)
        p5 = read_pgm(write_pgm(img, binary=True))
        p2 = read_pgm(write_pgm(img, binary=False))
        for parsed in (p5, p2):
            assert parsed.pixels.dtype == dtype and parsed.pixels.dtype.isnative
            assert not parsed.pixels.flags.writeable
        assert np.array_equal(p5.pixels, p2.pixels)
        assert np.array_equal(p5.pixels, img.pixels)

    def test_round_trip_both_encodings(self):
        rng = np.random.default_rng(11)
        for max_val in (1, 255, 4095):
            pix = rng.integers(0, max_val + 1, size=(9, 7))
            img = GrayImage(pix, max_val)
            assert read_pgm(write_pgm(img, binary=True)) == img
            assert read_pgm(write_pgm(img, binary=False)) == img


class TestGrayImagePixels:
    @pytest.mark.parametrize("max_val", [255.9, 255.0, True, "255"])
    def test_non_integer_max_val_rejected_naming_the_field(self, max_val):
        with pytest.raises(ValueError, match=f"^max_val must be an integer, got {re.escape(repr(max_val))}$"):
            GrayImage([[0, 1]], max_val)

    def test_numpy_integer_max_val_kept_as_int(self):
        img = GrayImage([[0, 1]], np.uint16(300))
        assert img.max_val == 300 and type(img.max_val) is int
        with pytest.raises(ValueError, match=r"^max_val must be an integer in \[1, 65535\]$"):
            GrayImage([[0, 1]], np.int64(0))

    def test_read_only_in_the_smallest_unsigned_dtype(self):
        for max_val, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16),
                               (65535, np.uint16)):
            img = GrayImage(np.full((2, 3), max_val, dtype=np.int64), max_val)
            assert img.pixels.dtype == dtype
            assert not img.pixels.flags.writeable
            with pytest.raises(ValueError):
                img.pixels[0, 0] = 0

    @pytest.mark.parametrize("dtype, value, max_val", [
        (np.int64, 256, 255), (np.int64, -1, 255), (np.uint16, 256, 255), (np.int32, 65536, 65535),
        (np.int8, -1, 127), (np.uint8, 200, 199)])
    def test_values_outside_max_val_rejected_whatever_the_dtype(self, dtype, value, max_val):
        with pytest.raises(ValueError, match=r"^pixel values must lie in \[0, max_val\]$"):
            GrayImage(np.array([[0, value]], dtype=dtype), max_val)

    def test_max_val_beyond_sixteen_bits_rejected(self):
        with pytest.raises(ValueError, match="max_val"):
            GrayImage([[0]], 65536)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_caller_array_does_not_alias_the_image(self, dtype):
        pix = np.arange(12, dtype=dtype).reshape(3, 4)
        img = GrayImage(pix, 255)
        pix[:] = 0
        assert img.pixels.tolist() == np.arange(12).reshape(3, 4).tolist()

    def test_read_only_input_of_the_right_dtype_is_kept(self):
        pix = np.arange(12, dtype=np.uint8).reshape(3, 4)
        pix.flags.writeable = False
        assert GrayImage(pix, 255).pixels is pix

    def test_big_endian_input_is_stored_native(self):
        pix = np.array([[1, 300], [65535, 0]], dtype=">u2")
        img = GrayImage(pix, 65535)
        assert img.pixels.dtype == np.uint16 and img.pixels.dtype.isnative
        assert img.pixels.tolist() == pix.tolist()

    def test_crop_of_a_parsed_image_is_a_view(self):
        img = read_pgm(b"P5\n4 4\n255\n" + bytes(range(16)))
        crop = crop_roi(img, RoiSpec("r", 1, 1, 1, BENIGN))
        assert np.shares_memory(crop.pixels, img.pixels)
        assert crop.pixels.tolist() == [[0, 1, 2], [4, 5, 6], [8, 9, 10]]


def _next_token_oracle(data, pos):
    """The byte-at-a-time header tokenizer that ``ingestion._next_token`` replaced."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in b" \t\r\n\x0b\x0c":
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ValueError("truncated PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in b" \t\r\n\x0b\x0c#":
        pos += 1
    return data[start:pos], pos


def _tokens_or_error(next_token, data):
    """Every header token of ``data`` with its end, then the error that stops them."""
    out, pos = [], 0
    while True:
        try:
            tok, pos = next_token(data, pos)
        except ValueError as exc:
            return out, str(exc)
        out.append((tok, pos))


_HEADER_PIECES = (b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c", b"#", b"# c 1",
                  b"#x\r", b"#y\n", b"#\r\n", b"P2", b"P5", b"12", b"255", b"0", b"x#", b"\x1c")


def assert_header_matches_oracle(data):
    """Both tokenizers give the same tokens and error, and read_pgm the same outcome."""
    assert (_tokens_or_error(fknne.ingestion._next_token, data)
            == _tokens_or_error(_next_token_oracle, data))
    new = _read_pgm_outcome(data)
    with mock.patch.object(fknne.ingestion, "_next_token", _next_token_oracle):
        old = _read_pgm_outcome(data)
    assert type(new) is type(old) and str(new) == str(old)
    if isinstance(new, GrayImage):
        assert new == old


class TestHeaderTokens:
    """The regex header tokenizer against the byte loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_HEADER_PIECES) | st.binary(max_size=3), max_size=14))
    def test_tokens_and_errors_match_the_oracle(self, pieces):
        assert_header_matches_oracle(b"".join(pieces))

    @pytest.mark.parametrize("data", [
        b"P2 #", b"P2#c", b"P2 2#c\r2 255 1 2 3 4", b"P5 1 1 255#\n\x07", b"P5 1 1 255\n\x07",
        b"P5 1 1 255\x0c\x07", b"#only a comment", b" \t\r\n\x0b\x0c", b"P2\n1 1\n255\n# at EOF",
    ])
    def test_fixed_headers_match_the_oracle(self, data):
        assert_header_matches_oracle(data)

    def test_megabyte_comment(self):
        comment = b"#" + b" comment" * 125_000
        assert read_pgm(b"P2\n" + comment + b"\n1 1\n255\n7").pixels.tolist() == [[7]]
        with pytest.raises(ValueError, match="^truncated PGM header$"):
            read_pgm(b"P2 1 1" + comment)


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

    @pytest.mark.parametrize("field, value", [
        ("center_x", 1.7), ("center_y", 2.2), ("radius", 3.9), ("radius", "x"),
        ("center_x", True), ("radius", np.float64(3.0)),
    ])
    def test_non_integer_roi_field_rejected_naming_it(self, field, value):
        fields = dict(center_x=1, center_y=2, radius=3)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            RoiSpec("a", label=BENIGN, **fields)

    def test_numpy_integer_roi_fields_kept_as_int(self):
        roi = RoiSpec("a", np.int32(1), np.int64(-2), np.uint8(3), BENIGN)
        assert (roi.center_x, roi.center_y, roi.radius) == (1, -2, 3)
        assert {type(v) for v in (roi.center_x, roi.center_y, roi.radius)} == {int}

    def test_custom_image_height(self):
        (roi,) = parse_mias_index("mdb001 G CIRC B 5 3 2", image_height=10)
        assert roi.center_y == 10 - 1 - 3

    @pytest.mark.parametrize("value, message", [
        (True, "image_height must be an integer, got True"),
        (10.0, "image_height must be an integer, got 10.0"),
        ("10", "image_height must be an integer, got '10'"),
        (0, "image_height must be >= 1"),
    ])
    def test_bad_image_height_rejected_naming_it(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_mias_index("mdb001 G CIRC B 5 3 2", image_height=value)

    def test_numpy_integer_image_height_accepted(self):
        (roi,) = parse_mias_index("mdb001 G CIRC B 5 3 2", image_height=np.int64(10))
        assert roi.center_y == 6 and type(roi.center_y) is int

    def test_repeated_reference_gets_unique_ids(self):
        text = "mdb005 F CIRC B 477 133 30\nmdb005 F CIRC B 500 168 26\n"
        specs = parse_mias_index(text)
        assert [r.id for r in specs] == ["mdb005", "mdb005-2"]
        assert [r.reference for r in specs] == ["mdb005", "mdb005"]

    def test_reference_with_a_numeric_suffix_is_kept(self):
        (roi,) = parse_mias_index("case-7 G CIRC B 30 30 8")
        assert (roi.id, roi.reference) == ("case-7", "case-7")

    def test_generated_id_repeating_a_reference_names_the_line(self):
        with pytest.raises(ValueError, match="^line 3: duplicate ROI id 'a-2'"):
            parse_mias_index("a G CIRC B 1 2 3\na G CIRC B 4 5 6\na-2 G CIRC M 7 8 9\n")


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

    @pytest.mark.parametrize("side, message", [
        (2.5, "side must be an integer, got 2.5"), (True, "side must be an integer, got True"),
        (0, "side must be >= 1"),
    ])
    def test_bad_side_rejected_naming_the_field(self, side, message):
        img = GrayImage(np.zeros((20, 20), dtype=int), 255)
        with pytest.raises(ValueError, match=f"^{message}$"):
            crop_roi(img, RoiSpec("r", 10, 10, 8, BENIGN), side=side)

    def test_numpy_integer_side_accepted(self):
        img = GrayImage(np.zeros((20, 20), dtype=int), 255)
        crop = crop_roi(img, RoiSpec("r", 10, 10, 8, BENIGN), side=np.int64(5))
        assert (crop.width, crop.height) == (5, 5)

    def test_explicit_side_overrides_radius(self):
        img = GrayImage(np.zeros((20, 20), dtype=int), 255)
        crop = crop_roi(img, RoiSpec("r", 10, 10, 8, BENIGN), side=5)
        assert (crop.width, crop.height) == (5, 5)


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

    @pytest.mark.parametrize("levels", [8.5, True, "8"])
    def test_non_integer_levels_rejected_naming_the_field(self, levels):
        with pytest.raises(ValueError, match=f"^levels must be an integer, got {levels!r}$"):
            quantize(GrayImage([[0, 255]], 255), levels)

    def test_result_is_uint8_for_at_most_256_levels(self):
        q = quantize(GrayImage(np.arange(256).reshape(16, 16), 255), 16)
        assert q.pixels.dtype == np.uint8 and not q.pixels.flags.writeable

    @pytest.mark.parametrize("levels", [2, 16, 64, 4096, 65536])
    def test_sixteen_bit_input_does_not_wrap(self, levels):
        # g*levels reaches 65535*65536: beyond 16 and 31 bits.
        pix = np.array([[0, 1, 255, 256], [4095, 32768, 65534, 65535]])
        q = quantize(GrayImage(pix, 65535), levels)
        assert q.pixels.tolist() == [[int(g) * levels // 65536 for g in row] for row in pix]

    def test_monotone_and_surjective(self):
        img = GrayImage(np.arange(256).reshape(16, 16), 255)
        q = quantize(img, 16)
        flat = q.pixels.ravel()
        assert (np.diff(flat) >= 0).all()
        assert set(flat.tolist()) == set(range(16))


def mutated(seed: bytes):
    """Strategy: ``seed`` with a few bytes set, inserted or deleted, or cut short."""

    @st.composite
    def build(draw):
        data = bytearray(seed)
        for _ in range(draw(st.integers(1, 6))):
            op = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
            pos = draw(st.integers(0, max(len(data) - 1, 0)))
            if op == "insert":
                data.insert(pos, draw(st.integers(0, 255)))
            elif op == "truncate":
                del data[pos:]
            elif data and op == "set":
                data[pos] = draw(st.integers(0, 255))
            elif data:
                del data[pos]
        return bytes(data)

    return build()


_TEXTURE = np.random.default_rng(5).integers(0, 256, size=(5, 6))
PGM_SEEDS = {
    "p5-8bit": write_pgm(GrayImage(_TEXTURE, 255)),
    "p5-16bit": write_pgm(GrayImage(_TEXTURE * 16, 4095)),
    "p2": b"P2\n# scanner\n" + write_pgm(GrayImage(_TEXTURE, 255), binary=False)[3:],
    # Five-digit tokens, a comment inside the raster, a '+' sign, leading
    # zeros and two tokens after the 4x3 raster (70000 is never read).
    "p2-16bit": (b"P2\n4 3\n65535\n65535 +40000 00017 51234 # mid-raster comment\n"
                 b"09999 0 32768 1000\n12345 00000 65534 7\n8 70000\n"),
}
FEATURE_CSV_SEED = (b"id,label,a,b\nx1,benign,0.5,1\nx2,benign,0.25,2\nx3,benign,0.75,1.5\n"
                    b"y1,malignant,3,-1e-3\ny2,malignant,2.5,0\ny3,malignant,3.5,\"-0.5\"\n")
MIAS_SEED = ("mdb001 G CIRC B 535 425 197\nmdb002 G CIRC B 522 280 69\n"
             "mdb003 D NORM\nmdb005 F CIRC B 477 133 30\nmdb005 F CIRC B 500 168 26\n"
             "mdb023 G CIRC M 538 681 29\n")


class TestMutatedInputs:
    """Mutated inputs either parse to a valid value or raise ValueError."""

    @staticmethod
    def assert_loads_or_raises_value_error(data):
        try:
            img = read_pgm(data)
        except ValueError:
            return
        assert img.pixels.dtype in (np.uint8, np.uint16)
        assert not img.pixels.flags.writeable
        assert int(img.pixels.max()) <= img.max_val

    @pytest.mark.parametrize("name", sorted(PGM_SEEDS))
    def test_read_pgm_raises_only_value_error(self, name):
        @settings(max_examples=300, deadline=None)
        @given(mutated(PGM_SEEDS[name]))
        def check(data):
            self.assert_loads_or_raises_value_error(data)

        check()

    @pytest.mark.parametrize("name", sorted(PGM_SEEDS))
    def test_read_pgm_raster_mutations_raise_only_value_error(self, name):
        # Whole-file mutations mostly stop in the header; these all reach the raster.
        seed = PGM_SEEDS[name]
        header = re.match(rb"P[25]\s(#[^\n]*\n)?\d+ \d+\s\d+\s", seed).end()

        @settings(max_examples=300, deadline=None)
        @given(mutated(seed[header:]))
        def check(raster):
            self.assert_loads_or_raises_value_error(seed[:header] + raster)

        check()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(MIAS_SEED) - 1),
                              st.characters(codec="utf-8")), min_size=1, max_size=6))
    def test_parse_mias_index_raises_only_value_error(self, edits):
        text = MIAS_SEED
        for pos, char in edits:
            text = text[:pos] + char + text[pos + 1 :]
        try:
            specs = parse_mias_index(text)
        except ValueError:
            return
        assert len({r.id for r in specs}) == len(specs)

    @settings(max_examples=200, deadline=None)
    @given(mutated(FEATURE_CSV_SEED))
    def test_read_feature_csv_raises_only_located_value_errors(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            path.write_bytes(data)
            try:
                read_feature_csv(path)
            except ValueError as exc:
                assert str(exc).startswith(str(path)), str(exc)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["eval", "--features", str(path), "--protocol", "loocv",
                             "--out-json", str(Path(tmp) / "r.json"),
                             "--out-roc", str(Path(tmp) / "r.csv")])
            assert code in (0, 2)


def _p2_raster_oracle(body, count, max_val):
    """The P2 raster parser that ``ingestion._p2_raster`` replaced: comments
    stripped, the text split on str whitespace, the first ``count`` tokens
    converted by numpy's str -> int64, and the max_val check that followed.
    A negative value is left for GrayImage's range check."""
    body = re.sub(rb"#[^\r\n]*", b"", body)
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError:
        raise ValueError("malformed P2 raster: non-ASCII bytes") from None
    tokens = text.split()
    if len(tokens) < count:
        raise ValueError(f"truncated P2 pixel data: expected {count} values, got {len(tokens)}")
    try:
        values = np.array(tokens[:count], dtype=np.int64)
    except ValueError:
        raise ValueError("malformed P2 raster: non-numeric pixel value") from None
    except OverflowError:
        raise ValueError(f"P2 pixel value outside [0, {max_val}]") from None
    if values.max() > max_val:
        raise ValueError("pixel value exceeds declared max_val")
    return values


def _read_pgm_outcome(data):
    try:
        return read_pgm(data)
    except ValueError as exc:
        return exc


def assert_p2_parse_matches_oracle(data):
    """read_pgm gives the image the oracle gives, or both raise ValueError
    with one message. Two differences are intended: bytes 0x1c-0x1f are not
    separators and '_' is not part of a number, so a raster the oracle reads
    through them is non-numeric now. A message may also differ when a token
    has more than five significant digits."""
    new = _read_pgm_outcome(data)
    with mock.patch.object(fknne.ingestion, "_p2_raster", _p2_raster_oracle):
        old = _read_pgm_outcome(data)
    if isinstance(old, GrayImage):
        if isinstance(new, ValueError) and re.search(rb"[\x1c-\x1f_]", data):
            assert str(new) == "malformed P2 raster: non-numeric pixel value"
            return
        assert isinstance(new, GrayImage), f"oracle accepts, read_pgm says {new}"
        assert (new.max_val, new.pixels.dtype, new.pixels.shape) == (
            old.max_val, old.pixels.dtype, old.pixels.shape)
        assert new.pixels.tobytes() == old.pixels.tobytes()
    else:
        assert isinstance(new, ValueError), f"oracle says {old}, read_pgm accepts"
        if not re.search(rb"[1-9][0-9]{5}|[\x1c-\x1f_]", data):
            assert str(new) == str(old)


_P2_SEPARATORS = (" ", "\n", "\t", "\r\n", "\x0b", "\x0c", " \n  ", " # note 12\n", "#\r")
_P2_TOKENS = (st.integers(0, 65535).map(str)
              | st.from_regex(r"[+-]?0{0,20}[0-9]{1,24}", fullmatch=True))
_P2_JUNK = st.text("0123456789+-_x#", min_size=1, max_size=4)


@st.composite
def p2_files(draw):
    """P2 files of up to 4x4 pixels: in- and out-of-range values, signs,
    leading zeros, long tokens, comments, missing and extra tokens, and
    sometimes one junk token."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    max_val = draw(st.sampled_from((1, 255, 256, 65535)) | st.integers(1, 65535))
    ntok = max(0, width * height + draw(st.integers(-2, 3)))
    tokens = draw(st.lists(_P2_TOKENS, min_size=ntok, max_size=ntok))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, ntok - 1))] = draw(_P2_JUNK)
    seps = draw(st.lists(st.sampled_from(_P2_SEPARATORS), min_size=ntok + 1,
                         max_size=ntok + 1))
    raster = "".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[-1]
    return f"P2\n{width} {height}\n{max_val}".encode() + raster.encode("ascii")


class TestP2Raster:
    """The numpy P2 tokenizer against the str.split parser it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(p2_files())
    def test_generated_files_match_the_oracle(self, data):
        assert_p2_parse_matches_oracle(data)

    @pytest.mark.parametrize("name", ["p2", "p2-16bit"])
    def test_mutated_rasters_match_the_oracle(self, name):
        seed = PGM_SEEDS[name]
        header = re.match(rb"P2\s(#[^\n]*\n)?\d+ \d+\s\d+", seed).end()

        @settings(max_examples=150, deadline=None)
        @given(mutated(seed[header:]))
        def check(raster):
            assert_p2_parse_matches_oracle(seed[:header] + raster)

        check()

    @pytest.mark.parametrize("raster, max_val", [
        (b" +5 -0 007 99", 255),
        (b"\n1 2 3 4 junk +", 255),      # tokens after the last pixel are not read
        (b" 1 2\n3", 255),                # truncated
        (b" 1 2 3 4", 3),                 # exceeds max_val
        (b" 1 -2 3 4", 255),              # negative
        (b" 1 2 3 4 5", 4),               # an extra token beyond max_val is ignored
        (b" 000000000000000000000042 0 1 +00065535", 65535),
        (b" 1 2 3 -000000000000000000001", 255),
        (b" + 1 2 3", 255), (b" 1- 2 3 4", 255), (b" +-1 2 3 4", 255),
        (b" 1+2 3 4 5", 255), (b" 1 2 3 4-", 255), (b" 1 2 3 0x1", 255),
        (b"#c\n1#c\n2 3# 4\r4", 255),    # comments end at \r or \n
        (b" 1 2 3 4 \xc3\xa9", 255),     # non-ASCII anywhere in the raster
        (b" 1 2 3 4\x1c", 255),          # after the last pixel, both agree
        (b" 1 2 3\x1c4", 255),           # short here, but the oracle splits at 0x1c
        (b" 1 2 x", 255),                # the oracle counts before it converts
    ])
    def test_edge_cases_match_the_oracle(self, raster, max_val):
        assert_p2_parse_matches_oracle(b"P2 2 2 %d" % max_val + raster)

    @pytest.mark.parametrize("raster", [b" 1\x1c2", b" 1\x1f2", b" 1_0"])
    def test_only_header_whitespace_separates_and_digits_are_plain(self, raster):
        data = b"P2 1 1 255" + raster
        with mock.patch.object(fknne.ingestion, "_p2_raster", _p2_raster_oracle):
            read_pgm(data)  # str.split() and str -> int read these
        with pytest.raises(ValueError, match="^malformed P2 raster: non-numeric pixel value$"):
            read_pgm(data)

    @pytest.mark.parametrize("token", [b"100000", b"-100000", b"0100000", b"18446744073709551616"])
    def test_six_significant_digits_are_out_of_range(self, token):
        with pytest.raises(ValueError, match=r"^P2 pixel value outside \[0, 65535\]$"):
            read_pgm(b"P2 2 1 65535 7 " + token)


def blocks_of(nbytes):
    """Parse P2 rasters in blocks of about ``nbytes`` bytes."""
    return mock.patch.object(fknne.ingestion, "_BLOCK_BYTES", nbytes)


class TestP2RasterBlocks:
    """The oracle properties again, in blocks of a few bytes: every file
    spans many blocks, some tokens are longer than a block, and some blocks
    hold only separators."""

    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_generated_files_match_the_oracle(self, block):
        @settings(max_examples=150, deadline=None)
        @given(p2_files())
        def check(data):
            assert_p2_parse_matches_oracle(data)

        with blocks_of(block):
            check()

    @pytest.mark.parametrize("block", [1, 3, 8])
    @pytest.mark.parametrize("name", ["p2", "p2-16bit"])
    def test_mutated_rasters_match_the_oracle(self, name, block):
        seed = PGM_SEEDS[name]
        header = re.match(rb"P2\s(#[^\n]*\n)?\d+ \d+\s\d+", seed).end()

        @settings(max_examples=100, deadline=None)
        @given(mutated(seed[header:]))
        def check(raster):
            assert_p2_parse_matches_oracle(seed[:header] + raster)

        with blocks_of(block):
            check()

    @pytest.mark.parametrize("raster, message", [
        # Non-numeric beats a 6-digit token in an earlier block.
        (b" 100000    1    2    x", "malformed P2 raster: non-numeric pixel value"),
        # Above max_val beats a negative value, in either order.
        (b" 300    1    2   -1", "pixel value exceeds declared max_val"),
        (b" -1    1    2   300", "pixel value exceeds declared max_val"),
        # A 6-digit token beats a value above max_val in an earlier block.
        (b" 300    1    2    0100000", r"P2 pixel value outside [0, 255]"),
        # The token count beats junk in an earlier block.
        (b" x    1    2", "truncated P2 pixel data: expected 4 values, got 3"),
        # A short raster with 0x1c in its last block is non-numeric.
        (b" 1    2    3\x1c", "malformed P2 raster: non-numeric pixel value"),
        # A token longer than a block, comments and separator-only blocks.
        (b" 000000000255 #c\n\n\n\n\n 1 # 2\r 3 \t\t\t\t 4 9x", None),
    ])
    def test_faults_in_different_blocks(self, raster, message):
        data = b"P2 2 2 255" + raster
        with blocks_of(4):
            assert_p2_parse_matches_oracle(data)
            if message is None:
                assert read_pgm(data).pixels.tolist() == [[255, 1], [3, 4]]
            else:
                with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                    read_pgm(data)

    def test_large_sixteen_bit_raster_at_the_real_block_size(self):
        rng = np.random.default_rng(14)
        size = 300
        values = rng.integers(0, 65536, size=size * size)
        values[rng.random(values.size) < 0.05] = 0
        seps = np.array([" ", "\n", "\t", "\r\n", "\x0b", "\x0c", " \n  ", " # note 12\n", "#\r"])
        signs = np.array(["", "", "", "+", "-"])
        parts = []
        for v, sep, sign, zeros in zip(values.tolist(), rng.choice(seps, values.size).tolist(),
                                       rng.choice(signs, values.size).tolist(),
                                       rng.integers(0, 4, size=values.size).tolist()):
            parts.append(sep + ("-" if sign == "-" and v == 0 else sign.strip("-")) + "0" * zeros
                         + str(v))
        data = f"P2\n{size} {size}\n65535".encode() + "".join(parts).encode() + b"\n"
        assert len(data) > 20 * fknne.ingestion._BLOCK_BYTES
        img = read_pgm(data)
        assert img.pixels.dtype == np.uint16
        assert img.pixels.tobytes() == values.astype(np.uint16).tobytes()
        assert_p2_parse_matches_oracle(data)


class TestP2RasterMemory:
    @staticmethod
    def traced_peak(data):
        tracemalloc.start()
        try:
            outcome = _read_pgm_outcome(data)
            return outcome, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parse_peak_is_a_few_times_the_file(self):
        img = np.random.default_rng(0).integers(0, 256, size=(512, 512))
        data = write_pgm(GrayImage(img, 255), binary=False)
        assert 0.9e6 < len(data) < 1e6
        parsed, peak = self.traced_peak(data)
        assert isinstance(parsed, GrayImage) and np.array_equal(parsed.pixels, img)
        assert peak <= 4 * len(data), peak / len(data)

    @pytest.mark.parametrize("side", [65535, 10**8])
    def test_huge_declared_raster_is_not_preallocated(self, side):
        outcome, peak = self.traced_peak(b"P2 %d %d 255 1 2 3" % (side, side))
        assert str(outcome) == f"truncated P2 pixel data: expected {side * side} values, got 3"
        assert peak < 1 << 20, peak


def _p5_range_oracle(data):
    """read_pgm's P5 outcome with the raster's range always scanned."""
    header = re.match(rb"P5\n(\d+) (\d+)\n(\d+)\n", data)
    width, height, max_val = map(int, header.groups())
    values = np.frombuffer(data, dtype=">u1" if max_val <= 255 else ">u2",
                           offset=header.end())
    if values.max() > max_val:
        return ValueError("pixel value exceeds declared max_val")
    return GrayImage(values.astype(np.int64).reshape(height, width), max_val)


class TestP5RangeScan:
    """read_pgm skips the P5 range scan where the dtype cannot exceed
    max_val (uint8 at 255, uint16 at 65535) and scans at every other
    max_val."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_always_scanning_oracle(self, data):
        max_val = data.draw(st.sampled_from((1, 200, 254, 255, 256, 4095, 65534, 65535))
                            | st.integers(1, 65535))
        dtype = np.dtype(">u1" if max_val <= 255 else ">u2")
        width, height = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        pixel = st.integers(0, max_val) | st.integers(max_val, np.iinfo(dtype).max)
        raster = np.array(data.draw(st.lists(pixel, min_size=width * height,
                                             max_size=width * height)), dtype=dtype)
        pgm = f"P5\n{width} {height}\n{max_val}\n".encode() + raster.tobytes()
        new, old = _read_pgm_outcome(pgm), _p5_range_oracle(pgm)
        if isinstance(old, ValueError):
            assert isinstance(new, ValueError) and str(new) == str(old)
        else:
            assert new == old and new.pixels.dtype == dtype.newbyteorder("=")

    @pytest.mark.parametrize("max_val", [255, 65535])
    def test_every_value_of_the_dtype_loads(self, max_val):
        values = np.arange(max_val + 1).reshape(-1, 256)
        assert read_pgm(write_pgm(GrayImage(values, max_val))) == GrayImage(values, max_val)

    @pytest.mark.parametrize("max_val", [1, 127, 254, 256, 4095, 65534])
    def test_a_pixel_above_max_val_below_the_dtype_maximum_raises(self, max_val):
        width = 1 if max_val <= 255 else 2
        data = bytearray(write_pgm(GrayImage(np.zeros((3, 4), np.int64), max_val)))
        data[-5 * width : -4 * width] = (max_val + 1).to_bytes(width, "big")
        with pytest.raises(ValueError, match="^pixel value exceeds declared max_val$"):
            read_pgm(bytes(data))
