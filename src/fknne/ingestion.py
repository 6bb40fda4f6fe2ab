"""Reading mammogram images and ROI annotations, cropping and quantizing.

Images are plain PGM (P2 ASCII or P5 binary). Annotations follow the MIAS
index layout: one whitespace-separated record per line with reference,
tissue code, abnormality class, severity and (for abnormal records) the
abnormality centre and approximate radius in pixels.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

import numpy as np

BENIGN = "benign"
MALIGNANT = "malignant"

_WHITESPACE = b" \t\r\n\x0b\x0c"
# Whitespace and '#' comments, which run to the end of their line, then one
# header token, empty at the end of the data. The match cannot fail, so it
# never backtracks.
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]+|#[^\r\n]*)*([^ \t\r\n\x0b\x0c#]*)")
_SEPARATOR = re.compile(rb"[ \t\r\n\x0b\x0c]")
# A P2 raster is parsed in blocks of about this many bytes: each block's
# temporaries are small, so the allocator reuses them instead of mapping
# fresh pages for every image.
_BLOCK_BYTES = 1 << 15
# P2 raster faults in the order they are reported.
_P2_FAULTS = ("malformed P2 raster: non-numeric pixel value",
              "P2 pixel value outside [0, {max_val}]",
              "pixel value exceeds declared max_val",
              "pixel values must lie in [0, max_val]")


def _check_int(name: str, value, least: int | None = None) -> None:
    """Reject a field ``value`` that is not an integer (numpy's included,
    bool not) of at least ``least``, if given, naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_real(name: str, value) -> None:
    """Reject a field ``value`` that is not a real number (numpy's
    included, bool not), naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_bool(name: str, value) -> None:
    """Reject a field ``value`` that is not a bool (numpy's included), naming the field."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {value!r}")


def _pixel_dtype(max_val: int) -> np.dtype:
    """Smallest native unsigned dtype holding [0, max_val]."""
    return np.dtype(np.uint8 if max_val <= 255 else np.uint16)


@dataclass(frozen=True, slots=True, eq=False)
class GrayImage:
    """Rectangular grid of integer intensities with a declared maximum.

    Pixels are held as a read-only 2-D array (height x width, row-major) of
    ``uint8`` when max_val <= 255 and native-endian ``uint16`` otherwise,
    every value in [0, max_val], max_val at most 65535. A read-only input of
    that dtype is kept as it is (crops share memory with their image);
    any other input is copied once, so a caller's writable array never
    aliases the image.
    """

    pixels: np.ndarray
    max_val: int

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("pixels must form a non-empty 2-D grid")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("pixel values must be integers")
        _check_int("max_val", self.max_val)
        max_val = int(self.max_val)
        if not 1 <= max_val <= 65535:
            raise ValueError("max_val must be an integer in [1, 65535]")
        # No scan when the dtype cannot leave [0, max_val] (uint8 at 255, uint16 at 65535).
        info = np.iinfo(arr.dtype)
        if (info.min < 0 or info.max > max_val) and (arr.min() < 0 or arr.max() > max_val):
            raise ValueError("pixel values must lie in [0, max_val]")
        dtype = _pixel_dtype(max_val)
        if arr.dtype != dtype or arr.flags.writeable:
            arr = arr.astype(dtype)
            arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)
        object.__setattr__(self, "max_val", max_val)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.max_val == other.max_val and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height}, max_val={self.max_val})"


@dataclass(frozen=True, slots=True)
class RoiSpec:
    """One annotated abnormality: centre, radius and severity label, plus
    the index reference that names its image (the id unless given)."""

    id: str
    center_x: int
    center_y: int
    radius: int
    label: str
    reference: str | None = None

    def __post_init__(self):
        _check_int("center_x", self.center_x)
        _check_int("center_y", self.center_y)
        _check_int("radius", self.radius, 1)
        if self.label not in (BENIGN, MALIGNANT):
            raise ValueError(f"label must be {BENIGN!r} or {MALIGNANT!r}, got {self.label!r}")
        object.__setattr__(self, "id", str(self.id))
        ref = self.id if self.reference is None else str(self.reference)
        object.__setattr__(self, "reference", ref)
        for name in ("center_x", "center_y", "radius"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comments (to end of line) before the token.
    match = _HEADER_TOKEN.match(data, pos)
    if not match.group(1):
        raise ValueError("truncated PGM header")
    return match.group(1), match.end()


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise ValueError(f"malformed PGM {what}: {tok!r}") from None


def _p2_raster(body: bytes | memoryview, count: int, max_val: int) -> np.ndarray:
    """The first ``count`` values of a P2 raster, read-only, in the image's dtype.

    '#' comments run to the end of their line. Tokens are separated by the
    header's six whitespace bytes and match ``[+-]?[0-9]+``; tokens after
    the ``count``-th are not read. The raster is parsed in blocks that end
    at the first separator from ``_BLOCK_BYTES`` on, so no token crosses
    two; the per-byte (uint8, bool) and per-token (int64, int32) arrays are
    a block's. A block notes the faults it finds, and they are raised after
    the scan in the order of ``_P2_FAULTS``, whichever block holds them.
    """
    if re.search(rb"#", body):
        body = re.sub(rb"#[^\r\n]*", b"", body)
    buf = np.frombuffer(body, dtype=np.uint8)
    if buf.size and buf.max() >= 128:
        raise ValueError("malformed P2 raster: non-ASCII bytes")
    # n bytes hold at most (n+1)//2 tokens, so a larger count is short: its
    # tokens are only counted.
    out = np.empty(count, _pixel_dtype(max_val)) if count <= (buf.size + 1) // 2 else None
    seen, fault, pos = 0, len(_P2_FAULTS), 0
    while pos < buf.size and seen < count:
        sep = _SEPARATOR.search(body, pos + _BLOCK_BYTES - 1)
        end = sep.end() if sep else buf.size
        raw, pos = buf[pos:end], end
        # Bytes 9-13 (\t \n \v \f \r) and the space, as in _WHITESPACE; uint8
        # arithmetic wraps every byte below 9 above 4.
        ws = (raw == 32) | (raw - 9 <= 4)
        edges = np.flatnonzero(np.diff(np.concatenate(([True], ws, [True]))))
        starts, ends = edges[0::2], edges[1::2]
        filled, seen = seen, seen + len(starts)
        if out is None or not len(starts) or fault == 0:
            continue
        take = min(len(starts), count - filled)
        starts, ends = starts[:take], ends[:take]

        digits = raw[: ends[-1]] - 48  # '0'-'9' -> 0-9; every other byte wraps above 9
        stray = np.count_nonzero(~((digits <= 9) | ws[: ends[-1]]))  # non-digit bytes in tokens
        first, negative = starts, None
        if stray:
            # The only ones allowed are '+' or '-' leading a token that has digits.
            lead = raw[starts]
            signed = ((lead == 43) | (lead == 45)) & (ends - starts > 1)
            if stray != np.count_nonzero(signed):
                fault = 0
                continue
            first, negative = starts + signed, lead == 45

        ndigits = ends - first
        longest = int(ndigits.max())
        if longest > 5:
            # Any nonzero digit left of a token's last five puts it above 99999.
            long = ndigits > 5
            bounds = np.stack((first[long], ends[long] - 5), axis=1).ravel()
            if np.maximum.reduceat(digits, bounds)[0::2].any():
                fault = min(fault, 1)
        # The value from the last five digits, one place at a time: each uint8
        # digit is widened to int32 before it is scaled, since uint8 would wrap;
        # no value reaches 10**5. Places beyond a token's digits are masked;
        # for a short first token they lie before the block, hence the clip.
        at = ends - 1
        values = digits.take(at).astype(np.int32)
        for place in range(1, min(longest, 5)):
            at -= 1
            d = digits.take(at, mode="clip") * (ndigits > place)
            values += np.multiply(d, 10**place, dtype=np.int32)
        if negative is not None:
            np.negative(values, out=values, where=negative)
        if values.max() > max_val:
            fault = min(fault, 2)
        elif values.min() < 0:
            fault = min(fault, 3)
        out[filled : filled + take] = values  # wraps only where a fault is noted

    if seen < count:
        if re.search(rb"[\x1c-\x1f]", body):  # str.split() split at these; here they are in tokens
            raise ValueError(_P2_FAULTS[0])
        raise ValueError(f"truncated P2 pixel data: expected {count} values, got {seen}")
    if fault < len(_P2_FAULTS):
        raise ValueError(_P2_FAULTS[fault].format(max_val=max_val))
    out.flags.writeable = False
    return out


def read_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (magic P2 or P5) into a GrayImage.

    '#' comments are allowed anywhere in the header. P5 raster values are
    one byte per pixel, or two bytes big-endian when max_val > 255. P2 and
    P5 encodings of the same content parse to equal GrayImage values.
    ``data`` may be any bytes-like buffer. An 8-bit P5 image's pixels are a
    view of it, so of a memory-mapped file only the pixels used are read.
    """
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"unknown PGM magic {magic!r} (expected P2 or P5)")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    if width < 1 or height < 1:
        raise ValueError(f"nonpositive PGM dimensions {width}x{height}")
    max_val, pos = _int_token(data, pos, "max_val")
    if max_val < 1 or max_val > 65535:
        raise ValueError(f"PGM max_val must be in [1, 65535], got {max_val}")

    count = width * height
    if magic == b"P2":
        # A view, not a copy, of the raster bytes.
        pixels = _p2_raster(memoryview(data)[pos:], count, max_val)
    else:
        # Exactly one whitespace byte separates the header from the raster.
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise ValueError("malformed P5 header: missing raster separator")
        pos += 1
        dtype = _pixel_dtype(max_val).newbyteorder(">")  # P5 is big-endian
        nbytes = count * dtype.itemsize
        if len(data) - pos < nbytes:
            raise ValueError(
                f"truncated P5 pixel data: expected {nbytes} bytes, got {len(data) - pos}"
            )
        # A read-only view of the bytes; GrayImage keeps 8-bit rasters as they
        # are and byte-swaps 16-bit ones into one native copy. No scan when the
        # dtype cannot exceed max_val (uint8 at 255, uint16 at 65535), so only
        # the rows a caller reads are touched.
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        if max_val < np.iinfo(dtype).max and pixels.max() > max_val:
            raise ValueError("pixel value exceeds declared max_val")
    return GrayImage(pixels.reshape(height, width), max_val)


def write_pgm(img: GrayImage, binary: bool = True) -> bytes:
    """Serialize a GrayImage as P5 (binary) or P2 (ASCII) bytes."""
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{img.max_val}\n"
    if binary:
        dtype = _pixel_dtype(img.max_val).newbyteorder(">")
        return header.encode("ascii") + img.pixels.astype(dtype).tobytes()
    rows = "\n".join(" ".join(str(v) for v in row) for row in img.pixels)
    return (header + rows + "\n").encode("ascii")


def parse_mias_index(text: str, image_height: int = 1024) -> list[RoiSpec]:
    """Parse a MIAS-style annotation index into RoiSpecs.

    Records are ``reference tissue class severity x y radius``; records
    without coordinates (normals) are skipped. Severity B maps to benign
    and M to malignant. Index y coordinates use a bottom-left origin and
    are converted to top-left rows via ``image_height - 1 - y``. A
    reference appearing more than once (several abnormalities on one
    image) gets "-2", "-3", ... appended to keep ids unique; an id that
    still repeats one parsed before is rejected with its line. Each ROI
    keeps its reference, which names its image.
    """
    _check_int("image_height", image_height, 1)
    specs = []
    seen: dict[str, int] = {}
    ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if len(fields) < 7:
            continue
        ref, severity = fields[0], fields[3]
        if severity == "B":
            label = BENIGN
        elif severity == "M":
            label = MALIGNANT
        else:
            raise ValueError(f"line {lineno}: unknown severity {severity!r}")
        try:
            x, y, radius = (int(f) for f in fields[4:7])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed numeric field in {raw!r}") from None
        seen[ref] = seen.get(ref, 0) + 1
        roi_id = ref if seen[ref] == 1 else f"{ref}-{seen[ref]}"
        if roi_id in ids:
            raise ValueError(f"line {lineno}: duplicate ROI id {roi_id!r}")
        ids.add(roi_id)
        try:
            specs.append(RoiSpec(roi_id, x, image_height - 1 - y, radius, label, ref))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return specs


def crop_roi(img: GrayImage, roi: RoiSpec, side: int | None = None) -> GrayImage:
    """Cut the square window of the given side (default 2*radius+1) centred
    on the ROI, clamped to the image bounds. The crop is a view of the
    image's pixels, not a copy."""
    if not (0 <= roi.center_x < img.width and 0 <= roi.center_y < img.height):
        raise ValueError(
            f"ROI centre ({roi.center_x},{roi.center_y}) outside "
            f"{img.width}x{img.height} image"
        )
    if side is None:
        side = 2 * roi.radius + 1
    else:
        _check_int("side", side, 1)
    x0 = roi.center_x - (side - 1) // 2
    y0 = roi.center_y - (side - 1) // 2
    x1, y1 = x0 + side, y0 + side
    x0, y0 = max(x0, 0), max(y0, 0)
    x1, y1 = min(x1, img.width), min(y1, img.height)
    return GrayImage(img.pixels[y0:y1, x0:x1], img.max_val)


def quantize(img: GrayImage, levels: int) -> GrayImage:
    """Reduce gray depth to ``levels`` bins: g' = floor(g*levels/(max_val+1)).

    The result has max_val = levels - 1. Quantization is monotone and maps
    the full input range onto {0, ..., levels-1}.
    """
    _check_int("levels", levels, 2)
    # A numpy integer would fix the product's dtype below.
    levels = int(levels)
    if levels > img.max_val + 1:
        raise ValueError(f"levels={levels} exceeds available depth {img.max_val + 1}")
    # g*levels in the smallest dtype holding max_val*levels (< 2**32), so nothing
    # wraps; every bin is below levels and fits the result's dtype.
    wide = np.multiply(img.pixels, levels, dtype=np.min_scalar_type(img.max_val * levels))
    q = np.floor_divide(wide, img.max_val + 1, out=np.empty(wide.shape, _pixel_dtype(levels - 1)),
                        casting="unsafe")
    q.flags.writeable = False
    return GrayImage(q, levels - 1)
