"""Reading mammogram images and ROI annotations, cropping and quantizing.

Images are plain PGM (P2 ASCII or P5 binary). Annotations follow the MIAS
index layout: one whitespace-separated record per line with reference,
tissue code, abnormality class, severity and (for abnormal records) the
abnormality centre and approximate radius in pixels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

BENIGN = "benign"
MALIGNANT = "malignant"

_WHITESPACE = b" \t\r\n\x0b\x0c"


@dataclass(frozen=True, slots=True, eq=False)
class GrayImage:
    """Rectangular grid of integer intensities with a declared maximum.

    Pixels are held as a read-only 2-D array (height x width, row-major),
    every value in [0, max_val].
    """

    pixels: np.ndarray
    max_val: int

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("pixels must form a non-empty 2-D grid")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("pixel values must be integers")
        max_val = int(self.max_val)
        if max_val < 1:
            raise ValueError("max_val must be a positive integer")
        if arr.min() < 0 or arr.max() > max_val:
            raise ValueError("pixel values must lie in [0, max_val]")
        arr = arr.astype(np.int32)
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
    """One annotated abnormality: centre, radius and severity label."""

    id: str
    center_x: int
    center_y: int
    radius: int
    label: str

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.label not in (BENIGN, MALIGNANT):
            raise ValueError(f"label must be {BENIGN!r} or {MALIGNANT!r}, got {self.label!r}")
        object.__setattr__(self, "id", str(self.id))
        for name in ("center_x", "center_y", "radius"):
            object.__setattr__(self, name, int(getattr(self, name)))


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comments (to end of line) before the token.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ValueError("truncated PGM header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE + b"#":
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise ValueError(f"malformed PGM {what}: {tok!r}") from None


def read_pgm(data: bytes) -> GrayImage:
    """Parse PGM bytes (magic P2 or P5) into a GrayImage.

    '#' comments are allowed anywhere in the header. P5 raster values are
    one byte per pixel, or two bytes big-endian when max_val > 255. P2 and
    P5 encodings of the same content parse to equal GrayImage values.
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
        body = re.sub(rb"#[^\r\n]*", b"", data[pos:])
        try:
            text = body.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("malformed P2 raster: non-ASCII bytes") from None
        tokens = text.split()
        if len(tokens) < count:
            raise ValueError(
                f"truncated P2 pixel data: expected {count} values, got {len(tokens)}"
            )
        try:
            pixels = np.array(tokens[:count], dtype=np.int64)
        except ValueError:
            raise ValueError("malformed P2 raster: non-numeric pixel value") from None
        except OverflowError:
            raise ValueError(f"P2 pixel value outside [0, {max_val}]") from None
    else:
        # Exactly one whitespace byte separates the header from the raster.
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise ValueError("malformed P5 header: missing raster separator")
        pos += 1
        nbytes = count * (2 if max_val > 255 else 1)
        raw = data[pos : pos + nbytes]
        if len(raw) < nbytes:
            raise ValueError(
                f"truncated P5 pixel data: expected {nbytes} bytes, got {len(raw)}"
            )
        dtype = ">u2" if max_val > 255 else np.uint8
        pixels = np.frombuffer(raw, dtype=dtype).astype(np.int64)

    if pixels.max() > max_val:
        raise ValueError("pixel value exceeds declared max_val")
    return GrayImage(pixels.reshape(height, width), max_val)


def write_pgm(img: GrayImage, binary: bool = True) -> bytes:
    """Serialize a GrayImage as P5 (binary) or P2 (ASCII) bytes."""
    if img.max_val > 65535:
        raise ValueError("PGM cannot store max_val > 65535")
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{img.max_val}\n"
    if binary:
        dtype = ">u2" if img.max_val > 255 else np.uint8
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
    image) gets "-2", "-3", ... appended to keep ids unique.
    """
    specs = []
    seen: dict[str, int] = {}
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
        try:
            specs.append(RoiSpec(roi_id, x, image_height - 1 - y, radius, label))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return specs


def crop_roi(img: GrayImage, roi: RoiSpec, side: int | None = None) -> GrayImage:
    """Cut the square window of the given side (default 2*radius+1) centred
    on the ROI, clamped to the image bounds."""
    if not (0 <= roi.center_x < img.width and 0 <= roi.center_y < img.height):
        raise ValueError(
            f"ROI centre ({roi.center_x},{roi.center_y}) outside "
            f"{img.width}x{img.height} image"
        )
    if side is None:
        side = 2 * roi.radius + 1
    elif side < 1:
        raise ValueError("side must be a positive integer")
    x0 = roi.center_x - (side - 1) // 2
    y0 = roi.center_y - (side - 1) // 2
    x1, y1 = x0 + side, y0 + side
    x0, y0 = max(x0, 0), max(y0, 0)
    x1, y1 = min(x1, img.width), min(y1, img.height)
    return GrayImage(img.pixels[y0:y1, x0:x1], img.max_val)


def minmax_normalize(values) -> np.ndarray:
    """Rescale to [0, 1] via (x - min) / (max - min).

    A constant input maps to all zeros so that degenerate features stay
    inert instead of sitting mid-scale.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty sequence")
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def quantize(img: GrayImage, levels: int) -> GrayImage:
    """Reduce gray depth to ``levels`` bins: g' = floor(g*levels/(max_val+1)).

    The result has max_val = levels - 1. Quantization is monotone and maps
    the full input range onto {0, ..., levels-1}.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    if levels > img.max_val + 1:
        raise ValueError(f"levels={levels} exceeds available depth {img.max_val + 1}")
    q = (img.pixels.astype(np.int64) * levels) // (img.max_val + 1)
    return GrayImage(q, levels - 1)
