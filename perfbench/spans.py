"""Outside-in tracing of the fknne package.

Public functions are wrapped from outside the package and each call is
recorded as a span. A name bound with ``from ... import`` is looked up in
the importing module, so a wrapper is installed at the lookup site, not
where the function is defined: ``fknne.cli.read_pgm`` is what the CLI
calls, while ``fknne.ingestion.read_pgm`` is never looked up there.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (owner at the lookup site, attribute, span name). Span names are
# "<module where the function is defined>.<function>"; the root span is the
# whole CLI invocation and its self time is the CLI's own work.
SITES = (
    ("fknne.cli", "main", "cli"),
    ("fknne.cli", "parse_mias_index", "ingestion.parse_mias_index"),
    ("fknne.cli", "read_pgm", "ingestion.read_pgm"),
    ("fknne.cli", "crop_roi", "ingestion.crop_roi"),
    ("fknne.texture", "quantize", "ingestion.quantize"),
    ("fknne.cli", "extract_all", "texture.extract_all"),
    ("fknne.texture", "compute_glcm", "texture.compute_glcm"),
    ("fknne.texture", "compute_glrlm", "texture.compute_glrlm"),
    ("fknne.texture", "compute_gldm", "texture.compute_gldm"),
    ("fknne.texture", "haralick_features", "texture.haralick_features"),
    ("fknne.texture", "runlength_features", "texture.runlength_features"),
    ("fknne.texture", "gldm_features", "texture.gldm_features"),
    ("fknne.cli", "read_feature_csv", "formats.read_feature_csv"),
    ("fknne.cli", "compare_classifiers", "evaluation.compare_classifiers"),
    ("fknne.cli", "evaluate", "evaluation.evaluate"),
    ("fknne.evaluation", "evaluate", "evaluation.evaluate"),
    ("fknne.evaluation", "fit", "classifiers.fit"),
    ("fknne.evaluation", "predict", "classifiers.predict"),
    ("fknne.evaluation", "roc_curve", "evaluation.roc_curve"),
    ("fknne.evaluation", "confusion", "evaluation.confusion"),
    ("fknne.classifiers.Dataset", "subset", "classifiers.Dataset.subset"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SITES))


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then walk the rest
    as attributes (``fknne.classifiers.Dataset`` is a class)."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


@contextmanager
def patched(sites):
    """Replace ``owner.attr`` by ``make(original)`` for each (owner path,
    attr, make) and put every original back on exit."""
    saved = []
    try:
        for owner_path, attr, make in sites:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _border_clamped(args, kwargs, result) -> bool:
    # crop_roi(img, roi, side=None): a crop smaller than the requested
    # square was clamped at the image border.
    roi = args[1] if len(args) > 1 else kwargs["roi"]
    side = kwargs.get("side") or 2 * roi.radius + 1
    return result.pixels.shape != (side, side)


class Tracer:
    """Records one span per wrapped call and the counts taken at the
    boundaries. Spans stay in memory until ``spans`` is read."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end, self seconds)
        self.counts = Counter()
        self._stack = []  # [span id, seconds spent in child spans]

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, name, start, end, end - start - frame[1]))
            if name == "ingestion.crop_roi" and _border_clamped(args, kwargs, result):
                self.counts["ingestion.border_clamped"] += 1
            return result

        return traced

    def installed(self):
        """Context manager that wraps every site in SITES."""
        return patched([(owner, attr, functools.partial(self._wrap, name))
                        for owner, attr, name in SITES])

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _, _, name, start, end, self_s in self.spans:
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += self_s
        return dict(out)
