"""Batch front-end: feature extraction, evaluation and classifier comparison.

Exit codes: 0 success, 1 internal error, 2 invalid input or partial
failure. Every command is deterministic given its inputs, flags and seed,
and never mutates its inputs. The default output directory is the current
one, overridable through the FKNNE_OUT environment variable; explicit
path flags always win.
"""

from __future__ import annotations

import argparse
import math
import mmap
import os
import sys
from pathlib import Path

from .classifiers import KINDS, ClassifierConfig
from .evaluation import (
    ComparisonRow,
    ComparisonTable,
    Holdout,
    KFold,
    Loocv,
    compare_classifiers,
    evaluate,
)
from .formats import (
    comparison_json_text,
    feature_rows_text,
    read_feature_csv,
    read_utf8,
    report_json_text,
    write_feature_csv,
    write_roc_csv,
)
from .ingestion import _check_int, crop_roi, parse_mias_index, read_pgm
from .synthetic import two_cluster_dataset
from .texture import _MAX_LEVELS, FEATURE_NAMES, ExtractionConfig, extract_all


def _out_path(explicit, default_name: str) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("FKNNE_OUT", ".")) / default_name


def _image_data(path: Path):
    """The bytes of image file ``path``: a read-only memory map when the file
    starts with the P5 magic, so only the pages of the rows cropped are read,
    else the whole file. A file the kernel does not map (a pipe, a device) is
    read whole. The map is unmapped when its last view is freed."""
    with open(path, "rb", buffering=0) as f:
        head = f.read(2)
        if head == b"P5":
            try:
                return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except OSError:
                pass
        if not f.seekable():
            return head + f.readall()
        # Read from the start: joining the head to the rest would copy the file.
        f.seek(0)
        return f.readall()


def _extract_image(path: Path, rois, cfg: ExtractionConfig, side) -> dict:
    """Read one image once and extract every ROI on it: per ROI id, its
    feature values and None, or None and the failure message. The image is
    freed on return, so one raster is held at a time."""
    try:
        img = read_pgm(_image_data(path))
    except (OSError, ValueError) as exc:
        return {roi.id: (None, str(exc)) for roi in rois}
    results = {}
    for roi in rois:
        try:
            results[roi.id] = (extract_all(crop_roi(img, roi, side=side), cfg).values, None)
        except ValueError as exc:
            results[roi.id] = (None, str(exc))
    return results


def _extraction_config(args) -> ExtractionConfig:
    if not 2 <= args.levels <= _MAX_LEVELS:
        raise ValueError(f"--levels must be in [2, {_MAX_LEVELS}]")
    _check_int("--distance", args.distance, 1)
    if args.side is not None:
        _check_int("--side", args.side, 1)
    if args.side is not None and args.side <= args.distance:
        raise ValueError("--side must be greater than --distance")
    _check_int("--image-height", args.image_height, 1)
    return ExtractionConfig(levels=args.levels, distance=args.distance,
                            symmetric=args.symmetric)


def cmd_extract(args) -> int:
    cfg = _extraction_config(args)
    index_text = read_utf8(args.index)
    rois = sorted(parse_mias_index(index_text, image_height=args.image_height),
                  key=lambda r: r.id)
    if not rois:
        print("index contains no coordinate-bearing records", file=sys.stderr)
        return 2
    by_image: dict[str, list] = {}
    for roi in rois:
        by_image.setdefault(roi.reference, []).append(roi)
    results = {}
    for ref, on_image in by_image.items():
        results.update(_extract_image(Path(args.images) / f"{ref}.pgm", on_image, cfg,
                                      args.side))
    rows = []
    failures = []
    for roi in rois:  # id order, whatever the image order
        values, error = results[roi.id]
        if error is None:
            rows.append((roi.id, roi.label, values))
        else:
            failures.append((roi.id, error))

    out = _out_path(args.out, "features.csv")
    if failures:
        out = out.with_name(out.name + ".partial")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(feature_rows_text(FEATURE_NAMES, rows), encoding="utf-8", newline="")
    print(f"wrote {len(rows)} feature rows to {out}")
    if failures:
        for sid, msg in failures:
            print(f"failed {sid}: {msg}", file=sys.stderr)
        print(f"{len(failures)} of {len(rois)} ROIs failed", file=sys.stderr)
        return 2
    return 0


def _classifier_config(args, kind: str, k: int) -> ClassifierConfig:
    _check_int("--k", k, 1)
    if not args.m > 1.0:
        raise ValueError("--m must be > 1")
    if not math.isfinite(args.m):
        raise ValueError("--m must be finite")
    if args.k_init is not None:
        _check_int("--k-init", args.k_init, 1)
    return ClassifierConfig(
        kind=kind,
        k=k,
        m=args.m,
        init=args.init,
        k_init=args.k_init,
        normalize=not args.no_normalize,
    )


def _protocol(args):
    if args.protocol == "loocv":
        return Loocv()
    _check_int("--seed", args.seed, 0)
    if args.protocol == "kfold":
        _check_int("--folds", args.folds, 2)
        return KFold(k=args.folds, seed=args.seed)
    if not 0.0 < args.fraction < 1.0:
        raise ValueError("--fraction must be in (0, 1)")
    return Holdout(fraction=args.fraction, seed=args.seed)


def _load_dataset(args):
    data = read_feature_csv(args.features)
    if args.feature_mask is not None:
        wanted = [n.strip() for n in args.feature_mask.split(",") if n.strip()]
        if not wanted:
            raise ValueError("--feature-mask lists no feature")
        data = data.select_features(wanted)
    return data


def cmd_eval(args) -> int:
    data = _load_dataset(args)
    report = evaluate(data, _classifier_config(args, args.method, args.k), _protocol(args),
                      positive_class=args.positive)

    stem = Path(args.features).stem
    out_json = _out_path(args.out_json, f"{stem}.report.json")
    out_roc = _out_path(args.out_roc, f"{stem}.roc.csv")
    out_json.parent.mkdir(parents=True, exist_ok=True)
    out_roc.parent.mkdir(parents=True, exist_ok=True)
    out_json.write_text(report_json_text(report, features=data.feature_names),
                        encoding="utf-8")
    write_roc_csv(out_roc, report.roc)

    print(ComparisonTable((ComparisonRow.from_report(report, report.config.kind),)).render_text())
    avg = report.averaged
    avg_txt = ", ".join(f"{k}={v:.4f}" if v is not None else f"{k}=n/a"
                        for k, v in avg.items())
    print(f"pooled over {report.pooled.total} test predictions; "
          f"fold average: {avg_txt}")
    print(f"report: {out_json}\nroc: {out_roc}")
    return 0


def cmd_compare(args) -> int:
    data = _load_dataset(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("--methods lists no method")
    for i, m in enumerate(methods):
        if m not in KINDS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(KINDS)}")
        if m in methods[:i]:
            raise ValueError(f"--methods: {m!r} is repeated")
    ks = [args.k]
    if args.k_sweep is not None:
        ks = []
        for v in filter(None, (v.strip() for v in args.k_sweep.split(","))):
            try:
                ks.append(int(v))
            except ValueError:
                raise ValueError(f"--k-sweep: {v!r} is not an integer") from None
            if ks[-1] < 1:
                raise ValueError(f"--k-sweep: {v!r} is below 1")
            if ks[-1] in ks[:-1]:
                raise ValueError(f"--k-sweep: {v!r} is repeated")
        if not ks:
            raise ValueError("--k-sweep lists no k")
    configs = [_classifier_config(args, m, k) for m in methods for k in ks]
    table = compare_classifiers(data, configs, _protocol(args),
                                positive_class=args.positive)
    stem = Path(args.features).stem
    out_json = _out_path(args.out_json, f"{stem}.compare.json")
    out_json.parent.mkdir(parents=True, exist_ok=True)
    out_json.write_text(comparison_json_text(table), encoding="utf-8")
    print(table.render_text())
    print(f"comparison: {out_json}")
    return 0


def cmd_synth(args) -> int:
    _check_int("--seed", args.seed, 0)
    _check_int("--n-per-class", args.n_per_class, 1)
    _check_int("--dim", args.dim, 1)
    if not (math.isfinite(args.spread) and args.spread >= 0):
        raise ValueError("--spread must be finite and >= 0")
    if not math.isfinite(args.separation):
        raise ValueError("--separation must be finite")
    data = two_cluster_dataset(n_per_class=args.n_per_class, n_features=args.dim,
                               separation=args.separation, spread=args.spread,
                               seed=args.seed)
    out = _out_path(args.out, "synthetic.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_feature_csv(out, data)
    print(f"wrote {len(data)} samples to {out}")
    return 0


def _add_classifier_flags(p, with_method=True):
    if with_method:
        p.add_argument("--method", choices=KINDS, default="fknne",
                       help="decision rule (default fknne)")
    p.add_argument("--k", type=int, default=3, help="neighbourhood size (default 3)")
    p.add_argument("--m", type=float, default=2.0,
                   help="fuzzifier exponent, > 1 (default 2)")
    p.add_argument("--init", choices=("crisp", "keller"), default="crisp",
                   help="training membership initialization (default crisp)")
    p.add_argument("--k-init", type=int, default=None, dest="k_init",
                   help="neighbourhood size for keller init (default: k)")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip per-feature min-max normalization")
    p.add_argument("--feature-mask", default=None,
                   help="comma-separated feature names to keep")
    p.add_argument("--positive", default=None,
                   help="positive class (default: malignant when present)")


def _add_protocol_flags(p):
    p.add_argument("--protocol", choices=("kfold", "loocv", "holdout"),
                   default="kfold")
    p.add_argument("--folds", type=int, default=10, help="kfold fold count")
    p.add_argument("--fraction", type=float, default=0.3, help="holdout test fraction")
    p.add_argument("--seed", type=int, default=0, help="shuffling seed")


def _add_extract_flags(p):
    p.add_argument("--images", required=True, help="directory of <ref>.pgm files")
    p.add_argument("--index", required=True, help="annotation index file")
    p.add_argument("--out", default=None, help="output feature CSV path")
    p.add_argument("--levels", type=int, default=16, help="quantization levels")
    p.add_argument("--distance", type=int, default=1, help="co-occurrence offset distance")
    p.add_argument("--symmetric", action="store_true", help="symmetric co-occurrence")
    p.add_argument("--side", type=int, default=None,
                   help="square ROI side in pixels (default: 2*radius+1)")
    p.add_argument("--image-height", type=int, default=1024, dest="image_height",
                   help="image height used to flip index y coordinates")


def _add_eval_flags(p):
    p.add_argument("--features", required=True, help="feature CSV path")
    _add_classifier_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--out-json", default=None, dest="out_json")
    p.add_argument("--out-roc", default=None, dest="out_roc")


def _add_compare_flags(p):
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--methods", default=",".join(KINDS),
                   help="comma-separated subset of knn,fknn,knne,fknne")
    p.add_argument("--k-sweep", default=None, dest="k_sweep",
                   help="comma-separated k values; one row per (method, k)")
    _add_classifier_flags(p, with_method=False)
    _add_protocol_flags(p)
    p.add_argument("--out-json", default=None, dest="out_json")


def _add_synth_flags(p):
    p.add_argument("--out", default=None, help="output feature CSV path")
    p.add_argument("--n-per-class", type=int, default=30, dest="n_per_class")
    p.add_argument("--dim", type=int, default=4, help="feature count")
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)


_COMMANDS = {
    "extract": ("extract texture features from PGM images", _add_extract_flags, cmd_extract),
    "eval": ("evaluate one classifier on a feature CSV", _add_eval_flags, cmd_eval),
    "compare": ("compare several classifiers on one CSV", _add_compare_flags, cmd_compare),
    "synth": ("write the bundled synthetic two-cluster CSV", _add_synth_flags, cmd_synth),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The fknne parser, with every subcommand; only ``command``'s flags are
    added, or every subcommand's when it is None."""
    parser = argparse.ArgumentParser(
        prog="fknne",
        description="Texture feature extraction and nearest-neighbour "
                    "classification for benign/malignant mass ROIs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_flags, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if command in (None, name):
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first
    # argument not starting with '-' is the one argparse dispatches on.
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command if command in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
