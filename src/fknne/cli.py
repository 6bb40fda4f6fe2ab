"""Batch front-end: feature extraction, evaluation and classifier comparison.

Exit codes: 0 success, 1 internal error, 2 invalid input or partial
failure. Every command is deterministic given its inputs, flags and seed,
and never mutates its inputs. The default output directory is the current
one, overridable through the FKNNE_OUT environment variable; explicit
path flags always win.
"""

from __future__ import annotations

import argparse
import os
import re
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
    report_json_text,
    write_feature_csv,
    write_roc_csv,
)
from .ingestion import crop_roi, parse_mias_index, read_pgm
from .synthetic import two_cluster_dataset
from .texture import FEATURE_NAMES, ExtractionConfig, extract_all


def _out_path(explicit, default_name: str) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("FKNNE_OUT", ".")) / default_name


def _image_ref(roi_id: str) -> str:
    # Repeated index references get "-2", "-3" id suffixes; the image file
    # is named after the bare reference.
    return re.sub(r"-\d+$", "", roi_id)


def cmd_extract(args) -> int:
    index_text = Path(args.index).read_text(encoding="utf-8")
    rois = sorted(parse_mias_index(index_text, image_height=args.image_height),
                  key=lambda r: r.id)
    if not rois:
        print("index contains no coordinate-bearing records", file=sys.stderr)
        return 2
    cfg = ExtractionConfig(levels=args.levels, distance=args.distance,
                           symmetric=args.symmetric)
    rows = []
    failures = []
    for roi in rois:
        image_path = Path(args.images) / f"{_image_ref(roi.id)}.pgm"
        try:
            img = read_pgm(image_path.read_bytes())
            fv = extract_all(crop_roi(img, roi, side=args.side), cfg)
        except (OSError, ValueError) as exc:
            failures.append((roi.id, str(exc)))
            continue
        rows.append((roi.id, roi.label, fv.values))

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
    return ClassifierConfig(
        kind=kind,
        k=k,
        m=args.m,
        init=args.init,
        k_init=args.k_init,
        normalize=not args.no_normalize,
    )


def _protocol(args):
    if args.protocol == "kfold":
        return KFold(k=args.folds, seed=args.seed)
    if args.protocol == "loocv":
        return Loocv()
    return Holdout(fraction=args.fraction, seed=args.seed)


def _load_dataset(args):
    data = read_feature_csv(args.features)
    if args.feature_mask:
        wanted = [n.strip() for n in args.feature_mask.split(",") if n.strip()]
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
    for m in methods:
        if m not in KINDS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(KINDS)}")
    if args.k_sweep:
        ks = [int(v) for v in args.k_sweep.split(",") if v.strip()]
    else:
        ks = [args.k]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fknne",
        description="Texture feature extraction and nearest-neighbour "
                    "classification for benign/malignant mass ROIs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract texture features from PGM images")
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
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eval", help="evaluate one classifier on a feature CSV")
    p.add_argument("--features", required=True, help="feature CSV path")
    _add_classifier_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--out-json", default=None, dest="out_json")
    p.add_argument("--out-roc", default=None, dest="out_roc")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare several classifiers on one CSV")
    p.add_argument("--features", required=True, help="feature CSV path")
    p.add_argument("--methods", default=",".join(KINDS),
                   help="comma-separated subset of knn,fknn,knne,fknne")
    p.add_argument("--k-sweep", default=None, dest="k_sweep",
                   help="comma-separated k values; one row per (method, k)")
    _add_classifier_flags(p, with_method=False)
    _add_protocol_flags(p)
    p.add_argument("--out-json", default=None, dest="out_json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="write the bundled synthetic two-cluster CSV")
    p.add_argument("--out", default=None, help="output feature CSV path")
    p.add_argument("--n-per-class", type=int, default=30, dest="n_per_class")
    p.add_argument("--dim", type=int, default=4, help="feature count")
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
