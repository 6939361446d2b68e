"""Command-line frontend.

Every subcommand writes machine output (JSON or CSV) to stdout and
diagnostics to stderr. Identical invocations produce byte-identical
output. Exit codes: 0 success, 1 check failure, 2 usage or input error,
3 empty-input condition.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .codecs import (C_THETA_CHOICES, AnglePrediction, CodecConfig, FitFunction, Method,
                     analytic_errors, decode, empirical_errors, encode, head_thickness, omega)
from .errors import AngleKitError
from .evaluation import (COCO_THRESHOLDS, MODES, VOC12, canonical_thresholds, evaluate,
                         threshold_label)
from .io_formats import parse_annotation_dir, parse_detections, write_report
from .losses import run_gradient_checks
from .obb import OrientedBox, check_nms_threshold, rotated_iou, rotated_nms

GRADCHECK_TOLERANCE = 1e-4


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _comma_list(text: str, parse, kind: str) -> list:
    """Parse a comma-separated option value, naming the first bad token."""
    values = []
    for token in text.split(","):
        try:
            values.append(parse(token))
        except ValueError:
            raise AngleKitError(f"invalid {kind} {token!r} in {text!r}") from None
    return values


def _parse_box(text: str) -> OrientedBox:
    values = _comma_list(text, float, "box value")
    if len(values) != 5:
        raise AngleKitError(f"box must be 'cx,cy,w,h,theta', got {text!r}")
    return OrientedBox(*values)


def _codec_from_args(args) -> CodecConfig:
    return CodecConfig(method=args.method, c_theta=args.ctheta, window_size=args.window,
                       fit_function=args.fit)


def cmd_encode(args) -> int:
    config = _codec_from_args(args)
    target = encode(args.angle, config)
    _emit({
        "method": config.method.value,
        "c_theta": config.c_theta,
        "omega": omega(config),
        "k": target.class_index,
        "class_vector": [float(v) for v in target.class_vector],
        "residual": target.raw_angle - target.class_index * omega(config),
        "residual_target": target.residual_target,
    })
    return 0


def cmd_decode(args) -> int:
    config = _codec_from_args(args)
    logits = _comma_list(args.logits, float, "logit") if args.logits else []
    pred = AnglePrediction(class_logits=logits, regression_output=args.treg)
    _emit({"theta": decode(pred, config)})
    return 0


def cmd_iou(args) -> int:
    _emit({"iou": rotated_iou(_parse_box(args.box_a), _parse_box(args.box_b))})
    return 0


def _nms(dets, threshold: float, class_agnostic: bool = False) -> list[int]:
    """Indices of the detections rotated NMS keeps, in descending score order.

    Detections suppress each other only within one image and, unless
    class_agnostic, one category."""
    items = [(d.box, d.score, d.image_id if class_agnostic else (d.image_id, d.category))
             for d in dets]
    return rotated_nms(items, threshold)


def cmd_nms(args) -> int:
    check_nms_threshold(args.threshold)
    records = parse_detections(args.detections, strict=False)
    _emit({"kept": _nms(records, args.threshold, args.class_agnostic), "total": len(records)})
    return 0


def cmd_thickness(args) -> int:
    _emit({"thickness": head_thickness(args.method, args.ctheta, args.anchors)})
    return 0


def cmd_codec_report(args) -> int:
    methods = _comma_list(args.methods, Method, "method") if args.methods else Method
    rows = []
    for method in dict.fromkeys(methods):  # each method once, in the order first named
        for c_theta in C_THETA_CHOICES[method]:
            config = CodecConfig(method=method, c_theta=c_theta)
            a_max, a_mean = analytic_errors(config)
            e_max, e_mean = empirical_errors(config, args.grid_step)
            rows.append({
                "method": method.value,
                "c_theta": c_theta,
                "omega": omega(config),
                "analytic_max_error": a_max,
                "analytic_mean_error": a_mean,
                "empirical_max_error": e_max,
                "empirical_mean_error": e_mean,
                "thickness_a9": head_thickness(method, c_theta, 9),
            })
    if args.out == "json":
        _emit(rows)
        return 0
    import csv  # only this output needs it, so eval, iou and nms never load it
    # csv writes a float as its repr, and anything else as its str.
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return 0


def cmd_eval(args) -> int:
    thresholds = canonical_thresholds(
        _comma_list(args.thresholds, float, "IoU threshold") if args.thresholds
        else COCO_THRESHOLDS)
    if args.nms is not None:
        check_nms_threshold(args.nms)
    gts = parse_annotation_dir(args.gt, strict=False)
    if not gts:
        print("no ground-truth records found", file=sys.stderr)
        return 3
    dets = parse_detections(args.det, strict=False)
    if args.nms is not None:
        dets = [dets[i] for i in sorted(_nms(dets, args.nms))]
    report = evaluate(gts, dets, thresholds, mode=args.mode)
    if args.out:
        write_report(report, args.out)
    parts = [f"mAP@{threshold_label(t)}={report.map_by_threshold[t]:.6f}"
             for t in report.thresholds]
    if report.map_50_95 is not None:
        parts.append(f"mAP@0.50:0.95={report.map_50_95:.6f}")
    print(", ".join(parts))
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_checks(seed=args.seed, points=args.points)
    errors = {name: r.max_relative_error for name, r in results.items()}
    failed = {name: r for name, r in results.items()
              if r.max_relative_error >= GRADCHECK_TOLERANCE}
    _emit({
        "passed": not failed,
        "tolerance": GRADCHECK_TOLERANCE,
        "seed": args.seed,
        "max_relative_error": errors,
    })
    if failed:
        for name, r in sorted(failed.items()):
            print(f"gradient check failed: {name} rel_err={r.max_relative_error:.3e} "
                  f"at point {list(r.worst_point)}", file=sys.stderr)
        return 1
    return 0


def _add_codec_flags(parser):
    parser.add_argument("--method", required=True, choices=[m.value for m in Method])
    parser.add_argument("--ctheta", type=int, default=CodecConfig.c_theta,
                        help="angle bin count (0 = per-method default)")
    parser.add_argument("--window", type=float, default=CodecConfig.window_size,
                        help="CSL window size")
    parser.add_argument("--fit", default=CodecConfig.fit_function.value,
                        choices=[f.value for f in FitFunction],
                        help="residual fitting function")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anglekit",
                                     description="Oriented-box angle codecs and evaluation")
    parser.add_argument("--version", action="version", version=f"anglekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode an angle into a codec target")
    _add_codec_flags(p)
    p.add_argument("--angle", type=float, required=True,
                   help="ground-truth angle in degrees, [0, 180)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode logits and residual into an angle")
    _add_codec_flags(p)
    p.add_argument("--logits", default="",
                   help="comma-separated class logits (use --logits=-1,2,... for negatives)")
    p.add_argument("--treg", type=float, default=None, help="fit-space residual prediction")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("iou", help="rotated IoU of two boxes")
    p.add_argument("--box-a", required=True, help="cx,cy,w,h,theta")
    p.add_argument("--box-b", required=True, help="cx,cy,w,h,theta")
    p.set_defaults(func=cmd_iou)

    p = sub.add_parser("nms", help="greedy rotated NMS over a detections file")
    p.add_argument("--detections", required=True, help="detections JSON file or directory")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--class-agnostic", action="store_true")
    p.set_defaults(func=cmd_nms)

    p = sub.add_parser("thickness", help="prediction-layer thickness of a codec")
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--ctheta", type=int, required=True)
    p.add_argument("--anchors", type=int, default=9)
    p.set_defaults(func=cmd_thickness)

    p = sub.add_parser("codec-report", help="encoding-error and thickness table")
    p.add_argument("--methods", default="", help="comma-separated methods (default: all)")
    p.add_argument("--grid-step", type=float, default=0.01, dest="grid_step",
                   help="sweep step in degrees for empirical errors")
    p.add_argument("--out", default="csv", choices=["csv", "json"], help="output format")
    p.set_defaults(func=cmd_codec_report)

    p = sub.add_parser("eval", help="evaluate detections against ground truth")
    p.add_argument("--gt", required=True, help="annotation directory")
    p.add_argument("--det", required=True, help="detections JSON file or Task1 directory")
    p.add_argument("--mode", default=VOC12, choices=MODES)
    p.add_argument("--thresholds", default="", help="comma-separated IoU thresholds")
    p.add_argument("--nms", type=float, default=None,
                   help="apply per-image rotated NMS at this threshold first")
    p.add_argument("--out", default=None, help="write the full report here (.json or .csv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AngleKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
