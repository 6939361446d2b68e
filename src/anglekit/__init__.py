"""Oriented bounding-box angle codecs, geometry, losses, and evaluation."""

__version__ = "0.1.0"

from .errors import AngleKitError, DegenerateQuadError, InvalidInputError, ParseError
from .obb import (AxisAlignedBox, OrientedBox, QuadPolygon, convex_intersection_area,
                  from_corners, iou_matrix, longside, rotated_iou, rotated_nms, to_corners)
from .codecs import (AnglePrediction, AngleTarget, CodecConfig, FitFunction, Method,
                     analytic_errors, decode, empirical_errors, encode, head_thickness,
                     ideal_prediction, omega)
from .losses import (AnchorBox, AssignedSample, BoxDeltas, LossBreakdown, LossWeights,
                     cross_entropy, cross_entropy_grad, decode_box_deltas, encode_box_deltas,
                     finite_diff_grad_check, focal_loss, focal_loss_grad, giou_location_loss,
                     giou_location_loss_grad, ifl, ifl_grad, mse, mse_grad, multitask_loss,
                     run_gradient_checks, smooth_l1, smooth_l1_grad)
from .evaluation import (COCO_THRESHOLDS, VOC07, VOC12, CategoryThresholdResult,
                         DetectionRecord, EvalReport, GroundTruthRecord, MatchResult,
                         average_precision, evaluate, match_detections)
from .io_formats import (parse_annotation_dir, parse_annotation_file, parse_detections,
                         write_detections, write_report)

__all__ = [
    "AngleKitError", "DegenerateQuadError", "InvalidInputError", "ParseError",
    "AxisAlignedBox", "OrientedBox", "QuadPolygon", "convex_intersection_area", "from_corners",
    "iou_matrix", "longside", "rotated_iou", "rotated_nms", "to_corners",
    "AnglePrediction", "AngleTarget", "CodecConfig", "FitFunction", "Method",
    "analytic_errors", "decode", "empirical_errors", "encode", "head_thickness",
    "ideal_prediction", "omega",
    "AnchorBox", "AssignedSample", "BoxDeltas", "LossBreakdown", "LossWeights",
    "cross_entropy", "cross_entropy_grad", "decode_box_deltas", "encode_box_deltas",
    "finite_diff_grad_check", "focal_loss", "focal_loss_grad", "giou_location_loss",
    "giou_location_loss_grad", "ifl", "ifl_grad", "mse", "mse_grad", "multitask_loss",
    "run_gradient_checks", "smooth_l1", "smooth_l1_grad",
    "COCO_THRESHOLDS", "VOC07", "VOC12", "CategoryThresholdResult", "DetectionRecord",
    "EvalReport", "GroundTruthRecord", "MatchResult", "average_precision", "evaluate",
    "match_detections",
    "parse_annotation_dir", "parse_annotation_file", "parse_detections", "write_detections",
    "write_report",
]
