"""Oriented bounding-box angle codecs, geometry, losses, and evaluation."""

import importlib

__version__ = "0.1.0"

# Each home module and its public names, in `__all__` order. A name is imported
# from its home on first use (PEP 562), so `import anglekit.obb` loads no loss code.
_HOMES = {
    "errors": "AngleKitError DegenerateQuadError InvalidInputError ParseError",
    "obb": "OrientedBox QuadPolygon convex_intersection_area from_corners longside rotated_iou "
           "rotated_nms to_corners",
    "codecs": "AnglePrediction AngleTarget CodecConfig FitFunction Method analytic_errors "
              "decode empirical_errors encode head_thickness ideal_prediction omega",
    "losses": "AnchorBox AssignedSample BoxDeltas LossBreakdown LossWeights cross_entropy "
              "cross_entropy_grad decode_box_deltas encode_box_deltas finite_diff_grad_check "
              "focal_loss focal_loss_grad giou_location_loss giou_location_loss_grad ifl "
              "ifl_grad mse mse_grad multitask_loss run_gradient_checks smooth_l1 smooth_l1_grad",
    "evaluation": "COCO_THRESHOLDS VOC07 VOC12 CategoryThresholdResult DetectionRecord "
                  "EvalReport GroundTruthRecord MatchResult average_precision evaluate "
                  "match_detections",
    "io_formats": "parse_annotation_dir parse_detections write_detections write_report",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = list(_HOME_OF)


def __getattr__(name):
    if name in _HOMES:  # importing a submodule binds it in these globals
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_HOME_OF[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
