"""Independent oracles shared by the unit and acceptance tests.

Everything here is deliberately written from scratch against the same
contracts as the library, without reusing its internals, so that the two
routes stay independent.
"""

import math
import random
from fractions import Fraction

import numpy as np

import anglekit.obb
from anglekit import (InvalidInputError, LossBreakdown, OrientedBox, cross_entropy, decode,
                      decode_box_deltas, encode, focal_loss, giou_location_loss, ideal_prediction,
                      ifl, longside, rotated_iou, to_corners)


def random_longside_box(rng, span=3.0):
    cx, cy = rng.uniform(-span, span, size=2)
    s1, s2 = rng.uniform(0.5, 3.0, size=2)
    w, h = max(s1, s2), min(s1, s2)
    if w == h:
        w += 1e-6
    return OrientedBox(cx, cy, w, h, rng.uniform(0.0, 180.0))


def overlapping_box_pair(rng):
    a = random_longside_box(rng, span=1.0)
    b = random_longside_box(rng, span=1.0)
    return a, b


def points_in_box(xs, ys, box):
    """Vectorized membership test against an oriented box."""
    rad = math.radians(box.theta)
    c, s = math.cos(rad), math.sin(rad)
    dx, dy = xs - box.cx, ys - box.cy
    lu = dx * c + dy * s
    lv = -dx * s + dy * c
    return (np.abs(lu) <= box.w / 2.0) & (np.abs(lv) <= box.h / 2.0)


def points_in_ccw_quad(xs, ys, vertices):
    """Vectorized membership test against a convex CCW polygon."""
    inside = np.ones(xs.shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        inside &= (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0) >= 0.0
    return inside


def mc_iou_estimate(box_a, box_b, n_samples, rng):
    """Monte-Carlo IoU over the joint bounding region of the two boxes."""
    corners = list(to_corners(box_a).vertices) + list(to_corners(box_b).vertices)
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    px = rng.uniform(min(xs), max(xs), size=n_samples)
    py = rng.uniform(min(ys), max(ys), size=n_samples)
    in_a = points_in_box(px, py, box_a)
    in_b = points_in_box(px, py, box_b)
    n_union = int(np.count_nonzero(in_a | in_b))
    if n_union == 0:
        return 0.0
    return int(np.count_nonzero(in_a & in_b)) / n_union


def mc_intersection_fraction(quad_a, quad_b, n_samples, rng):
    """Monte-Carlo estimate of intersection area over bounding-region area."""
    corners = list(quad_a.vertices) + list(quad_b.vertices)
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    px = rng.uniform(lo_x, hi_x, size=n_samples)
    py = rng.uniform(lo_y, hi_y, size=n_samples)
    both = points_in_ccw_quad(px, py, quad_a.vertices) & points_in_ccw_quad(px, py, quad_b.vertices)
    frac = np.count_nonzero(both) / n_samples
    bbox_area = (hi_x - lo_x) * (hi_y - lo_y)
    return frac, bbox_area


def exact_intersection_area(subject, clip):
    """Area of two convex CCW polygons' intersection in exact rational arithmetic.

    Float vertices convert to Fractions exactly, so every side test and
    crossing point is exact: no edge is ever "parallel but straddling".
    """
    poly = [(Fraction(x), Fraction(y)) for x, y in subject]
    edges = [(Fraction(x), Fraction(y)) for x, y in clip]
    for (ax, ay), (bx, by) in zip(edges, edges[1:] + edges[:1]):
        side = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in poly]
        kept = []
        for j in range(len(poly)):
            if (side[j - 1] >= 0) != (side[j] >= 0):
                t = side[j - 1] / (side[j - 1] - side[j])
                (sx, sy), (px, py) = poly[j - 1], poly[j]
                kept.append((sx + t * (px - sx), sy + t * (py - sy)))
            if side[j] >= 0:
                kept.append(poly[j])
        poly = kept
        if not poly:
            return 0.0
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))
    return float(abs(twice) / 2)


def brute_force_min_rect_area(points, step_deg=0.01):
    """Minimum bounding-rectangle area over a grid of orientations."""
    pts = np.asarray(points, dtype=float)
    best = math.inf
    for phi in np.arange(0.0, 90.0, step_deg):
        rad = math.radians(phi)
        c, s = math.cos(rad), math.sin(rad)
        u = pts[:, 0] * c + pts[:, 1] * s
        v = -pts[:, 0] * s + pts[:, 1] * c
        area = (u.max() - u.min()) * (v.max() - v.min())
        if area < best:
            best = area
    return best


def reference_nms(items, iou_threshold, class_agnostic=False):
    """Plain O(n^2) greedy NMS written directly against the contract."""
    n = len(items)
    order = sorted(range(n), key=lambda i: (-items[i][1], i))
    alive = [True] * n
    kept = []
    for i in order:
        if not alive[i]:
            continue
        kept.append(i)
        for j in order:
            if j == i or not alive[j]:
                continue
            if not class_agnostic and items[i][2] != items[j][2]:
                continue
            if rotated_iou(items[i][0], items[j][0]) > iou_threshold:
                alive[j] = False
        alive[i] = False
    return kept


def reference_giou_loss(pred, target):
    """1 - GIoU of two (cx, cy, w, h) boxes, worked in corner (x1, y1, x2, y2)
    coordinates."""
    ax1, ay1, ax2, ay2 = (pred[0] - pred[2] / 2, pred[1] - pred[3] / 2,
                          pred[0] + pred[2] / 2, pred[1] + pred[3] / 2)
    bx1, by1, bx2, by2 = (target[0] - target[2] / 2, target[1] - target[3] / 2,
                          target[0] + target[2] / 2, target[1] + target[3] / 2)
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    cw = max(ax2, bx2) - min(ax1, bx1)
    ch = max(ay2, by2) - min(ay1, by1)
    return 1.0 - (inter / union - (cw * ch - union) / (cw * ch))


def reference_match(dets, gts, iou_threshold):
    """From-scratch single-category matcher following the VOC-style protocol.

    Returns (tp, fp, gt_matched) lists aligned with the inputs.
    """
    det_order = sorted(range(len(dets)),
                       key=lambda i: (-dets[i].score, dets[i].image_id, i))
    tp = [False] * len(dets)
    fp = [False] * len(dets)
    claimed = [False] * len(gts)
    for di in det_order:
        det = dets[di]
        candidates = [gi for gi, gt in enumerate(gts)
                      if gt.image_id == det.image_id and (gt.difficult or not claimed[gi])]
        best_gi, best_iou = -1, 0.0
        for gi in candidates:
            iou = rotated_iou(det.box, gts[gi].box)
            if iou > best_iou:
                best_gi, best_iou = gi, iou
        if best_gi < 0 or best_iou < iou_threshold:
            fp[di] = True
        elif not gts[best_gi].difficult:
            tp[di] = True
            claimed[best_gi] = True
    return tp, fp, claimed


def reference_voc07_ap(recall, precision):
    levels = [i / 10.0 for i in range(11)]
    bests = []
    for level in levels:
        best = 0.0
        for r, p in zip(recall, precision):
            if r >= level and p > best:
                best = p
        bests.append(best)
    return math.fsum(bests) / 11.0


def reference_voc12_ap(recall, precision):
    mrec = [0.0] + list(recall) + [1.0]
    mpre = [0.0] + list(precision) + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    terms = []
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            terms.append((mrec[i + 1] - mrec[i]) * mpre[i + 1])
    return math.fsum(terms)


def reference_evaluate(gts, dets, iou_threshold, mode):
    """Scripted per-category AP computation independent of the evaluator."""
    categories = sorted({g.category for g in gts})
    aps = {}
    for cat in categories:
        cat_gts = [g for g in gts if g.category == cat]
        cat_dets = [d for d in dets if d.category == cat]
        tp, fp, _ = reference_match(cat_dets, cat_gts, iou_threshold)
        order = sorted(range(len(cat_dets)),
                       key=lambda i: (-cat_dets[i].score, cat_dets[i].image_id, i))
        npos = sum(1 for g in cat_gts if not g.difficult)
        rec, prec, tp_cum, fp_cum = [], [], 0, 0
        for di in order:
            if tp[di]:
                tp_cum += 1
            elif fp[di]:
                fp_cum += 1
            else:
                continue
            rec.append(tp_cum / npos if npos else 0.0)
            prec.append(tp_cum / (tp_cum + fp_cum))
        if npos == 0 or not rec:
            aps[cat] = 0.0
        elif mode == "voc07":
            aps[cat] = reference_voc07_ap(rec, prec)
        else:
            aps[cat] = reference_voc12_ap(rec, prec)
    return aps


def reference_empirical_errors(config, grid_step):
    """(max, mean) of |decode(ideal_prediction(encode(theta))) - theta| over the
    grid theta = i * grid_step below 180, one public round trip per angle; the
    errors are summed in grid order."""
    worst = total = 0.0
    n = 0
    for i in range(round(180.0 / grid_step)):
        theta = i * grid_step
        if theta < 180.0:
            target = encode(theta, config)
            err = abs(decode(ideal_prediction(target, config), config) - theta)
            worst = max(worst, err)
            total += err
            n += 1
    return worst, total / n


def reference_multitask_loss(samples, weights, codec):
    """The five-term loss assembled from the public losses, encode and decode,
    one sample at a time, every input checked again by the public call that
    takes it. The per-term means and the weighted total are fsums in sample
    order, as the library's."""
    if not samples:
        raise InvalidInputError("sample list is empty")
    loc, conf, cat, ang_c, ang_r = [], [], [], [], []
    for s in samples:
        conf.append(focal_loss(s.pred_confidence, s.objectness))
        if not s.objectness:
            continue
        logits = s.pred_angle.class_logits
        if len(logits) != codec.code_length:
            raise InvalidInputError(f"{codec.method.value} expects {codec.code_length} angle "
                                    f"logits, got {len(logits)}")
        box, gt = decode_box_deltas(s.pred_deltas, s.anchor), s.gt_box
        loc.append(giou_location_loss((box.cx, box.cy, box.w, box.h), (gt.cx, gt.cy, gt.w, gt.h)))
        cat.append(cross_entropy(s.pred_category_logits, s.gt_category))
        target = encode(gt.theta, codec)
        if codec.has_classification:
            ang_c.append(cross_entropy(logits, target.class_index))
        if codec.has_regression:
            pred_obb = longside(box.cx, box.cy, box.w, box.h, decode(s.pred_angle, codec))
            iou = min(max(rotated_iou(pred_obb, gt), 1e-6), 1.0)
            ang_r.append(ifl(s.pred_angle.regression_output, target.residual_target, iou))
    terms = [math.fsum(values) / len(samples) for values in (loc, conf, cat, ang_c, ang_r)]
    lambdas = (weights.location, weights.confidence, weights.category, weights.angle_class,
               weights.angle_reg)
    return LossBreakdown(*terms, total=math.fsum(lam * t for lam, t in zip(lambdas, terms)))


def count_calls(monkeypatch, name, module=anglekit.obb):
    """Count calls to <module>.<name> while still running it."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_clipped_pairs(monkeypatch):
    """Count the pairs that reach obb's clip, however many clip steps each takes.

    A pair's first step gets a fresh polygon; every later step gets the
    polygon the step before it returned."""
    pairs = [0]
    original = anglekit.obb._clip_step
    last = [None]

    def counted(poly, bound):
        if poly is not last[0]:
            pairs[0] += 1
        last[0] = original(poly, bound)
        return last[0]

    monkeypatch.setattr(anglekit.obb, "_clip_step", counted)
    return pairs


# Seeded quads of the kinds that reach QuadPolygon, in every winding. Only float
# arithmetic that IEEE 754 rounds exactly is used (no trig, no float pow), so
# a seed gives the same points on every platform.

def _scale(rng, lo, hi):
    # A number of magnitude between 1e<lo> and 1e<hi + 1>.
    return rng.uniform(1.0, 10.0) * float(f"1e{rng.randint(lo, hi)}")


def _rectangle(rng, cx, cy, a, b):
    # Counter-clockwise corners about (cx, cy), half sides a and b, turned
    # by a rational unit vector.
    t = rng.uniform(-1.0, 1.0)
    ux, uy = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
    return [(cx + sa * a * ux - sb * b * uy, cy + sa * a * uy + sb * b * ux)
            for sa, sb in ((1, 1), (-1, 1), (-1, -1), (1, -1))]


def _rect_quad(rng):
    a = _scale(rng, -2, 4)
    return _rectangle(rng, _scale(rng, 0, 6), -_scale(rng, 0, 6), a, a * rng.uniform(0.01, 1.0))


def _noisy_quad(rng):
    a = _scale(rng, 0, 3)
    noise = a * rng.choice((1e-9, 1e-3, 0.1, 0.4))
    return [(x + rng.uniform(-noise, noise), y + rng.uniform(-noise, noise))
            for x, y in _rectangle(rng, _scale(rng, 0, 15), _scale(rng, 0, 15), a, 0.5 * a)]


def _thin_quad(rng):
    a = _scale(rng, -1, 5)
    return _rectangle(rng, _scale(rng, 0, 15), -_scale(rng, 0, 15), a, a * _scale(rng, -16, -4))


def _sliver_quad(rng):
    # Area 4ab within a factor of 2 of the 1e-12 px^2 sliver bound.
    a = _scale(rng, -7, 0)
    return _rectangle(rng, _scale(rng, -3, 6), _scale(rng, -3, 6), a,
                      rng.uniform(0.5, 2.0) * 1e-12 / (4.0 * a))


def _collinear_quad(rng):
    x, y, dx, dy = (_scale(rng, 0, 8) for _ in range(4))
    off = _scale(rng, -15, -6)
    return [(x + s * dx - rng.uniform(-off, off) * dy, y + s * dy + rng.uniform(-off, off) * dx)
            for s in (rng.uniform(-1.0, 1.0) for _ in range(4))]


def _dart_quad(rng):
    # Counter-clockwise, reflex at its third vertex when r < 2.
    s, r, x, y = _scale(rng, -3, 4), rng.uniform(0.5, 2.5), _scale(rng, 0, 9), _scale(rng, 0, 9)
    return [(x, y), (x + 4.0 * s, y), (x + r * s, y + r * s), (x, y + 4.0 * s)]


def _huge_quad(rng):
    # Sides up to 1e300, and darts whose area is inf with a turn of -inf.
    if rng.random() < 0.5:
        a = _scale(rng, 100, 299)
        return _rectangle(rng, _scale(rng, 0, 299), 0.0, a, a * rng.uniform(0.01, 1.0))
    s, r = rng.uniform(1e153, 9e153), rng.uniform(0.5, 2.5)
    return [(0.0, 0.0), (4.0 * s, 0.0), (r * s, r * s), (0.0, 4.0 * s)]


def _duplicate_quad(rng):
    pts = _rect_quad(rng)
    pts[rng.randrange(4)] = pts[rng.randrange(4)]
    return pts


def _integer_quad(rng):
    # DOTA-style whole-pixel points.
    a = _scale(rng, 0, 3)
    return [(float(round(x)), float(round(y))) for x, y in
            _rectangle(rng, _scale(rng, 0, 4), _scale(rng, 0, 4), a, a * rng.uniform(0.0, 1.0))]


_QUAD_KINDS = (_rect_quad, _noisy_quad, _thin_quad, _sliver_quad, _collinear_quad, _dart_quad,
               _huge_quad, _duplicate_quad, _integer_quad)


def seeded_quads(seed, count):
    """count point lists, each of a random kind given as drawn, reversed,
    cyclically turned or shuffled."""
    rng = random.Random(seed)
    quads = []
    for _ in range(count):
        pts = rng.choice(_QUAD_KINDS)(rng)
        order = rng.randrange(4)
        if order == 1:
            pts.reverse()
        elif order == 2:
            turn = rng.randrange(1, 4)
            pts = pts[turn:] + pts[:turn]
        elif order == 3:
            rng.shuffle(pts)
        quads.append(pts)
    return quads


def seeded_box_pairs(seed, count):
    """count pairs of long-side boxes of 1e-3 to 1e4 px, some 1e6 px from the
    origin, some squares and some at multiples of 45 degrees; each pair's
    centres lie within a box size of each other, so about half overlap."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        size = 10.0 ** rng.uniform(-3, 4)
        x, y = (rng.choice((0.0, 1e3, -1e6)) + size * rng.uniform(-50, 50) for _ in range(2))
        pair = []
        for _ in range(2):
            w = size * rng.uniform(0.5, 2.0)
            h = w if rng.random() < 0.05 else w * rng.uniform(0.05, 1.0)
            theta = 45.0 * rng.randrange(8) if rng.random() < 0.1 else rng.uniform(-180, 360)
            pair.append(OrientedBox(x + size * rng.uniform(-1, 1), y + size * rng.uniform(-1, 1),
                                    w, h, theta))
        pairs.append(tuple(pair))
    return pairs
