"""Oriented bounding-box geometry.

Long-side boxes (w is the longest side, theta in [0, 180) degrees), corner
conversions, minimum-area rectangle fitting, convex polygon intersection,
rotated IoU, and greedy rotated NMS. All functions are pure and operate on
immutable values.
"""

from __future__ import annotations

import math
import sys
from typing import Hashable, Sequence

from .errors import (DegenerateQuadError, InvalidInputError, _check_box, _finite, _Record,
                     _sequence, _set, _shown)

Point = tuple[float, float]

# Numerical noise, as a fraction: a quad's area below this share of its spread
# (see _quad_fault), or an intersection below this share of the smaller area.
_SLIVER_AREA = 1e-12
_INF = math.inf
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_MAX_AREA = 0.5 * sys.float_info.max  # two such areas still have a finite union
_MAX_REACH = 2.0 ** 1000  # so no coordinate the pair kernel forms comes near the float maximum


class OrientedBox(_Record):
    """Five-parameter long-side box: center, long side w, short side h, theta.

    theta is the angle (degrees) between the long side and the x axis,
    reduced modulo 180 on construction. Exact squares are reduced modulo 90,
    since both representatives describe the same corner set. A tiny negative
    angle whose reduction rounds up to the period is stored as 0.0.

    Construction applies the IoU kernel's box rule, so every box can be
    scored: finite numbers, 0 < h <= w, an area w * h from the smallest normal
    float up to half the float maximum, and max(|cx|, |cy|) + w at most 2**1000.
    The rule reads no angle; the multi-task loss also runs it on its decoded
    boxes without building one. A failing box raises InvalidInputError.
    """

    __slots__ = __match_args__ = ("cx", "cy", "w", "h", "theta")

    def __init__(self, cx: float, cy: float, w: float, h: float, theta: float):
        _set(self, "cx", cx)
        _set(self, "cy", cy)
        _set(self, "w", w)
        _set(self, "h", h)
        _set(self, "theta", _box_rule(cx, cy, w, h, theta))

    @property
    def area(self) -> float:
        return self.w * self.h


def _box_rule(cx, cy, w, h, theta) -> float:
    # OrientedBox's rule on its five numbers, at every angle (w bounds the half
    # diagonal): theta reduced by its period, or the error its constructor raises.
    values = (cx, cy, w, h, theta)
    if not _finite(values, "box parameter"):
        raise InvalidInputError(f"non-finite box parameters: {_shown(values)}")
    if w <= 0 or h <= 0:
        raise InvalidInputError(f"box sides must be positive, got w={w}, h={h}")
    if w < h:
        raise InvalidInputError(f"long-side box requires w >= h, got w={w}, h={h}")
    if max(abs(cx), abs(cy)) + w > _MAX_REACH:
        raise InvalidInputError(f"box reaches past 2**1000, got cx={cx}, cy={cy}, w={w}")
    if not _FLOAT_MIN <= w * h <= _MAX_AREA:
        raise InvalidInputError("box area w * h must lie between the smallest normal float "
                                f"and half the float maximum, got w={w}, h={h}")
    period = 90.0 if w == h else 180.0
    theta %= period
    return theta if theta < period else 0.0


def _long_side(w, h, theta) -> tuple:
    # (w, h, theta) with the sides swapped and theta advanced 90 degrees if w < h.
    return (h, w, theta + 90.0) if w < h else (w, h, theta)


def _signed_area(vertices: Sequence[Point]) -> float:
    # Shoelace sum from the closing edge on; one or two vertices give exactly 0.
    total = 0.0
    sx, sy = vertices[-1]
    for px, py in vertices:
        total += sx * py - px * sy
        sx, sy = px, py
    return 0.5 * total


def _corners(cx: float, cy: float, ux: float, uy: float, vx: float, vy: float) -> tuple:
    # Rectangle about (cx, cy) with half sides u and v, CCW if v is u turned left.
    return ((cx + ux + vx, cy + uy + vy), (cx - ux + vx, cy - uy + vy),
            (cx - ux - vx, cy - uy - vy), (cx + ux - vx, cy + uy - vy))


def _overlap(inter: float, area_a: float, area_b: float) -> float:
    # Intersection credited to two shapes: 0 below a sliver's share of the
    # smaller area (relative, so tiny shapes keep theirs), at most that area.
    smaller = min(area_a, area_b)
    if inter < _SLIVER_AREA * smaller:
        return 0.0
    return min(inter, smaller)


# Quad helpers, unrolled for four vertices.

def _centred(pts) -> list:
    # The points about their centroid, where the area and turn checks carry no
    # rounding of coordinates far from the origin; quarters cannot overflow.
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    cx = 0.25 * x0 + 0.25 * x1 + 0.25 * x2 + 0.25 * x3
    cy = 0.25 * y0 + 0.25 * y1 + 0.25 * y2 + 0.25 * y3
    return [(x0 - cx, y0 - cy), (x1 - cx, y1 - cy), (x2 - cx, y2 - cy), (x3 - cx, y3 - cy)]


class QuadPolygon(_Record):
    """Convex quadrilateral with vertices in counter-clockwise order.

    Built from 4 points in any winding: the order given, then the order by
    angle about the centroid, each reversed if clockwise; the first to pass
    the quad rule is kept. The rule, about the centroid: four distinct
    vertices, convex, and a finite area of at least the smallest normal float
    and 1e-12 times the spread, the sum of the squared centred coordinates
    (w^2 + h^2 for a w x h rectangle): an aspect ratio of ~1e-12. Non-finite
    points, or an area that overflows, raise InvalidInputError; a count other
    than 4, a repeated vertex, or no usable order, DegenerateQuadError.
    """

    __slots__ = __match_args__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        # Four (x, y) points, read by the number rule, as float pairs.
        points = _sequence(vertices, "quad vertices", of="(x, y) points")
        if len(points) != 4:
            raise DegenerateQuadError("expected exactly 4 points")
        xy = tuple(c for point in points for c in _sequence(point, "quad vertex", 2))
        _set(self, "vertices", _quad(xy).vertices)


def _quad_fault(pts: tuple, centred: list, area: float) -> bool:
    # Whether four ordered points, the same points about their centroid and
    # their shoelace area fail the usable-quad rule; a clockwise turn fails, a
    # NaN one does not. A repeated vertex, or a non-finite area of an otherwise
    # usable order, raises: no order mends it. The sliver test divides by the
    # root of the spread, a hypot, so no term leaves the normal range.
    if len(set(pts)) < 4:
        raise DegenerateQuadError(f"duplicate point {next(p for p in pts if pts.count(p) > 1)}")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = centred
    root = math.hypot(x0, y0, x1, y1, x2, y2, x3, y3)
    if (area < _FLOAT_MIN or area / root < _SLIVER_AREA * root
            or (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < 0.0
            or (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) < 0.0
            or (x3 - x2) * (y0 - y2) - (y3 - y2) * (x0 - x2) < 0.0
            or (x0 - x3) * (y1 - y3) - (y0 - y3) * (x1 - x3) < 0.0):
        return True
    if not area < _INF:  # inf, or nan
        raise InvalidInputError("quad area is not finite")
    return False


def _quad(xy: tuple) -> QuadPolygon:
    # QuadPolygon's quad of eight numbers x0, y0, ..., x3, y3, built without a
    # second run of the rule: finite, as float pairs, in the first order that
    # passes _quad_fault.
    if not _finite(xy, "quad vertex"):
        raise InvalidInputError("non-finite quad vertices")
    x0, y0, x1, y1, x2, y2, x3, y3 = map(float, xy)
    pts = ((x0, y0), (x1, y1), (x2, y2), (x3, y3))
    centred = _centred(pts)
    vertices, shifted = pts, centred
    for by_angle in (False, True):
        if by_angle:  # sorted only now: most quads come in a usable order
            order = sorted(range(4), key=lambda i: math.atan2(centred[i][1], centred[i][0]))
            vertices = tuple(pts[i] for i in order)
            shifted = _centred(vertices)  # its own centroid: kept, it passes again
        area = _signed_area(shifted)
        if area < 0.0:
            vertices, shifted = vertices[::-1], shifted[::-1]
            area = _signed_area(shifted)  # the reversed order rounds its own way
        if not _quad_fault(vertices, shifted, area):
            quad = object.__new__(QuadPolygon)  # no __init__: the rule has run
            _set(quad, "vertices", vertices)
            return quad
    raise DegenerateQuadError("points do not form a convex quad")


def longside(cx: float, cy: float, w: float, h: float, theta: float) -> OrientedBox:
    """Normalize an arbitrary (w, h, theta) description into long-side form.

    If w < h the sides are swapped and theta advances by 90 degrees; the
    resulting box covers the identical point set.
    """
    return OrientedBox(cx, cy, *_long_side(w, h, theta))


def to_corners(box: OrientedBox) -> QuadPolygon:
    """Corner polygon of a box, counter-clockwise."""
    _check_box("to_corners box", box, kind=OrientedBox)
    cx, cy, hw, hh, _, c, s, *_ = _prepare(box)
    return QuadPolygon(_corners(cx, cy, hw * c, hw * s, -hh * s, hh * c))


def from_corners(quad: QuadPolygon) -> OrientedBox:
    """Minimum-area enclosing rectangle of a quad, in long-side form.

    Scans the edge-aligned orientations of the convex quad (rotating
    calipers for four points); for exact rectangle inputs this round-trips
    to_corners within 1e-6 px. Edges are tried in vertex order, from
    v0 -> v1, and the first with the least area wins a tie; the vertices are
    projected in absolute coordinates.
    """
    _check_box("from_corners quad", quad, kind=QuadPolygon)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = quad.vertices
    rest, best = quad.vertices[1:], None
    for px, py, qx, qy in ((x0, y0, x1, y1), (x1, y1, x2, y2), (x2, y2, x3, y3),
                           (x3, y3, x0, y0)):
        norm = math.hypot(qx - px, qy - py)  # > 0: a quad's vertices are distinct
        ux, uy = (qx - px) / norm, (qy - py) / norm
        # The least and greatest projection, replaced only on a strict < or >,
        # as min() and max() pick them.
        lo_u = hi_u = x0 * ux + y0 * uy
        lo_v = hi_v = y0 * ux - x0 * uy
        for x, y in rest:
            u = x * ux + y * uy
            if u < lo_u:
                lo_u = u
            elif u > hi_u:
                hi_u = u
            v = y * ux - x * uy
            if v < lo_v:
                lo_v = v
            elif v > hi_v:
                hi_v = v
        area = (hi_u - lo_u) * (hi_v - lo_v)
        if best is None or area < best[0]:
            best = (area, ux, uy, lo_u, hi_u, lo_v, hi_v)
    _, ux, uy, lo_u, hi_u, lo_v, hi_v = best
    cu, cv = 0.5 * (lo_u + hi_u), 0.5 * (lo_v + hi_v)
    return longside(cu * ux - cv * uy, cu * uy + cv * ux, hi_u - lo_u, hi_v - lo_v,
                    math.degrees(math.atan2(uy, ux)))


def _clip_by_edge(subject: list[Point], ax: float, ay: float, bx: float, by: float) -> list[Point]:
    # Keeps the part of the non-empty subject on the left of the directed
    # edge a->b. Each vertex's side test is made once and carried to the next.
    ex, ey = bx - ax, by - ay
    out: list[Point] = []
    sx, sy = subject[-1]
    s_in = ex * (sy - ay) - ey * (sx - ax) >= 0.0
    for px, py in subject:
        p_in = ex * (py - ay) - ey * (px - ax) >= 0.0
        if p_in != s_in:
            dx, dy = px - sx, py - sy
            denom = ex * dy - ey * dx
            if denom != 0.0:
                t = (ex * (ay - sy) - ey * (ax - sx)) / denom
                out.append((sx + t * dx, sy + t * dy))
        if p_in:
            out.append((px, py))
        sx, sy, s_in = px, py, p_in
    return out


def convex_intersection_area(a: QuadPolygon, b: QuadPolygon) -> float:
    """Intersection area of two convex quads (Sutherland-Hodgman clipping).

    Both quads are moved so that b's first vertex is the origin, so small
    quads far from the origin keep their area."""
    _check_box("intersection quad", a, b, kind=QuadPolygon)
    ox, oy = b.vertices[0]
    poly = [(x - ox, y - oy) for x, y in a.vertices]
    clip = [(x - ox, y - oy) for x, y in b.vertices]
    area_a, area_b = _signed_area(poly), _signed_area(clip)
    c0, c1, c2, c3 = clip
    for (ax, ay), (bx, by) in ((c0, c1), (c1, c2), (c2, c3), (c3, c0)):
        poly = _clip_by_edge(poly, ax, ay, bx, by)
        if not poly:
            return 0.0
    return _overlap(abs(_signed_area(poly)), area_a, area_b)


def _prepare(box: OrientedBox) -> tuple:
    # Everything to_corners and the pair kernel read of one built box.
    return _prepare_numbers(box.cx, box.cy, box.w, box.h, box.theta)


def _prepare_numbers(cx, cy, w, h, theta) -> tuple:
    # Everything to_corners and the pair kernel read of one box:
    # centre, half sides, angle in radians with its cosine and sine, area, and
    # the AABB, taken from the half extents rather than from corners.
    rad = math.radians(theta)
    c, s = math.cos(rad), math.sin(rad)
    hw, hh = 0.5 * w, 0.5 * h
    ex, ey = hw * abs(c) + hh * abs(s), hw * abs(s) + hh * abs(c)
    return cx, cy, hw, hh, rad, c, s, w * h, cx - ex, cx + ex, cy - ey, cy + ey


def _clip_step(poly: list, bound: float) -> list:
    # Keeps the part of the non-empty polygon with x <= bound, then gives the
    # plane a quarter turn, (x, y) -> (y, -x). Four steps with the bounds
    # w/2, h/2, w/2, h/2 clip to the centred rectangle |x| <= w/2, |y| <= h/2
    # and leave the plane as it was.
    out = []
    sx, sy = poly[-1]
    s_in = sx <= bound
    for px, py in poly:
        p_in = px <= bound
        if p_in != s_in:
            # One end lies on each side of the bound, so px != sx.
            out.append((sy + (bound - sx) / (px - sx) * (py - sy), -bound))
        if p_in:
            out.append((py, -px))
        sx, sy, s_in = px, py, p_in
    return out


def _pair_iou(a: tuple, b: tuple) -> float:
    acx, acy, ahw, ahh, arad, _, _, area_a, ax0, ax1, ay0, ay1 = a
    bcx, bcy, bhw, bhh, brad, bc, bs, area_b, bx0, bx1, by0, by1 = b
    # Cheap axis-aligned reject before clipping.
    if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
        return 0.0
    # Clip in b's own frame, where b is the rectangle |x| <= w/2, |y| <= h/2:
    # a's centre offset turned by -theta_b, a's sides at theta_a - theta_b.
    # Nothing is measured in absolute coordinates, and a box clipped against
    # itself lands exactly on the rectangle.
    dx, dy = acx - bcx, acy - bcy
    rx, ry = dx * bc + dy * bs, dy * bc - dx * bs
    rad = arad - brad
    c, s = math.cos(rad), math.sin(rad)
    poly = _corners(rx, ry, ahw * c, ahw * s, -ahh * s, ahh * c)
    for bound in (bhw, bhh, bhw, bhh):
        poly = _clip_step(poly, bound)
        if not poly:
            return 0.0
    inter = _overlap(abs(_signed_area(poly)), area_a, area_b)
    union = area_a + area_b - inter
    # inter <= smaller and area_a + area_b >= 2 * smaller, so union >= inter
    # and union > 0: the ratio lies in [0, 1] without a clamp.
    return inter / union


def rotated_iou(a: OrientedBox, b: OrientedBox) -> float:
    """Intersection over union of two oriented boxes, in [0, 1].

    The pair is clipped in b's own frame, never in absolute coordinates, so
    boxes far from the origin keep the precision they have near it.
    """
    _check_box("IoU box", a, b, kind=OrientedBox)
    return _pair_iou(_prepare(a), _prepare(b))


def _overlaps(rows: Sequence[OrientedBox], cols: Sequence[OrientedBox]) -> list[list]:
    # Per row, (j, rotated_iou(row, cols[j])) for each column j it overlaps; boxes prepared once.
    prepared_cols = list(enumerate(map(_prepare, cols)))
    return [[(j, iou) for j, b in prepared_cols if (iou := _pair_iou(a, b)) > 0.0]
            for a in map(_prepare, rows)]


def check_nms_threshold(iou_threshold: float) -> None:
    """Raise InvalidInputError unless iou_threshold lies in [0, 1]."""
    if not (_finite((iou_threshold,), "iou_threshold") and 0.0 <= iou_threshold <= 1.0):
        raise InvalidInputError(f"iou_threshold must be in [0, 1], got {_shown(iou_threshold)}")


def _nms_item(item) -> tuple:
    # An NMS item as a checked (box, score, key) triple: an OrientedBox, a
    # finite score and a hashable key.
    try:
        box, score, key = item
        hash(key)
    except (TypeError, ValueError):
        raise InvalidInputError("NMS item must be a (box, score, hashable key) triple, "
                                f"got {_shown(item, repr)}") from None
    _check_box("NMS item box", box, kind=OrientedBox)
    if not _finite((score,), "score"):
        raise InvalidInputError(f"non-finite score {_shown(score)}")
    return box, score, key


def rotated_nms(
    items: Sequence[tuple[OrientedBox, float, Hashable]],
    iou_threshold: float,
) -> list[int]:
    """Greedy NMS over (box, score, group key) items.

    Items suppress each other only when their group keys are equal; a key
    is any hashable value, such as a category or an (image, category) pair.
    Returns indices of kept items in descending score order (equal scores
    break toward the lower input index). An item is suppressed when its
    rotated IoU with an already-kept item of its group exceeds iou_threshold.
    An item that is not such a triple, with an OrientedBox, a finite score
    and a hashable key, raises InvalidInputError.
    """
    check_nms_threshold(iou_threshold)
    items = [_nms_item(item)
             for item in _sequence(items, "NMS items", of="(box, score, key) items")]
    prepared = [_prepare(box) for box, _, _ in items]
    kept_by_group: dict[Hashable, list[int]] = {}
    kept: list[int] = []
    for i in sorted(range(len(items)), key=lambda i: (-items[i][1], i)):
        group = kept_by_group.setdefault(items[i][2], [])
        if not any(_pair_iou(prepared[k], prepared[i]) > iou_threshold for k in group):
            group.append(i)
            kept.append(i)
    return kept
