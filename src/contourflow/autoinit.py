"""Automatic contour initialization from a mask.

Two exact constructions: the largest interior circle, read off the
inner-boundary distance transform that also drives the force field, and
the minimal enclosing circle of the foreground.
"""

from __future__ import annotations

import functools
import random

import numpy as np

from .fields import Circle, Contour, as_mask, boundary_pixels, bounding_box

_MULT_EPS = 1.0 + 1e-14
_BAND = 1e-9  # relative band around a squared radius where np.hypot decides
_SQUARES_MIN, _SQUARES_MAX = 1e-290, 1e290  # squared radii the band is safe for
_RIDGE_SLACK = 1e-6  # widens the candidate test past the EDT's rounding; scoring is exact
_CHUNK = 1 << 16  # candidate x ring distances held at once


def inscribed_circle(mask, dt) -> Circle:
    """Largest circle fully contained in the foreground: center at the
    argmax of the distance to background (outside the frame counts as
    background), ties broken by smallest (row, column).

    ``dt`` is the EDT of the mask's inner boundary (``boundary_mask``),
    which the force field uses too. For a foreground pixel p with
    distance d_bnd to the inner boundary and d_bg to background,
    d_bnd < d_bg <= d_bnd + 1: stepping one pixel from p's nearest
    background pixel toward p reaches an inner-boundary pixel, and p's
    nearest inner-boundary pixel has a background 4-neighbor. So the
    argmax of d_bg lies among the pixels with d_bnd > max d_bnd - 1. Each
    is scored by its exact integer squared distance to the outer ring:
    the background or out-of-frame pixels 4-adjacent to the foreground,
    where (by the same step) every nearest background pixel lies. The
    first maximum in row-major order wins, and the radius is its root.
    """
    mask = as_mask(mask)
    if not mask.any():
        raise ValueError("mask has no foreground")
    dt = np.asarray(dt)
    if dt.shape != mask.shape:
        raise ValueError(f"distance map {dt.shape} does not match the mask {mask.shape}")
    rows, cols = bounding_box(mask)
    crop = mask[rows, cols]
    near = dt[rows, cols]
    top = near[crop].max()
    cv, cu = np.nonzero(crop & (near > top - 1.0 - _RIDGE_SLACK))  # row-major
    # the crop padded by one pixel, and around it a second ring of background
    # so that every pixel of the first has its four neighbors
    fg = np.pad(crop, 2)
    ring = ~fg[1:-1, 1:-1] & (fg[:-2, 1:-1] | fg[2:, 1:-1] | fg[1:-1, :-2] | fg[1:-1, 2:])
    rv, ru = np.nonzero(ring)
    rv -= 1  # ring coordinates in the crop's frame
    ru -= 1
    d2 = np.empty(len(cv), dtype=np.int64)
    step = max(1, _CHUNK // len(rv))  # a long thin shape has a long ridge of candidates
    for i in range(0, len(cv), step):
        dv = cv[i:i + step, None] - rv
        du = cu[i:i + step, None] - ru
        d2[i:i + step] = (dv * dv + du * du).min(axis=1)
    best = int(np.argmax(d2))  # the first maximum: smallest (row, col)
    return Circle((float(cols.start + cu[best]), float(rows.start + cv[best])),
                  float(np.sqrt(np.float64(d2[best]))))


def circumscribed_circle(mask) -> Circle:
    """Minimal enclosing circle of the foreground pixel centers, padded by
    half a pixel. The pad covers each pixel's inscribed disk, not its square:
    a corner lies sqrt(2)/2 from the pixel center."""
    mask = as_mask(mask)
    pts = boundary_pixels(mask)  # the extreme points all lie on the inner boundary
    if len(pts) == 0:
        raise ValueError("mask has no foreground")
    cu, cv, r = minimal_enclosing_circle(pts.astype(np.float64))
    return Circle((cu, cv), r + 0.5)


def minimal_enclosing_circle(points) -> tuple[float, float, float]:
    """Exact smallest circle containing all points, expected linear time.

    Welzl's incremental construction over a deterministically shuffled
    order, in Python floats. A containment test calls ``np.hypot`` only
    where the squared distance cannot decide it, and a candidate circle
    through three points gets its radius only if it is returned, so every
    decision and float equals the all-``np.hypot`` construction kept in
    ``tests/oracles.py``. A circle carries its test's bounds, computed
    once when it is made (``_disk``).
    """
    pts = np.asarray(points, dtype=np.float64)
    if not len(pts):
        raise ValueError("need at least one point")
    pts = pts[_shuffled(len(pts))].tolist()
    circle = None
    for i, p in enumerate(pts):
        if circle is None or not _in_circle(circle, p):
            circle = _circle_one_point(pts[: i + 1], p)
    return circle[:3]


@functools.lru_cache(maxsize=256)
def _shuffled(count: int) -> np.ndarray:
    """The read-only order ``random.Random(0x5EED).shuffle`` gives ``count``
    items; its draws depend on the length alone."""
    order = list(range(count))
    random.Random(0x5EED).shuffle(order)
    order = np.array(order, dtype=np.intp)
    order.flags.writeable = False
    return order


def _disk(cu: float, cv: float, r: float) -> tuple:
    """(cu, cv, r) and ``_in_circle``'s bounds for it: ``limit`` and the
    squared ``limit² · (1 ∓ _BAND)``, or bounds that leave every point to
    ``np.hypot`` where the squares are not safe."""
    limit = r * _MULT_EPS
    l2 = limit * limit
    if _SQUARES_MIN < l2 < _SQUARES_MAX:
        return cu, cv, r, limit, l2 * (1.0 - _BAND), l2 * (1.0 + _BAND)
    return cu, cv, r, limit, -1.0, np.inf


def _in_circle(circle, p) -> bool:
    """``np.hypot(p - center) <= r * _MULT_EPS``. The squared distance
    decides outside ``limit² · (1 ± _BAND)``, a margin many orders wider
    than its own rounding and ``np.hypot``'s, while the squares stay far
    from underflow and overflow; ``np.hypot`` decides inside it. For a
    zero radius it is ``du == dv == 0``, as ``np.hypot`` is then."""
    cu, cv, r, limit, lo, hi = circle
    du = p[0] - cu
    dv = p[1] - cv
    d2 = du * du + dv * dv
    if d2 < lo:
        return True
    if d2 > hi:
        return False
    if r == 0.0:
        return du == 0.0 == dv
    return np.hypot(du, dv) <= limit


def _circle_one_point(points, p):
    circle = _disk(p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(circle, q):
            if circle[2] == 0.0:
                circle = _diameter(p, q)
            else:
                circle = _circle_two_points(points[: i + 1], p, q)
    return circle


def _circle_two_points(points, p, q):
    """The smallest circle through ``p`` and ``q`` around ``points``: the
    diameter circle if it holds them, else the circumcircle through ``p``,
    ``q`` and the point outside it whose center lies farthest to that
    point's side of ``pq``. Only that one gets a radius.

    Welzl's invariant puts the points outside the diameter circle on one
    side of ``pq``, none on its line: ``p`` and ``q`` lie on a circle that
    holds ``points``. A point on the line outside the diameter circle
    would put ``p`` or ``q`` strictly inside a chord of that circle, and a
    circle through ``p`` and ``q`` holds a point outside the diameter
    circle only if its center lies strictly on that point's side. For the
    integer pixel centers ``circumscribed_circle`` passes, such a point
    would lie a whole pixel past ``p`` or ``q``, and any point outside the
    diameter circle lies a quarter of a squared pixel or more outside it,
    far beyond ``_in_circle``'s relative margin of 1e-14."""
    circ = _diameter(p, q)
    left = right = None  # (side of the center, the third point, the center)
    px, py = p
    ex, ey = q[0] - px, q[1] - py  # a cross product with pq is ex * (y - py) - ey * (x - px)
    for r in points:
        if _in_circle(circ, r):
            continue
        cross = ex * (r[1] - py) - ey * (r[0] - px)
        c = _circumcenter(p, q, r)
        side = ex * (c[1] - py) - ey * (c[0] - px)
        if cross > 0.0 and (left is None or side > left[0]):
            left = (side, r, c)
        elif cross < 0.0 and (right is None or side < right[0]):
            right = (side, r, c)
    if left is None and right is None:
        return circ
    return _circumcircle(p, q, *(left or right)[1:])


def _diameter(p, q):
    """The circle on ``pq`` as its diameter. When the center's offsets to
    ``p`` and ``q`` are mirror images, so are their two ``np.hypot``s."""
    cu = (p[0] + q[0]) / 2.0
    cv = (p[1] + q[1]) / 2.0
    a, b, c, d = cu - p[0], cv - p[1], cu - q[0], cv - q[1]
    if abs(a) == abs(c) and abs(b) == abs(d):
        return _disk(cu, cv, float(np.hypot(a, b)))
    return _disk(cu, cv, float(max(np.hypot(a, b), np.hypot(c, d))))


def _circumcenter(p0, p1, p2):
    # the points are not collinear (see _circle_two_points); recentre on the
    # bounding-box midpoint for numerical stability
    (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
    # min() and max() of each axis, as the first extreme, without their calls
    lo = x1 if x1 < x0 else x0
    hi = x1 if x1 > x0 else x0
    ox = ((x2 if x2 < lo else lo) + (x2 if x2 > hi else hi)) / 2.0
    lo = y1 if y1 < y0 else y0
    hi = y1 if y1 > y0 else y0
    oy = ((y2 if y2 < lo else lo) + (y2 if y2 > hi else hi)) / 2.0
    ax, ay = x0 - ox, y0 - oy
    bx, by = x1 - ox, y1 - oy
    cx, cy = x2 - ox, y2 - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    return (x, y)


def _circumcircle(p0, p1, p2, center):
    x, y = center
    r = max(np.hypot(x - p0[0], y - p0[1]),
            np.hypot(x - p1[0], y - p1[1]),
            np.hypot(x - p2[0], y - p2[1]))
    return _disk(x, y, float(r))


def circle_to_contour(circle: Circle, count: int, width: int, height: int) -> Contour:
    """Regular ``count``-gon on the circle, nodes at angles 2*pi*s/count,
    clamped to the image bounds."""
    if count < 3:
        raise ValueError("a contour needs at least 3 nodes")
    return Contour(circle.radius * _unit_ring(count) + circle.center).clamped(width, height)


@functools.lru_cache(maxsize=32)
def _unit_ring(count: int) -> np.ndarray:
    """The read-only (count, 2) array of (cos, sin) at angles 2*pi*s/count."""
    theta = 2.0 * np.pi * np.arange(count) / count
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ring.flags.writeable = False
    return ring
