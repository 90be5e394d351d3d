"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (per-pixel loops, exhaustive
enumeration) and shares no code with the production paths it checks,
with the exceptions below. ``iterative_circle_fit`` starts from the exact
circle constructions and cross-checks them by local search on the
raster. ``rasterize_loop``, ``rasterize_histogram`` and
``inscribed_circle_full_frame`` are former production implementations
(per-edge and per-row loops; one contour's int64 crossing histogram; a
distance transform over the whole frame), kept so that the vectorized,
stacked and cropped versions can be required to match them exactly. Likewise
``evolve_reference`` is the former solver loop: one bilinear lookup per
field and force component, and a system matrix rebuilt every step
(``force_at``, ``balloon_force``, ``assemble_internal_system``), whose
``internal_system`` adds each node's stencil block in ascending node
order with no BLAS call, so its floats do not depend on the machine; it
clips each step's nodes to the frame, and a resampling step's once more
after resampling, so every node it holds lies in the frame, as in
``evolve``; it reuses the production ``Contour``, ``resample_closed`` and
``signed_area``. ``align_cyclic_reference`` is the former per-shift loop
of ``align_cyclic``. ``energies_reference`` is the former per-contour
energy trace: one corner lookup, one blend per field and one set of sums
per contour, through the production ``bilinear_corners`` and
``blend_corners`` and ``rasterize_histogram``; ``energy_eval`` scores one contour
through the production ``contour_energies``.
``bilinear_corners_reference`` is the former corner lookup, with
``np.clip`` clamps and the far corners guarded one by one.
``minimal_enclosing_circle_reference`` is the former Welzl construction,
one ``np.hypot`` per containment test and per candidate circle, over the
same shuffled order as ``autoinit.minimal_enclosing_circle``.
``clip_vectors_masked`` is the former force clip, a boolean gather and
scatter of the over-long vectors' scales. ``subgrad_kappa`` is the kappa
subgradient that ``learning.fit_parameters`` takes straight from its
rasters, through the production ``rasterize``. ``next_token_reference``
is the former PGM/PFM header tokenizer, a loop over one byte at a time.
``run_reference`` composes these references into the whole `run`
pipeline on the frame, through the production containers ``Contour``,
``ForceField``, ``ParameterSet`` and ``SnakeConfig`` alone.
"""

from __future__ import annotations

import math
import random

import numpy as np

from contourflow.autoinit import circumscribed_circle, inscribed_circle
from contourflow.edt import edt_from_sites
from contourflow.fields import (DEGENERATE_AREA, BilinearCorners, Circle, Contour, as_field,
                                as_mask, bilinear_corners, blend_corners, boundary_mask,
                                rasterize, resample_closed, signed_area)
from contourflow.flow import ForceField
from contourflow.snake import EvolveError, ParameterSet, SnakeConfig, contour_energies


def point_in_polygon(point, nodes) -> bool:
    """Even-odd crossing test with half-open row intervals and strictly
    right-of-point crossings (the same tie convention the rasterizer pins)."""
    u, v = float(point[0]), float(point[1])
    crossings = 0
    count = len(nodes)
    for i in range(count):
        au, av = float(nodes[i][0]), float(nodes[i][1])
        bu, bv = float(nodes[(i + 1) % count][0]), float(nodes[(i + 1) % count][1])
        if (av <= v < bv) or (bv <= v < av):
            t = (v - av) / (bv - av)
            x = au + t * (bu - au)
            if u < x:
                crossings += 1
    return crossings % 2 == 1


def rasterize_reference(nodes, width: int, height: int) -> np.ndarray:
    out = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            out[r, c] = point_in_polygon((c, r), nodes)
    return out


def rasterize_loop(contour, width: int, height: int) -> np.ndarray:
    """Per-edge, per-row even-odd rasterization: each edge appends its
    crossings to the rows it spans, and each row counts the crossings
    strictly right of every pixel center by a sorted search."""
    if contour.is_degenerate:
        return np.zeros((height, width), dtype=bool)
    pts = contour.nodes

    crossings: list[list[float]] = [[] for _ in range(height)]
    nxt = np.roll(pts, -1, axis=0)
    for (au, av), (bu, bv) in zip(pts, nxt):
        if av == bv:
            continue
        lo, hi = (av, bv) if av < bv else (bv, av)
        r0 = max(int(np.ceil(lo)), 0)
        r1 = min(int(np.ceil(hi)), height)
        if r0 >= r1:
            continue
        rows = np.arange(r0, r1, dtype=np.float64)
        t = (rows - av) / (bv - av)
        xs = au + t * (bu - au)
        for r, x in zip(range(r0, r1), xs):
            crossings[r].append(float(x))

    out = np.zeros((height, width), dtype=bool)
    cols = np.arange(width, dtype=np.float64)
    for r, xs in enumerate(crossings):
        if not xs:
            continue
        xs_sorted = np.sort(np.asarray(xs, dtype=np.float64))
        strictly_right = len(xs_sorted) - np.searchsorted(xs_sorted, cols, side="right")
        out[r] = (strictly_right % 2).astype(bool)
    return out


def rasterize_histogram(contour, width: int, height: int) -> np.ndarray:
    """The former one-contour rasterizer: every edge x row crossing in one
    array, an int64 histogram of ``clip(ceil(x), 0, width)`` per row over
    the crossings' box, summed from the right, odd counts inside."""
    out = np.zeros((height, width), dtype=bool)
    if contour.is_degenerate:
        return out
    au, av = contour.nodes[:, 0], contour.nodes[:, 1]
    bu, bv = np.roll(au, -1), np.roll(av, -1)
    r0 = np.clip(np.ceil(np.minimum(av, bv)), 0, height).astype(np.intp)
    r1 = np.clip(np.ceil(np.maximum(av, bv)), 0, height).astype(np.intp)
    counts = r1 - r0
    edge = np.repeat(np.arange(len(counts)), counts)
    if not edge.size:
        return out
    rows = np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts) + r0[edge]
    t = (rows - av[edge]) / (bv[edge] - av[edge])
    xs = au[edge] + t * (bu[edge] - au[edge])
    bins = np.clip(np.ceil(xs), 0, width).astype(np.intp)
    top, bottom = rows.min(), rows.max() + 1
    left, right = bins.min(), bins.max()
    span = right - left + 1
    hist = np.bincount((rows - top) * span + (bins - left), minlength=(bottom - top) * span)
    crossings = np.cumsum(hist.reshape(bottom - top, span)[:, ::-1], axis=1)[:, ::-1]
    out[top:bottom, left:right] = crossings[:, 1:] & 1
    return out


def inscribed_circle_full_frame(mask) -> Circle:
    """Argmax of the distance to background over the whole frame padded
    by one background pixel, ties broken by smallest (row, column)."""
    mask = as_mask(mask)
    if not mask.any():
        raise ValueError("mask has no foreground")
    padded = np.pad(mask, 1, mode="constant", constant_values=False)
    interior = edt_from_sites(~padded)[1:-1, 1:-1]
    scored = np.where(mask, interior, -1.0)
    best = int(np.argmax(scored))
    cv, cu = divmod(best, mask.shape[1])
    return Circle((float(cu), float(cv)), float(scored[cv, cu]))


def convex_hull(points) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns the hull counterclockwise."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def circumcircle_3(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    ax2, bx2, cx2 = a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2, c[0] ** 2 + c[1] ** 2
    x = (ax2 * (b[1] - c[1]) + bx2 * (c[1] - a[1]) + cx2 * (a[1] - b[1])) / d
    y = (ax2 * (c[0] - b[0]) + bx2 * (a[0] - c[0]) + cx2 * (b[0] - a[0])) / d
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def mec_reference(points) -> tuple[float, float, float]:
    """Smallest enclosing circle by exhaustive candidate enumeration over
    pairs and triples of hull points (the optimum is determined by hull
    points, so the restriction is lossless)."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    hull = convex_hull(pts)
    if len(hull) == 1:
        return (hull[0][0], hull[0][1], 0.0)
    slack = 1e-9
    candidates = []
    n = len(hull)
    for i in range(n):
        for j in range(i + 1, n):
            cx = (hull[i][0] + hull[j][0]) / 2.0
            cy = (hull[i][1] + hull[j][1]) / 2.0
            r = max(math.hypot(cx - hull[i][0], cy - hull[i][1]),
                    math.hypot(cx - hull[j][0], cy - hull[j][1]))
            candidates.append((cx, cy, r))
            for k in range(j + 1, n):
                circ = circumcircle_3(hull[i], hull[j], hull[k])
                if circ is not None:
                    candidates.append(circ)
    best = None
    for cx, cy, r in candidates:
        if best is not None and r >= best[2]:
            continue
        # covering the hull covers every point (disks are convex)
        if all(math.hypot(cx - p[0], cy - p[1]) <= r + slack for p in hull):
            best = (cx, cy, r)
    assert best is not None
    assert all(math.hypot(best[0] - p[0], best[1] - p[1]) <= best[2] + slack for p in pts)
    return best


def minimal_enclosing_circle_reference(points) -> tuple[float, float, float]:
    """Welzl's incremental smallest enclosing circle over a deterministically
    shuffled order, deciding every containment with ``np.hypot``."""
    pts = [(float(u), float(v)) for u, v in np.asarray(points, dtype=np.float64)]
    if not pts:
        raise ValueError("need at least one point")
    rng = random.Random(0x5EED)
    rng.shuffle(pts)
    circle = None
    for i, p in enumerate(pts):
        if circle is None or not _mec_in_circle(circle, p):
            circle = _mec_one_point(pts[: i + 1], p)
    return circle


def _mec_in_circle(circle, p) -> bool:
    cu, cv, r = circle
    return np.hypot(p[0] - cu, p[1] - cv) <= r * (1.0 + 1e-14)


def _mec_one_point(points, p):
    circle = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _mec_in_circle(circle, q):
            if circle[2] == 0.0:
                circle = _mec_diameter(p, q)
            else:
                circle = _mec_two_points(points[: i + 1], p, q)
    return circle


def _mec_two_points(points, p, q):
    circ = _mec_diameter(p, q)
    left = right = None
    px, py = p
    qx, qy = q
    for r in points:
        if _mec_in_circle(circ, r):
            continue
        cross = _mec_cross(px, py, qx, qy, r[0], r[1])
        c = _mec_circumcircle(p, q, r)
        if c is None:
            continue
        if cross > 0.0 and (left is None or _mec_cross(px, py, qx, qy, c[0], c[1])
                            > _mec_cross(px, py, qx, qy, left[0], left[1])):
            left = c
        elif cross < 0.0 and (right is None or _mec_cross(px, py, qx, qy, c[0], c[1])
                              < _mec_cross(px, py, qx, qy, right[0], right[1])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _mec_diameter(p, q):
    cu = (p[0] + q[0]) / 2.0
    cv = (p[1] + q[1]) / 2.0
    return (cu, cv, max(np.hypot(cu - p[0], cv - p[1]), np.hypot(cu - q[0], cv - q[1])))


def _mec_circumcircle(p0, p1, p2):
    ox = (min(p0[0], p1[0], p2[0]) + max(p0[0], p1[0], p2[0])) / 2.0
    oy = (min(p0[1], p1[1], p2[1]) + max(p0[1], p1[1], p2[1])) / 2.0
    ax, ay = p0[0] - ox, p0[1] - oy
    bx, by = p1[0] - ox, p1[1] - oy
    cx, cy = p2[0] - ox, p2[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(np.hypot(x - p0[0], y - p0[1]),
            np.hypot(x - p1[0], y - p1[1]),
            np.hypot(x - p2[0], y - p2[1]))
    return (x, y, r)


def _mec_cross(x0, y0, x1, y1, x2, y2):
    return (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)


def iterative_circle_fit(mask, mode: str) -> Circle:
    """Raster-domain coordinate descent on (center_u, center_v, radius)
    minimizing the symmetric difference with the mask.

    ``inscribed`` keeps the circle raster inside the foreground,
    ``circumscribed`` keeps the foreground inside the circle raster.
    Starts from the exact constructions and stops when no single
    half-pixel parameter move improves.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask has no foreground")
    if mode not in ("inscribed", "circumscribed"):
        raise ValueError(f"unknown fit mode {mode!r}")
    height, width = mask.shape
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64),
                         np.arange(height, dtype=np.float64))

    def raster(cu, cv, r):
        return (uu - cu) ** 2 + (vv - cv) ** 2 <= r * r

    def feasible(disk):
        if mode == "inscribed":
            return not (disk & ~mask).any()
        return not (mask & ~disk).any()

    def cost(disk):
        return int((disk ^ mask).sum())

    if mode == "inscribed":
        start = inscribed_circle(mask, edt_from_sites(boundary_mask(mask)))
    else:
        start = circumscribed_circle(mask)
    cu, cv = start.center
    r = start.radius
    max_r = float(np.hypot(width, height))
    # nudge into feasibility: raster containment is a little stricter than
    # the continuous definition at exact-tie pixel centers
    for _ in range(64):
        if feasible(raster(cu, cv, r)):
            break
        r = max(r - 0.5, 0.5) if mode == "inscribed" else min(r + 0.5, max_r)

    best = cost(raster(cu, cv, r))
    moves = ((0.5, 0.0, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.5, 0.0),
             (0.0, -0.5, 0.0), (0.0, 0.0, 0.5), (0.0, 0.0, -0.5))
    for _ in range(10_000):
        for du, dv, dr in moves:
            ncu, ncv, nr = cu + du, cv + dv, r + dr
            if nr < 0.5 or nr > max_r:
                continue
            disk = raster(ncu, ncv, nr)
            if not feasible(disk):
                continue
            c = cost(disk)
            if c < best:
                best, cu, cv, r = c, ncu, ncv, nr
                break
        else:
            break
    return Circle((cu, cv), r)


def boundary_pixels_reference(mask) -> list[tuple[int, int]]:
    h, w = mask.shape
    out = []
    for v in range(h):
        for u in range(w):
            if not mask[v, u]:
                continue
            for du, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nu, nv = u + du, v + dv
                if not (0 <= nu < w and 0 <= nv < h) or not mask[nv, nu]:
                    out.append((u, v))
                    break
    return out


def boundf_reference(pred, gt, thresholds=(1, 2, 3, 4, 5)):
    """Boundary F1 by brute-force pairwise distances between boundary sets."""
    pb = boundary_pixels_reference(np.asarray(pred, dtype=bool))
    gb = boundary_pixels_reference(np.asarray(gt, dtype=bool))
    if not pb or not gb:
        score = 1.0 if (not np.asarray(pred).any() and not np.asarray(gt).any()) else 0.0
        return score, tuple([score] * len(thresholds))
    pa = np.asarray(pb, dtype=np.float64)
    ga = np.asarray(gb, dtype=np.float64)
    d = np.hypot(pa[:, None, 0] - ga[None, :, 0], pa[:, None, 1] - ga[None, :, 1])
    d_p = d.min(axis=1)
    d_g = d.min(axis=0)
    per = []
    for t in thresholds:
        precision = float((d_p <= t).mean())
        recall = float((d_g <= t).mean())
        per.append(0.0 if precision + recall == 0.0
                   else 2.0 * precision * recall / (precision + recall))
    return float(np.mean(per)), tuple(per)


def _validate_boundary(boundary, width: int, height: int) -> np.ndarray:
    pts = np.asarray(boundary, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("no boundary: mask is empty or full-frame degenerate")
    pts = pts.reshape(-1, 2)
    u, v = pts[:, 0], pts[:, 1]
    if (u < 0).any() or (u >= width).any() or (v < 0).any() or (v >= height).any():
        raise ValueError("boundary pixel outside the image")
    return pts


def edt_brute(boundary, width: int, height: int) -> np.ndarray:
    """O(pixels x seeds) reference: per pixel, the minimum Euclidean
    distance to any seed pixel center, seeds given as (u, v) points."""
    pts = _validate_boundary(boundary, width, height)
    uu, vv = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    best = np.full((height, width), np.inf)
    chunk = 256
    for start in range(0, len(pts), chunk):
        block = pts[start:start + chunk]
        du = uu[..., None] - block[None, None, :, 0]
        dv = vv[..., None] - block[None, None, :, 1]
        np.minimum(best, (du * du + dv * dv).min(axis=2), out=best)
    return np.sqrt(best)


def fd_gradient(fn, x0: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat
    float vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        hi = x0.copy()
        lo = x0.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def align_cyclic_reference(reference, target) -> Contour:
    """Try every cyclic shift of ``target``'s nodes in turn and keep the
    first with the smallest mean node distance to ``reference``."""
    a = reference.nodes
    b = target.nodes
    best_shift, best_cost = 0, np.inf
    for k in range(len(b)):
        d = np.roll(b, -k, axis=0) - a
        cost = float(np.hypot(d[:, 0], d[:, 1]).mean())
        if cost < best_cost:
            best_shift, best_cost = k, cost
    return Contour(np.roll(b, -best_shift, axis=0))


def subgrad_kappa(gt_contour, pred_contour, width: int, height: int) -> np.ndarray:
    """Indicator difference of the two enclosed regions, in {-1, 0, +1}."""
    gt = rasterize(gt_contour, width, height)
    pred = rasterize(pred_contour, width, height)
    return gt.astype(np.float64) - pred.astype(np.float64)


def perimeter(nodes) -> float:
    """Length of the closed polygon through ``nodes``, back to the first."""
    d = np.roll(nodes, -1, axis=0) - nodes
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def sum_first_diff_sq(nodes) -> float:
    total = 0.0
    count = len(nodes)
    for s in range(count):
        du = nodes[(s + 1) % count][0] - nodes[s][0]
        dv = nodes[(s + 1) % count][1] - nodes[s][1]
        total += du * du + dv * dv
    return total


def sum_second_diff_sq(nodes) -> float:
    total = 0.0
    count = len(nodes)
    for s in range(count):
        du = nodes[(s + 1) % count][0] - 2 * nodes[s][0] + nodes[(s - 1) % count][0]
        dv = nodes[(s + 1) % count][1] - 2 * nodes[s][1] + nodes[(s - 1) % count][1]
        total += du * du + dv * dv
    return total


def bilinear_sample_reference(field, points) -> np.ndarray:
    """Bilinear lookup of one scalar field, indexed ``field[v, u]`` per corner."""
    field = np.asarray(field, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("sample points contain NaN or Inf (corrupted contour state)")
    height, width = field.shape
    u = np.clip(pts[..., 0], 0.0, width - 1.0)
    v = np.clip(pts[..., 1], 0.0, height - 1.0)
    u0 = np.clip(np.floor(u).astype(np.intp), 0, max(width - 2, 0))
    v0 = np.clip(np.floor(v).astype(np.intp), 0, max(height - 2, 0))
    u1 = np.minimum(u0 + 1, width - 1)
    v1 = np.minimum(v0 + 1, height - 1)
    fu = u - u0
    fv = v - v0
    top = field[v0, u0] * (1.0 - fu) + field[v0, u1] * fu
    bottom = field[v1, u0] * (1.0 - fu) + field[v1, u1] * fu
    return top * (1.0 - fv) + bottom * fv


def bilinear_corners_reference(points, height: int, width: int) -> BilinearCorners:
    """Corner pixels and fractions of (u, v) points: clamp with ``np.clip``,
    keep the far corners inside the grid with ``np.minimum`` and stack the
    four flat index rows."""
    pts = np.asarray(points, dtype=np.float64)
    uv = np.clip(pts, 0.0, (width - 1.0, height - 1.0))
    uv0 = np.clip(np.floor(uv).astype(np.intp), 0, (max(width - 2, 0), max(height - 2, 0)))
    frac = uv - uv0
    u0 = uv0[..., 0]
    u1 = np.minimum(u0 + 1, width - 1)
    row0 = uv0[..., 1] * width
    row1 = np.minimum(row0 + width, (height - 1) * width)
    index = np.stack([row0 + u0, row0 + u1, row1 + u0, row1 + u1])
    return BilinearCorners(index, np.stack([1.0 - frac, frac]))


def force_at(force, points) -> np.ndarray:
    """Bilinear sample of a force field at an (N, 2) array of points, one
    lookup per component."""
    return np.stack(
        [
            bilinear_sample_reference(force.vectors[..., 0], points),
            bilinear_sample_reference(force.vectors[..., 1], points),
        ],
        axis=1,
    )


def internal_system(alpha, b) -> np.ndarray:
    """2 alpha D1'D1 + 2 D2' diag(b) D2 for the n curvature weights ``b``,
    added up node by node without BLAS: node s adds
    outer(d1, d1), d1 = (-1, 1), at rows and columns (s, s+1) to D1'D1
    and 2 b_s outer(d2, d2), d2 = (1, -2, 1), at (s-1, s, s+1) to the
    curvature term, in ascending s, so each entry's sum has one order on
    every machine.
    """
    n = len(b)
    d1 = np.array([-1.0, 1.0])
    d2 = np.array([1.0, -2.0, 1.0])
    continuity = np.zeros((n, n))
    curvature = np.zeros((n, n))
    for s in range(n):
        hop = [s, (s + 1) % n]
        continuity[np.ix_(hop, hop)] += np.outer(d1, d1)
        stencil = [(s - 1) % n, s, (s + 1) % n]
        curvature[np.ix_(stencil, stencil)] += 2.0 * b[s] * np.outer(d2, d2)
    return 2.0 * alpha * continuity + curvature


def assemble_internal_system(contour, params) -> np.ndarray:
    """Stiffness matrix of the internal energy at the current nodes.

    Returns the exact Hessian of
    alpha * sum |y_{s+1}-y_s|^2 + sum b_s |y_{s+1}-2y_s+y_{s-1}|^2 with the
    curvature weights b_s frozen at the current node samples, built by
    ``internal_system`` on every call.
    """
    b = bilinear_sample_reference(params.beta, contour.nodes)
    return internal_system(params.alpha, b)


def balloon_force(contour, kappa) -> np.ndarray:
    """Per-node force kappa(y_s) * outward unit normal.

    The normal is perpendicular to the central-difference tangent; nodes
    with coincident neighbors (zero tangent) get zero force.
    """
    kappa = np.asarray(kappa, dtype=np.float64)
    pts = contour.nodes
    tangent = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    # for positive-signed-area node order, (t_v, -t_u) points outward
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    norm = np.hypot(normal[:, 0], normal[:, 1])
    unit = np.zeros_like(normal)
    ok = norm > 1e-12
    unit[ok] = normal[ok] / norm[ok, None]
    k = bilinear_sample_reference(kappa, pts)
    return k[:, None] * unit


def evolve_step_reference(contour, force, params, config) -> np.ndarray:
    """One semi-implicit update with per-call lookups and a fresh system
    matrix; returns the raw node array, before any orientation handling."""
    pts = contour.nodes
    height, width = force.potential.shape
    system = assemble_internal_system(contour, params)
    rhs = pts + config.time_step * (force_at(force, pts) + balloon_force(contour, params.kappa))
    lhs = np.eye(len(pts)) + config.time_step * system
    new_pts = _clip_to_frame(np.linalg.solve(lhs, rhs), width, height)
    if config.resample_each_step:
        new_pts = _clip_to_frame(resample_closed(new_pts, len(pts)), width, height)
    return new_pts


def _clip_to_frame(pts, width, height) -> np.ndarray:
    """(N, 2) (u, v) points clipped to the frame in place, one axis at a time."""
    pts[:, 0] = np.clip(pts[:, 0], 0.0, width - 1.0)
    pts[:, 1] = np.clip(pts[:, 1], 0.0, height - 1.0)
    return pts


def evolve_reference(initial, force, params, config) -> list:
    """Every contour of an evolution, the clamped start first, stepped by
    ``evolve_step_reference``; raises ``EvolveError`` with the message
    ``evolve`` gives when a step's signed area falls below
    ``DEGENERATE_AREA``."""
    height, width = force.potential.shape
    current = initial.clamped(width, height)
    contours = [current]
    for i in range(config.iterations):
        new_pts = evolve_step_reference(current, force, params, config)
        area = signed_area(new_pts)
        if not area >= DEGENERATE_AREA:
            raise EvolveError(f"contour collapsed or reversed at iteration {i + 1} "
                              f"(signed area {area:.6g})")
        current = Contour(new_pts)
        contours.append(current)
    return contours


def energies_reference(contours, external, params) -> np.ndarray:
    """The energy of each contour, scored one contour at a time, its region
    term summed over the frame mask of the former one-contour rasterizer."""
    ext = as_field(external)
    height, width = ext.shape
    energies = []
    for contour in contours:
        pts = contour.nodes
        d1 = np.roll(pts, -1, axis=0) - pts
        d2 = np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)
        corners = bilinear_corners(pts, height, width)
        beta_nodes = blend_corners(params.beta.reshape(-1)[corners.index][None], corners)[0]
        total = float(
            blend_corners(ext.reshape(-1)[corners.index][None], corners)[0].sum()
            + params.alpha * (d1 * d1).sum()
            + (beta_nodes * (d2 * d2).sum(axis=1)).sum()
        )
        if not contour.is_degenerate:
            total += float(params.kappa[rasterize_histogram(contour, width, height)].sum())
        energies.append(total)
    return np.array(energies)


def displacements_reference(contours) -> np.ndarray:
    """The mean node travel of each step, one pair of contours at a time,
    0.0 for the start."""
    moved = [0.0]
    for prev, cur in zip(contours, contours[1:]):
        delta = cur.nodes - prev.nodes
        moved.append(float(np.hypot(delta[:, 0], delta[:, 1]).mean()))
    return np.array(moved)


def energy_eval(contour, external, params) -> float:
    """Total energy of one contour against an external-energy map."""
    return float(contour_energies([contour], external, params)[0])


def clip_vectors_masked(vectors: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale any vector longer than ``clip_norm`` down to that length, by
    scattering ``clip_norm / mag`` into the masked pixels of a ones array."""
    mag = np.hypot(vectors[..., 0], vectors[..., 1])
    over = mag > clip_norm
    scale = np.ones_like(mag)
    scale[over] = clip_norm / mag[over]
    return vectors * scale[..., None]


def next_token_reference(data: bytes, pos: int) -> tuple[bytes, int]:
    """The header token at or after ``pos`` and the position just past it:
    whitespace and ``#`` comments (up to a newline or carriage return) are
    skipped first; ``ValueError("truncated header")`` when none is left."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated header")
    return data[start:pos], pos


def run_reference(mask, gt, settings: dict) -> dict:
    """The `run` ``result.json`` payload, unrounded, of ``mask`` scored
    against ``gt`` under ``settings``: every key of that payload's
    ``config``, and ``beta`` and ``kappa`` as constants. ``edt_brute`` on
    the inner boundary; an ``np.gradient`` field, scaled by the distance
    for ``lcdvf``, clipped by ``clip_vectors_masked``; the
    ``inscribed_circle_full_frame`` or the
    ``minimal_enclosing_circle_reference`` circle padded by half a pixel,
    as a regular polygon; ``evolve_reference``; ``rasterize_loop``; the
    integer IoU and Dice, ``boundf_reference``, ``energies_reference`` and
    ``displacements_reference``. Raises ``ValueError`` or ``EvolveError``
    with the message of `run`'s error where it exits 1, the field before
    the start."""
    mask, gt = np.asarray(mask, dtype=bool), np.asarray(gt, dtype=bool)
    height, width = mask.shape
    if mask.all() or not mask.any():
        raise ValueError("mask needs at least one foreground and one background pixel")
    dt = edt_brute(boundary_pixels_reference(mask), width, height)
    d_dv, d_du = np.gradient(dt)
    gradient = np.stack([d_du, d_dv], axis=-1)
    if settings["field"] == "lcdvf":
        force = ForceField(clip_vectors_masked(-dt[..., None] * gradient, settings["clip"]),
                           0.5 * dt * dt)
    else:
        force = ForceField(clip_vectors_masked(-gradient, settings["clip"]), dt)
    if settings["init"] == "inscribed":
        circle = inscribed_circle_full_frame(mask)
        (cu, cv), radius = circle.center, circle.radius
    else:
        cu, cv, radius = minimal_enclosing_circle_reference(boundary_pixels_reference(mask))
        radius += 0.5
    theta = 2.0 * np.pi * np.arange(settings["nodes"]) / settings["nodes"]
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    start = Contour(radius * ring + (cu, cv)).clamped(width, height)
    params = ParameterSet(settings["alpha"], np.full((height, width), settings["beta"]),
                          np.full((height, width), settings["kappa"]))
    config = SnakeConfig(settings["iterations"], settings["tau"], settings["resample"])
    contours = evolve_reference(start, force, params, config)
    pred = rasterize_loop(contours[-1], width, height)
    overlap, union = int((pred & gt).sum()), int((pred | gt).sum())
    areas = int(pred.sum()) + int(gt.sum())
    iou, dice = (overlap / union, 2.0 * overlap / areas) if areas else (1.0, 1.0)
    boundf, per_threshold = boundf_reference(pred, gt)
    config_keys = ("profile", "field", "init", "iterations", "tau", "nodes", "resample",
                   "clip", "alpha")
    return {
        "metrics": {"iou": iou, "dice": dice, "boundf": boundf,
                    "boundf_per_threshold": list(per_threshold)},
        "trace": {"energies": energies_reference(contours, force.potential, params).tolist(),
                  "mean_displacements": displacements_reference(contours).tolist()},
        "config": {key: settings[key] for key in config_keys},
    }
