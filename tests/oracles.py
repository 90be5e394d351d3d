"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (per-pixel loops, exhaustive
enumeration) and shares no code with the production paths it checks,
with the exceptions below. ``iterative_circle_fit`` starts from the exact
circle constructions and cross-checks them by local search on the
raster. ``rasterize_loop`` and ``inscribed_circle_full_frame`` are the
former production implementations (per-edge and per-row loops; a
distance transform over the whole frame), kept so that the vectorized
and cropped versions can be required to match them exactly. Likewise
``evolve_reference`` is the former solver loop: one bilinear lookup per
field and force component, and a system matrix rebuilt every step
(``force_at``, ``balloon_force``, ``assemble_internal_system``); it
reuses the production ``Contour``, ``resample_closed`` and
``signed_area``.
"""

from __future__ import annotations

import math

import numpy as np

from contourflow.autoinit import circumscribed_circle, inscribed_circle
from contourflow.edt import edt_from_sites
from contourflow.fields import (DEGENERATE_AREA, Circle, Contour, as_mask, resample_closed,
                                signed_area)
from contourflow.snake import EvolveError


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

    start = inscribed_circle(mask) if mode == "inscribed" else circumscribed_circle(mask)
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


def assemble_internal_system(contour, params) -> np.ndarray:
    """Stiffness matrix of the internal energy at the current nodes.

    Returns the exact Hessian of
    alpha * sum |y_{s+1}-y_s|^2 + sum b_s |y_{s+1}-2y_s+y_{s-1}|^2 with the
    curvature weights b_s frozen at the current node samples, built from
    fresh D1 and D2 matrices on every call.
    """
    pts = contour.nodes
    n = len(pts)
    idx = np.arange(n)
    d1 = np.zeros((n, n))
    d1[idx, idx] = -1.0
    d1[idx, (idx + 1) % n] += 1.0
    d2 = np.zeros((n, n))
    d2[idx, idx] = -2.0
    d2[idx, (idx + 1) % n] += 1.0
    d2[idx, (idx - 1) % n] += 1.0
    b = bilinear_sample_reference(params.beta, pts)
    return 2.0 * params.alpha * (d1.T @ d1) + 2.0 * (d2.T * b) @ d2


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
    height, width = force.shape
    system = assemble_internal_system(contour, params)
    rhs = pts + config.time_step * (force_at(force, pts) + balloon_force(contour, params.kappa))
    lhs = np.eye(len(pts)) + config.time_step * system
    new_pts = np.linalg.solve(lhs, rhs)
    new_pts[:, 0] = np.clip(new_pts[:, 0], 0.0, width - 1.0)
    new_pts[:, 1] = np.clip(new_pts[:, 1], 0.0, height - 1.0)
    if config.resample_each_step:
        new_pts = resample_closed(new_pts, len(pts))
    return new_pts


def evolve_reference(initial, force, params, config) -> list:
    """Every contour of an evolution, the clamped start first, stepped by
    ``evolve_step_reference``; raises ``EvolveError`` with the message
    ``evolve`` gives when a step's signed area falls below
    ``DEGENERATE_AREA``."""
    height, width = force.shape
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
