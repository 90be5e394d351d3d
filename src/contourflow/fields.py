"""Grid and polygon primitives shared by the whole engine.

Conventions used everywhere, without exception:

* a point is (u, v) = (column, row); pixel centers sit at integer
  coordinates and the origin is the top-left pixel
* scalar fields are float64 arrays of shape (height, width), indexed
  ``field[v, u]``; vector fields stack the (u, v) components in a
  trailing axis of size 2
* masks are bool arrays of shape (height, width)
* contours are closed polygons whose node order is normalized to
  positive signed area (shoelace in (u, v)) at construction; the last
  node connects back to the first. Solver output is the one exception
  (``Contour.solved``): it keeps the solver's order, so that a reversal
  shows as a negative area instead of being normalized away
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# polygons whose |signed area| falls below this rasterize to nothing
DEGENERATE_AREA = 1e-6


def as_field(values) -> np.ndarray:
    field = np.asarray(values, dtype=np.float64)
    if field.ndim != 2 or field.size == 0:
        raise ValueError(f"expected a non-empty 2-d field, got shape {field.shape}")
    if not np.isfinite(field).all():
        raise ValueError("field contains NaN or Inf")
    return field


def as_mask(bits) -> np.ndarray:
    mask = np.asarray(bits)
    if mask.ndim != 2 or mask.size == 0:
        raise ValueError(f"expected a non-empty 2-d mask, got shape {mask.shape}")
    return mask.astype(bool)


class BilinearCorners(NamedTuple):
    """Where N points fall on an (H, W) grid.

    ``index`` is a (4, N) array of flat pixel indices ``v * W + u``, one
    row per corner in the order (v0, u0), (v0, u1), (v1, u0), (v1, u1).
    ``frac`` holds each point's (fu, fv) offsets from (u0, v0) as an
    (N, 2) array, and ``rest`` holds 1 - frac.
    """

    index: np.ndarray
    frac: np.ndarray
    rest: np.ndarray


def bilinear_corners(points, height: int, width: int) -> BilinearCorners:
    """Corner pixels and fractions of an (N, 2) array of (u, v) points.

    Points are clamped to the field rectangle, so the lookup is total.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("sample points contain NaN or Inf (corrupted contour state)")
    uv = np.clip(pts, 0.0, (width - 1.0, height - 1.0))
    uv0 = np.clip(np.floor(uv).astype(np.intp), 0, (max(width - 2, 0), max(height - 2, 0)))
    frac = uv - uv0
    u0 = uv0[..., 0]
    u1 = np.minimum(u0 + 1, width - 1)
    row0 = uv0[..., 1] * width
    row1 = np.minimum(row0 + width, (height - 1) * width)
    index = np.stack([row0 + u0, row0 + u1, row1 + u0, row1 + u1])
    return BilinearCorners(index, frac, 1.0 - frac)


def bilinear_blend(flat_field: np.ndarray, corners: BilinearCorners) -> np.ndarray:
    """Bilinear values at the points ``corners`` describes, from a field
    flattened to (H * W,) or, for a vector field, (H * W, C); one gather
    reads all four corners of every point and every channel."""
    c00, c01, c10, c11 = flat_field[corners.index]
    if flat_field.ndim == 1:
        fu, fv = corners.frac[..., 0], corners.frac[..., 1]
        gu, gv = corners.rest[..., 0], corners.rest[..., 1]
    else:
        fu, fv = corners.frac[:, 0:1], corners.frac[:, 1:2]
        gu, gv = corners.rest[:, 0:1], corners.rest[:, 1:2]
    top = c00 * gu + c01 * fu
    bottom = c10 * gu + c11 * fu
    return top * gv + bottom * fv


def central_gradient(field) -> np.ndarray:
    """Per-pixel gradient as an (H, W, 2) array of (d/du, d/dv) components.

    Interior pixels use central differences, border pixels one-sided ones.
    """
    field = as_field(field)
    if field.shape[0] < 2 or field.shape[1] < 2:
        raise ValueError("gradient needs a field of at least 2x2 pixels")
    ddu = np.gradient(field, axis=1)
    ddv = np.gradient(field, axis=0)
    return np.stack([ddu, ddv], axis=-1)


def boundary_mask(mask) -> np.ndarray:
    """Inner boundary: foreground pixels with a 4-neighbor that is background
    or outside the image."""
    mask = as_mask(mask)
    padded = np.pad(mask, 1, mode="constant", constant_values=False)
    has_all_neighbors = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return mask & ~has_all_neighbors


def bounding_box(mask) -> tuple[slice, slice]:
    """Row and column slices of the smallest box holding every True pixel
    of a mask that has at least one."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def boundary_pixels(mask) -> np.ndarray:
    """(K, 2) int array of boundary (u, v) coordinates, in row-major order."""
    rows, cols = np.nonzero(boundary_mask(mask))
    return np.stack([cols, rows], axis=1)


def signed_area(nodes) -> float:
    pts = np.asarray(nodes, dtype=np.float64)
    nxt = np.concatenate((pts[1:], pts[:1]))  # np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]))


@dataclass
class Circle:
    center: tuple[float, float]  # (u, v)
    radius: float

    def __post_init__(self):
        cu, cv = self.center
        if not (np.isfinite(cu) and np.isfinite(cv) and np.isfinite(self.radius)):
            raise ValueError("circle parameters must be finite")
        if self.radius <= 0.0:
            raise ValueError("circle radius must be positive")
        self.center = (float(cu), float(cv))
        self.radius = float(self.radius)


@dataclass
class Contour:
    """Closed polygon of sub-pixel (u, v) nodes.

    Construction copies the node array, validates it and normalizes the
    orientation to positive signed area so the outward normal is
    well-defined for the balloon force.
    """

    nodes: np.ndarray

    def __post_init__(self):
        pts = np.array(self.nodes, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("a contour needs an (L >= 3, 2) array of (u, v) nodes")
        if not np.isfinite(pts).all():
            raise ValueError("contour nodes contain NaN or Inf")
        if signed_area(pts) < 0.0:
            pts = np.concatenate([pts[:1], pts[-1:0:-1]])  # reverse, keep node 0 first
        self.nodes = pts

    @classmethod
    def solved(cls, nodes: np.ndarray) -> "Contour":
        """Wrap a solver's freshly computed node array as is: no copy, no
        validation and no orientation normalization."""
        contour = object.__new__(cls)
        contour.nodes = nodes
        return contour

    def __len__(self) -> int:
        return self.nodes.shape[0]

    @property
    def area(self) -> float:
        return signed_area(self.nodes)

    @property
    def is_degenerate(self) -> bool:
        return abs(self.area) < DEGENERATE_AREA

    @property
    def perimeter(self) -> float:
        d = np.roll(self.nodes, -1, axis=0) - self.nodes
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def clamped(self, width: int, height: int) -> "Contour":
        pts = self.nodes.copy()
        pts[:, 0] = np.clip(pts[:, 0], 0.0, width - 1.0)
        pts[:, 1] = np.clip(pts[:, 1], 0.0, height - 1.0)
        return Contour(pts)


def rasterize(contour: Contour, width: int, height: int) -> np.ndarray:
    """Pixel-center even-odd rasterization of a closed polygon.

    A pixel center is inside when an odd number of edges cross the
    horizontal ray extending to its right; an edge contributes over the
    half-open row interval [min(v), max(v)), which resolves
    boundary-grazing centers deterministically (top-left convention).
    Degenerate contours rasterize to an all-zero mask.

    All edge x row crossings are computed in one array, with the same
    ``t = (row - av) / (bv - av)``, ``x = au + t * (bu - au)`` arithmetic
    per crossing as a per-edge loop. A crossing lies strictly right of
    the integer column ``c`` exactly when ``ceil(x) > c``, so a histogram
    of ``clip(ceil(x), 0, width)`` per row, summed from the right, counts
    the crossings right of every pixel center without sorting. Each
    crossing is the same float as in that loop and is only compared with
    integers afterwards, so the mask equals the loop's (kept as
    ``rasterize_loop`` in ``tests/oracles.py``) bit for bit.
    """
    if contour.is_degenerate:
        return np.zeros((height, width), dtype=bool)
    au, av = contour.nodes[:, 0], contour.nodes[:, 1]
    bu, bv = np.roll(au, -1), np.roll(av, -1)
    r0 = np.clip(np.ceil(np.minimum(av, bv)), 0, height).astype(np.intp)
    r1 = np.clip(np.ceil(np.maximum(av, bv)), 0, height).astype(np.intp)
    counts = r1 - r0  # 0 for horizontal edges and edges outside the rows
    edge = np.repeat(np.arange(len(counts)), counts)
    rows = np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts) + r0[edge]
    t = (rows - av[edge]) / (bv[edge] - av[edge])
    xs = au[edge] + t * (bu[edge] - au[edge])
    bins = np.clip(np.ceil(xs), 0, width).astype(np.intp)
    hist = np.bincount(rows * (width + 1) + bins, minlength=height * (width + 1))
    right = np.cumsum(hist.reshape(height, width + 1)[:, ::-1], axis=1)[:, ::-1]
    return (right[:, 1:] & 1).astype(bool)


def resample_closed(nodes, count: int) -> np.ndarray:
    """Resample a closed polyline to ``count`` nodes at uniform arc length,
    starting from node 0."""
    if count < 3:
        raise ValueError("resampling needs at least 3 target nodes")
    pts = np.asarray(nodes, dtype=np.float64)
    closed = np.vstack([pts, pts[:1]])
    seg = np.hypot(np.diff(closed[:, 0]), np.diff(closed[:, 1]))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0.0:
        return np.repeat(pts[:1], count, axis=0)
    target = np.linspace(0.0, total, count, endpoint=False)
    u = np.interp(target, cum, closed[:, 0])
    v = np.interp(target, cum, closed[:, 1])
    return np.stack([u, v], axis=1)
