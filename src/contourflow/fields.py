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
  node connects back to the first
"""

from __future__ import annotations

import functools
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


def as_mask_stack(masks) -> np.ndarray:
    """A non-empty (K, H, W) boolean stack; a 2-D mask is the K = 1 stack."""
    masks = np.asarray(masks)
    if masks.ndim == 3 and masks.size:
        return masks.astype(bool)
    return as_mask(masks)[None]


class BilinearCorners(NamedTuple):
    """Where N points fall on an (H, W) grid.

    ``index`` is a (4, N) array of flat pixel indices ``v * W + u``, one
    row per corner in the order (v0, u0), (v0, u1), (v1, u0), (v1, u1).
    ``weights`` is a (2, N, 2) array: each point's (gu, gv) = 1 - (fu, fv)
    and its (fu, fv) offsets from (u0, v0), so that ``weights[..., 0]`` is
    (gu, fu) and ``weights[..., 1]`` is (gv, fv). A caller gathers the
    corners of each of its C fields into a contiguous (4, N) block of one
    channel-major (C, 4, N) array, ``field.take(index, out=values[c],
    mode="clip")``, and blends them at once.
    """

    index: np.ndarray
    weights: np.ndarray


class Box(NamedTuple):
    """The row and column slices of an (height, width) frame that box-sized
    arrays cover: element (r, c) of such an array is the frame's pixel
    (rows.start + r, cols.start + c)."""

    rows: slice
    cols: slice
    height: int
    width: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.stop - self.rows.start, self.cols.stop - self.cols.start


@functools.lru_cache(maxsize=32)
def _grid_plan(height: int, width: int, stride: int | None = None, shift: int = 0) -> tuple:
    """The corner lookup's constants on an (H, W) grid, cached and read-only:
    the clamp bound (W - 1, H - 1), the top-left corner's cap (W - 2, H - 2)
    (0 on a one-pixel side), the flat index stride (1, row stride) and the
    four corners' flat offsets less ``shift``, as a (4, 1) column. The row
    stride is W, or a box's width, whose origin's flat index is then
    ``shift``. On a square grid the bound and the cap are scalars, which
    NumPy applies faster than a pair broadcast over (u, v)."""
    stride = width if stride is None else stride
    cap = (max(width - 2, 0), max(height - 2, 0))
    su, sv = min(1, width - 1), min(stride, (height - 1) * stride)
    plan = [np.array((width - 1.0, height - 1.0)), np.array(cap, dtype=np.intp),
            np.array((1, stride), dtype=np.intp),
            np.array((0, su, sv, sv + su), dtype=np.intp).reshape(4, 1) - shift]
    for array in plan:
        array.flags.writeable = False
    if height == width:
        plan[:2] = width - 1.0, cap[0]
    return tuple(plan)


def grid_plan(height: int, width: int, box: Box | None = None) -> tuple:
    """The cached corner-lookup plan of the (H, W) frame, or of ``box`` of
    it: the clamp and the cap stay the frame's, and the flat indices are
    into the box's arrays."""
    if box is None:
        return _grid_plan(height, width)
    return _grid_plan(height, width, box.shape[1], box.rows.start * box.shape[1] + box.cols.start)


def clamp_to_frame(points, height: int, width: int, out=None) -> np.ndarray:
    """(u, v) points clamped to the field rectangle, into ``out`` if given.
    -0.0 becomes +0.0, as under ``np.clip`` with an array upper bound;
    ``np.maximum(0.0, points)`` and a scalar-bound ``np.clip`` keep -0.0."""
    out = np.maximum(points, 0.0, out=out)
    return np.minimum(out, _grid_plan(height, width)[0], out=out)


def bilinear_corners(points, height: int, width: int, box: Box | None = None) -> BilinearCorners:
    """Corner pixels and fractions of an (N, 2) array of (u, v) points.

    Points are checked to be finite and clamped to the field rectangle, so
    the lookup is total; ``frame_corners`` does the rest. Given a ``box``
    of the frame that holds every corner, the clamp and the fractions stay
    the frame's and the flat indices are into the box's arrays.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.isfinite(pts).all():
        raise ValueError("sample points contain NaN or Inf (corrupted contour state)")
    return frame_corners(clamp_to_frame(pts, height, width), grid_plan(height, width, box))


def frame_corners(uv: np.ndarray, plan: tuple) -> BilinearCorners:
    """Corner pixels and fractions of an (N, 2) array of (u, v) points that
    lie in the frame, >= +0.0 (as ``clamp_to_frame`` leaves them), on the
    grid of a ``grid_plan``.

    The top-left corner is clamped to column W - 2 and row H - 2, so the
    other corners lie one column and one row further on, except on a
    grid one pixel wide or high, where they coincide with it. The points
    are >= +0.0, so truncation is their floor, and the flat index is the
    integer product ``(u0, v0) @ (1, W)``, exact.
    """
    _, cap, stride, offsets = plan
    uv0 = uv.astype(np.intp)
    np.minimum(uv0, cap, out=uv0)
    weights = np.empty((2,) + uv.shape)
    np.subtract(uv, uv0, out=weights[1])
    np.subtract(1.0, weights[1], out=weights[0])
    return BilinearCorners(uv0 @ stride + offsets, weights)


def corner_box(points, height: int, width: int) -> tuple[slice, slice]:
    """Row and column slices of the smallest box holding the four corner
    pixels ``bilinear_corners`` reads for each of a stack of (u, v) points
    in the frame, as clamped contours' nodes are. A point's top-left
    corner is its floor capped as there, and the others lie one row and
    one column on (on the same pixel along a one-pixel side)."""
    u, v = points[..., 0], points[..., 1]
    umin, umax, vmin, vmax = u.min(), u.max(), v.min(), v.max()
    capu, capv = max(width - 2, 0), max(height - 2, 0)  # int() floors the points, all >= 0
    return (slice(min(int(vmin), capv), min(min(int(vmax), capv) + 2, height)),
            slice(min(int(umin), capu), min(min(int(umax), capu) + 2, width)))


def blend_corners(values: np.ndarray, corners: BilinearCorners) -> np.ndarray:
    """Bilinear values from the four corner values of the points ``corners``
    describes: a channel-major (C, 4, N) array whose C channels are
    blended together into a (C, N) array.

    Four array operations give every channel the products of
    ``(c00*gu + c01*fu)*gv + (c10*gu + c11*fu)*fv`` in that order (g = 1 - f):
    all four corners times (gu, fu), the near and far products of each
    row added, each row times (gv, fv), and the two rows added.
    """
    weights = corners.weights
    products = values.reshape(len(values), 2, 2, -1) * weights[..., 0]
    rows = products[:, :, 0] + products[:, :, 1]
    rows *= weights[..., 1]
    return rows[:, 0] + rows[:, 1]


def central_gradient(field) -> np.ndarray:
    """Per-pixel gradient as an (H, W, 2) array of (d/du, d/dv) components.

    Interior pixels use central differences, border pixels one-sided ones.
    Each component is ``np.gradient``'s arithmetic, ``(f[2:] - f[:-2]) / 2.0``
    inside and ``f[1] - f[0]``, ``f[-1] - f[-2]`` at the edges, written
    straight into its channel, so the floats equal ``np.stack`` of two
    ``np.gradient`` calls without their full-frame copies.
    """
    field = as_field(field)
    if field.shape[0] < 2 or field.shape[1] < 2:
        raise ValueError("gradient needs a field of at least 2x2 pixels")
    grad = np.empty(field.shape + (2,))
    for channel, axis in enumerate((1, 0)):
        f, out = np.moveaxis(field, axis, 0), np.moveaxis(grad[..., channel], axis, 0)
        out[1:-1] = (f[2:] - f[:-2]) / 2.0
        out[0] = f[1] - f[0]
        out[-1] = f[-1] - f[-2]
    return grad


def boundary_mask(mask) -> np.ndarray:
    """Inner boundary: foreground pixels with a 4-neighbor that is background
    or outside the image; of each mask of a (K, H, W) stack. A foreground
    pixel on the frame always is one, so only the interior is tested and no
    padded copy is built."""
    stack = as_mask_stack(mask)  # a fresh array, cleared in place below
    inner = stack[:, :-2, 1:-1] & stack[:, 2:, 1:-1]
    inner &= stack[:, 1:-1, :-2]
    inner &= stack[:, 1:-1, 2:]
    stack[:, 1:-1, 1:-1] &= ~inner
    return stack if np.ndim(mask) == 3 else stack[0]


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
    return float(signed_areas(np.asarray(nodes, dtype=np.float64)[None])[0])


def signed_areas(stack: np.ndarray) -> np.ndarray:
    """Shoelace signed area of each polygon of a (K, n, 2) stack, as a (K,)
    array; each row is summed as a lone polygon's products are. One product
    of the nodes and their successors (v, u), gathered by one ``take``,
    gives both u_s v_{s+1} and v_s u_{s+1}."""
    cross = stack * stack.take(_swapped_successors(*stack.shape[:2]))
    return 0.5 * (cross[..., 0] - cross[..., 1]).sum(axis=1)


@functools.lru_cache(maxsize=32)
def _swapped_successors(count: int, n: int) -> np.ndarray:
    """The flat positions of (v_{s+1}, u_{s+1}) for each node s of each
    polygon of a (count, n, 2) stack, cyclic, as a read-only array of its
    shape."""
    first = 2 * ((np.arange(n) + 1) % n) + 2 * n * np.arange(count)[:, None]
    flat = np.stack([first + 1, first], axis=2)
    flat.flags.writeable = False
    return flat


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
    def trusted(cls, nodes: np.ndarray) -> "Contour":
        """A contour on ``nodes`` as they are, without the copy and the
        checks: for a caller that holds an (L >= 3, 2) float64 array of its
        own, finite and of positive signed area, which ``Contour(nodes)``
        would only copy."""
        contour = cls.__new__(cls)
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

    def clamped(self, width: int, height: int) -> "Contour":
        pts = self.nodes.copy()
        pts[:, 0] = np.clip(pts[:, 0], 0.0, width - 1.0)
        pts[:, 1] = np.clip(pts[:, 1], 0.0, height - 1.0)
        return Contour(pts)


def rasterize(contours, width: int, height: int, crop: bool = False):
    """Pixel-center even-odd rasterization of a closed polygon, as an (H, W)
    mask, or of each of a list of K of one node count, as a (K, H, W) stack.

    A pixel center is inside when an odd number of edges cross the
    horizontal ray extending to its right; an edge contributes over the
    half-open row interval [min(v), max(v)), which resolves
    boundary-grazing centers deterministically (top-left convention).
    Degenerate contours rasterize to an all-zero mask.

    All edge x row crossings of all contours are computed in one array,
    with the same ``t = (row - av) / (bv - av)``, ``x = au + t * (bu - au)``
    arithmetic per crossing as a per-edge loop. A crossing lies strictly
    right of the integer column ``c`` exactly when ``ceil(x) > c``. Each
    crossing toggles one uint8 cell, at its contour, row and bin
    ``clip(ceil(x), 0, width)``, and an XOR accumulated from the right
    along each row gives the parity of the crossings right of every pixel
    center, without sorting. Each crossing is the same float as in that
    loop and is only compared with integers afterwards, so each mask
    equals the loop's (kept as ``rasterize_loop`` in ``tests/oracles.py``)
    bit for bit.

    The cells cover only the box of all the crossings: the rows that have
    one, and the columns from the smallest to the largest bin. A pixel
    left of a contour's bins in its row has all of that row's crossings
    to its right, and there is an even number of them: an edge crosses
    row r exactly when one end has v <= r and the other v > r, which a
    closed polygon does an even number of times. A pixel right of them
    has no crossing to its right. Both are outside, as in the loop. The
    box is not taken from the nodes' ``ceil(min u)..ceil(max u)``:
    rounding can carry ``x`` across an integer just outside that range.

    With ``crop``, nothing frame-sized is built: the result is the box's
    row and column slices of the frame and the (K, h, w) uint8 stack,
    1 inside, of each contour's pixels in it (``0:0`` slices and an empty
    stack when no contour crosses a row).
    """
    single = isinstance(contours, Contour)
    stack = [contours] if single else list(contours)
    live = [k for k, contour in enumerate(stack) if not contour.is_degenerate]
    rows = cols = slice(0, 0)
    inside = np.zeros((len(stack), 0, 0), dtype=np.uint8)
    if live:
        nodes = np.stack([stack[k].nodes for k in live])
        au, av = nodes[..., 0].ravel(), nodes[..., 1].ravel()
        bu, bv = np.roll(nodes, -1, axis=1).reshape(-1, 2).T
        r0 = np.clip(np.ceil(np.minimum(av, bv)), 0, height).astype(np.intp)
        r1 = np.clip(np.ceil(np.maximum(av, bv)), 0, height).astype(np.intp)
        counts = r1 - r0  # 0 for horizontal edges and edges outside the rows
        edge = np.repeat(np.arange(len(counts)), counts)
        if edge.size:
            row = np.arange(edge.size) - np.repeat(np.cumsum(counts) - counts, counts) + r0[edge]
            t = (row - av[edge]) / (bv[edge] - av[edge])
            xs = au[edge] + t * (bu[edge] - au[edge])
            bins = np.clip(np.ceil(xs), 0, width).astype(np.intp)
            top, bottom = int(row.min()), int(row.max()) + 1
            left, right = int(bins.min()), int(bins.max())
            cells = np.zeros((len(stack), bottom - top, right - left + 1), dtype=np.uint8)
            owner = np.array(live)[edge // nodes.shape[1]]
            np.bitwise_xor.at(cells.reshape(-1),
                              ((owner * (bottom - top) + row - top) * cells.shape[2]
                               + bins - left), np.uint8(1))  # a uint8 one: no casting loop
            flipped = cells[..., ::-1]
            np.bitwise_xor.accumulate(flipped, axis=2, out=flipped)
            rows, cols, inside = slice(top, bottom), slice(left, right), cells[..., 1:]
    if crop:
        return rows, cols, inside
    out = np.zeros((len(stack), height, width), dtype=bool)
    out[:, rows, cols] = inside
    return out[0] if single else out


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
