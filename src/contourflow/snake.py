"""Discrete closed-contour energy and its semi-implicit evolution loop.

The energy of a contour y with nodes y_s is

    sum_s [ D(y_s) + alpha |y_{s+1}-y_s|^2 + beta(y_s) |y_{s+1}-2y_s+y_{s-1}|^2 ]
    + sum_{(u,v) in region(y)} kappa(u, v)

with cyclic indexing, D and beta sampled bilinearly at the nodes, and
the region term summed over the rasterized interior. Evolution treats
the internal terms implicitly and the external/balloon forces
explicitly, which keeps the stiff smoothing terms unconditionally
stable.

``evolve_step`` is the one solver step, ``evolve`` the one driver and
``contour_energies`` the one scorer; each docstring states its own rules,
and every float equals that of the one-contour loops kept in
``tests/oracles.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import blas
from .fields import (DEGENERATE_AREA, Box, Contour, as_field, bilinear_corners, blend_corners,
                     clamp_to_frame, corner_box, rasterize, resample_closed, signed_areas)

_TINY = 1e-12
_FLIP = np.array((1.0, -1.0))
_COMPONENTS = np.array((0, 1)).reshape(2, 1, 1)  # flat offsets of a force's u and v


class EvolveError(RuntimeError):
    """Evolution failed; the message carries the 1-based iteration index."""


class LeftBox(Exception):
    """A contour's bilinear corners left the box where its force field holds
    the frame's values, at step ``iteration`` (0 for the start)."""

    def __init__(self, iteration: int):
        super().__init__(f"a contour left its force field's box at step {iteration}")
        self.iteration = iteration


@dataclass
class ParameterSet:
    """Energy weights: scalar continuity weight, per-pixel curvature and
    balloon weight maps."""

    alpha: float
    beta: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be finite and >= 0")
        self.alpha = float(self.alpha)
        self.beta = as_field(self.beta)
        self.kappa = as_field(self.kappa)
        if (self.beta < 0.0).any():
            raise ValueError("beta must be >= 0 everywhere")
        if self.beta.shape != self.kappa.shape:
            raise ValueError("beta and kappa must share the image dimensions")

    @classmethod
    def uniform(cls, width: int, height: int, alpha: float = 0.01,
                beta: float = 0.1, kappa: float = 0.0) -> "ParameterSet":
        return cls(
            alpha=alpha,
            beta=np.full((height, width), float(beta)),
            kappa=np.full((height, width), float(kappa)),
        )

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.alpha, self.beta.copy(), self.kappa.copy())

    @functools.cached_property
    def constant_beta(self) -> bool:
        """Whether every beta value is the same, as under both CLI profiles:
        then a lone contour's systems repeat from step to step, which under
        a varying map, as `learn` fits, they all but never do."""
        return bool((self.beta == self.beta.flat[0]).all())


@dataclass
class SnakeConfig:
    iterations: int = 50
    time_step: float = 0.1
    resample_each_step: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0.0 < self.time_step < np.inf:
            raise ValueError("time_step must be positive and finite")


@dataclass
class EvolutionTrace:
    """The contours of one evolution, the clamped start first.

    ``potential`` and ``params`` are the external-energy map and weights
    the run used, held by reference, not copied, over ``box`` of the frame
    (the frame when None). Energies and mean node
    displacements are computed from the contours each time they are read,
    so a caller that never reads them never pays for them; the energies
    of all contours come from one ``contour_energies`` call.
    """

    contours: list[Contour]
    potential: np.ndarray
    params: ParameterSet
    box: Box | None = None

    @property
    def energies(self) -> np.ndarray:
        return contour_energies(self.contours, self.potential, self.params, self.box)

    @property
    def displacements(self) -> np.ndarray:
        delta = np.diff(np.stack([contour.nodes for contour in self.contours]), axis=0)
        return np.concatenate(([0.0], np.hypot(delta[..., 0], delta[..., 1]).mean(axis=1)))


def contour_energies(contours, external, params: ParameterSet,
                     box: Box | None = None) -> np.ndarray:
    """Total energy of each of K contours of one node count against an
    external-energy map of the parameter maps' shape, over ``box`` of the
    frame (the frame when None), which must hold every node's corners.

    The node terms of all contours come from one (K, n, 2) stack: one
    corner lookup, a gather and a blend for the potential and then for
    beta, and per-contour row sums over the same elements in the same
    order as one contour's sums, so each energy is bit-identical to the
    former per-contour loop (kept in ``tests/oracles.py``). The region term comes
    from one cropped ``rasterize`` call: each contour sums ``kappa`` over
    its inside pixels of the crossings' box in row-major order, the float
    sequence of ``kappa[mask].sum()`` over its frame mask. Degenerate
    contours enclose nothing and contribute node terms only. The crossings'
    box lies in that of the corners, so it lies in ``box``.
    """
    ext = np.asarray(external, dtype=np.float64)
    if ext.shape != params.beta.shape:
        raise ValueError(f"external map {ext.shape} does not match "
                         f"the parameter maps {params.beta.shape}")
    height, width = box[2:] if box else ext.shape
    top, left = (box.rows.start, box.cols.start) if box else (0, 0)
    # the region sums first, so that the raster's arrays are freed before the node terms'
    rows, cols, inside = rasterize(contours, width, height, crop=True)
    region = params.kappa[rows.start - top:rows.stop - top, cols.start - left:cols.stop - left]
    sums = [None if contour.is_degenerate else float(region[inside[k].view(bool)].sum())
            for k, contour in enumerate(contours)]
    del inside
    pts = np.stack([c.nodes for c in contours])
    nxt = np.roll(pts, -1, axis=1)
    d1 = nxt - pts
    continuity = params.alpha * (d1 * d1).reshape(len(pts), -1).sum(axis=1)
    nxt -= 2.0 * pts
    nxt += np.roll(pts, 1, axis=1)  # the second differences
    bending = (nxt * nxt).sum(axis=2)
    del d1, nxt
    corners = bilinear_corners(pts.reshape(-1, 2), height, width, box)
    gathered, sampled = np.empty((1,) + corners.index.shape), []
    for field in (ext, params.beta):
        field.take(corners.index, out=gathered[0], mode="clip")
        sampled.append(blend_corners(gathered, corners).reshape(pts.shape[:2]))
    potential, beta_nodes = sampled
    totals = potential.sum(axis=1) + continuity + (beta_nodes * bending).sum(axis=1)
    for k, total in enumerate(sums):
        if total is not None:
            totals[k] += total
    return totals


class DifferenceOperators(NamedTuple):
    """The plan of the internal-energy system for one node count, read-only
    since one cached plan serves every caller: the flat positions
    ``entries`` of the structural nonzeros of I + D1'D1 + D2'D2, the up
    to three curvature terms b_s * coef of each (coef = 2 D2[s,i] D2[s,j])
    as (3, m) ``src`` and ``coef`` in ascending node s (coef 0 pads),
    D1'D1 and the identity there, and the cyclic ring of node indices
    (n - 1, 0, 1, ..., n - 1, 0), whose entries s + 2 and s are node s's
    next and previous node.
    """

    entries: np.ndarray
    src: np.ndarray
    coef: np.ndarray
    d1td1: np.ndarray
    eye: np.ndarray
    ring: np.ndarray


@functools.lru_cache(maxsize=32)
def difference_operators(n: int) -> DifferenceOperators:
    idx = np.arange(n)
    nxt = (idx + 1) % n
    prv = (idx - 1) % n
    # node s adds 2 b_s outer(d, d), d = (1, -2, 1), at rows and columns
    # (s-1, s, s+1): 9n (entry, s) pairs in ascending s, which a stable
    # sort by entry keeps within each entry
    stencil = np.stack([prv, idx, nxt], axis=1)
    entry = (stencil[:, :, None] * n + stencil[:, None, :]).reshape(-1)
    d = np.array([1.0, -2.0, 1.0])
    pair_coef = np.tile(2.0 * np.outer(d, d).reshape(-1), n)
    order = np.argsort(entry, kind="stable")
    entries, start, count = np.unique(entry[order], return_index=True, return_counts=True)
    column = np.repeat(np.arange(entries.size), count)
    rank = np.arange(order.size) - start[column]
    src = np.zeros((3, entries.size), dtype=np.intp)
    coef = np.zeros((3, entries.size))
    src[rank, column] = order // 9
    coef[rank, column] = pair_coef[order]
    row, col = np.divmod(entries, n)
    offset = (col - row) % n
    eye = (offset == 0).astype(float)
    d1td1 = 2.0 * eye - np.isin(offset, (1, n - 1))
    ring = np.concatenate(([n - 1], idx, [0]))
    ops = DifferenceOperators(entries, src, coef, d1td1, eye, ring)
    for array in ops:
        array.flags.writeable = False
    return ops


def _system_matrix(beta: np.ndarray, alpha: float, tau: float,
                   ops: DifferenceOperators) -> np.ndarray:
    """The (K, n, n) stack I + tau (2 alpha D1'D1 + 2 D2' diag(b) D2) for
    (K, n) curvature weights, built on the entries of ``ops`` without
    BLAS. Each b_s * coef is exact (coef is a signed power of two) and
    each entry sums them in ascending s, so every float is that of adding
    the nodes' stencil blocks in turn, on any machine."""
    count, n = beta.shape
    terms = beta.take(ops.src, axis=1)
    terms *= ops.coef
    band = terms[:, 0] + terms[:, 1]
    band += terms[:, 2]
    band += (2.0 * alpha) * ops.d1td1
    band *= tau
    band += ops.eye
    lhs = np.zeros(count * n * n)
    lhs[_stack_entries(n, count)] = band.ravel()
    return lhs.reshape(count, n, n)


@functools.lru_cache(maxsize=64)
def _stack_entries(n: int, count: int) -> np.ndarray:
    """The flat positions of the plan's ``entries`` in a (count, n, n) stack,
    read-only; one flat scatter fills them."""
    flat = (np.arange(count)[:, None] * (n * n) + difference_operators(n).entries).ravel()
    flat.flags.writeable = False
    return flat


@functools.cache
def _solves_alike(n: int, count: int, threads: int | None) -> tuple[bool, bool]:
    """Which of two faster solves give this process's BLAS, on a pool of
    ``threads``, the bits of K (n, n) systems solved apart against two
    right-hand sides each: one matrix solved once against the 2K columns
    side by side, and getrf's factors of it back-substituted by getrs
    against them (``blas.lu_factor`` and ``lu_solve``). The kernel, n, the
    column count and the pool fix the order of every column's operations,
    whatever the data, so four dense systems of full-mantissa values settle
    both (sines of integers: ``np.random`` would cost a lazy import of a few
    MB). Both are False where the pool size cannot be read, as a change to
    it could not be seen. The factored solve also needs a pool of one
    thread: on more, getrf may split a system that ``gesv`` solves on one."""
    if threads is None:
        return False, False
    draws = np.sin(np.arange(1.0, 4 * n * (n + 2 * count) + 1.0)).reshape(4, n, -1)
    lhs = draws[..., :n] + n * np.eye(n)
    rhs = draws[..., n:].reshape(4, n, count, 2)
    apart = np.linalg.solve(lhs[:, None], rhs.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    one = np.linalg.solve(lhs, draws[..., n:]).tobytes() == apart.tobytes()
    factored = threads == 1 and blas.lu_factor(lhs[0]) is not None
    if factored:
        columns = np.ascontiguousarray(rhs.transpose(0, 2, 3, 1))  # one row per column
        for system, block in zip(lhs, columns):
            blas.lu_solve(blas.lu_factor(system), block)
        factored = columns.transpose(0, 3, 1, 2).tobytes() == apart.tobytes()
    return one, factored


@functools.lru_cache(maxsize=4)
def _system_slot(alpha: float, tau: float, row: bytes) -> list:
    """The slot of one K = 1 or shared system, keyed on what builds its
    matrix: alpha, tau and the bytes of the sampled beta row, whose length
    gives n (a zero alpha's sign changes no entry of the matrix, so equal
    floats key it): empty until the key is first seen, then ``[None]``, then
    ``[None, factors]`` once it repeats. Four slots of at most (n, n)
    floats; keyed only on the matrix's inputs, like ``difference_operators``,
    so which keys are held can change no bit of any output. Threads that
    meet one key at once can at worst factor it twice, to the same bits."""
    return []


def evolve_step(nodes: np.ndarray, vectors: np.ndarray, params: ParameterSet,
                config: SnakeConfig, slots: np.ndarray | None = None,
                box: Box | None = None) -> np.ndarray:
    """One semi-implicit update of a (K, n, 2) stack of contours: per
    contour, solve (I + tau A) y' = y + tau (F_ext + F_bal) for both
    coordinate axes, clamp to image bounds, optionally resample.

    ``vectors`` is a (S, H, W, 2) stack of force fields; contour k reads
    slice ``slots[k]``, and every contour reads slice 0 when ``slots`` is
    not given. The weights in ``params`` are shared by every contour. The
    fields and weights cover ``box`` of the frame, which must hold every
    node's corners, or the frame when ``box`` is None. One
    corner lookup serves every node, and one channel-major gather and one
    blend give each node its force, kappa and beta; the force's two
    components are one ``take`` of ``vectors`` at flat indices 2i and
    2i + 1. The indices are in range, and ``mode="clip"`` spares each
    ``take`` the buffered copy that ``out=`` costs under its default mode.

    A = 2 alpha D1'D1 + 2 D2' diag(b) D2 is the exact Hessian of the
    internal energy with the curvature weights b frozen at the current
    nodes, symmetric positive semidefinite by construction, so I + tau A
    is always solvable. F_bal = kappa * outward unit normal, the normal
    perpendicular to the central-difference tangent (zero where the two
    neighbors coincide). I + tau A is built from its five cyclic bands
    (``_system_matrix``, the same floats on any machine) with the node
    count's cached plan; only the solve's floats can depend on the BLAS
    kernel and thread count.

    When K > 1, every contour samples the same beta row and
    ``_solves_alike`` finds the side-by-side solve alike for n, K and the
    BLAS pool, the K systems are one matrix: it is built once and solved
    once against the (n, 2K) right-hand sides side by side, which gives
    the bits of solving them apart. Otherwise one ``np.linalg.solve`` takes
    the (K, n, n) stack. A shared system, or a lone contour's under a
    constant beta map, whose inputs repeat, where ``_solves_alike`` finds
    the factored solve alike, is factored by getrf the second time and
    back-substituted by getrs from then on, with the same bits and without
    building the matrix again (``_system_slot``).
    The result is the C-contiguous (K, n, 2) stack of new nodes in the
    solver's order.
    """
    count, n = nodes.shape[:2]
    height, width = box[2:] if box else vectors.shape[1:3]
    ops = difference_operators(n)
    # one lookup over the nodes of every contour, laid end to end
    corners = bilinear_corners(nodes.reshape(-1, 2), height, width, box)
    in_slot = corners.index
    if slots is not None:
        in_slot = in_slot + np.repeat(slots * (vectors.shape[1] * vectors.shape[2]), n)
    # channel-major corner values: force u and v, kappa, beta
    gathered = np.empty((4,) + corners.index.shape)
    vectors.take(_COMPONENTS + 2 * in_slot, out=gathered[:2], mode="clip")
    params.kappa.take(corners.index, out=gathered[2], mode="clip")
    params.beta.take(corners.index, out=gathered[3], mode="clip")
    sampled = blend_corners(gathered, corners)
    external = sampled[:2].T.reshape(count, n, 2)
    kappa, beta = sampled[2].reshape(count, n, 1), sampled[3].reshape(count, n)

    ring = nodes.take(ops.ring, axis=1)
    tangent = ring[:, 2:] - ring[:, :-2]
    # for positive-signed-area node order, (t_v, -t_u) points outward
    normal = tangent[..., ::-1] * _FLIP
    norm = np.hypot(normal[..., 0], normal[..., 1])[..., None]
    unit = np.divide(normal, norm, out=np.zeros(normal.shape), where=norm > _TINY)

    wide, factored = (_solves_alike(n, count, blas.pool_size())
                      if count > 1 or params.constant_beta else (False, False))
    shared = count > 1 and wide and (beta == beta[0]).all()
    slot = (_system_slot(params.alpha, config.time_step, beta[0].tobytes())
            if factored and (count == 1 or shared) else None)
    factors = slot[-1] if slot else None
    if factors is None:
        lhs = _system_matrix(beta[:1] if shared else beta, params.alpha, config.time_step, ops)
    rhs = kappa * unit  # nodes + tau (external + kappa unit), in place
    rhs += external
    rhs *= config.time_step
    rhs += nodes
    try:
        if slot is not None and factors is None:  # seen before: factor it now; else note it
            slot.append(blas.lu_factor(lhs[0]) if slot else None)
            factors = slot[-1]
        if factors is not None:
            columns = np.ascontiguousarray(rhs.transpose(0, 2, 1))  # one row per column
            blas.lu_solve(factors, columns)
            new_nodes = np.ascontiguousarray(columns.transpose(0, 2, 1))
        elif shared:
            new_nodes = np.linalg.solve(lhs[0], rhs.transpose(1, 0, 2).reshape(n, 2 * count))
            new_nodes = np.ascontiguousarray(new_nodes.reshape(n, count, 2).transpose(1, 0, 2))
        else:
            new_nodes = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for tau>0, alpha,beta>=0
        raise EvolveError(f"internal error: singular evolution system ({exc})") from exc
    clamp_to_frame(new_nodes, height, width, out=new_nodes)
    if config.resample_each_step:
        new_nodes = np.stack([resample_closed(pts, n) for pts in new_nodes])
    return new_nodes


@dataclass
class ContourPath:
    """One contour's evolution: its contours by step count, the clamped start
    at 0 and then the kept steps it completed, in order, and the
    ``EvolveError`` that stopped it (``None`` when it ran every step)."""

    contours: dict[int, Contour]
    error: EvolveError | None = None


def evolve(starts: list[Contour], vectors: np.ndarray, params: ParameterSet,
           config: SnakeConfig, keep: set[int] | None = None,
           box: Box | None = None) -> list[ContourPath]:
    """Run ``config.iterations`` steps on K contours of one node count
    together and return each contour's path, to the bit the one it takes
    alone, holding the steps in ``keep`` (every step when ``None``).

    ``vectors`` is a (K, H, W, 2) stack of force fields, one per contour,
    or a (1, H, W, 2) stack that every contour shares; ``params`` is
    shared. Each iteration makes one ``evolve_step`` call for every
    contour still running. A contour whose signed area falls below
    ``DEGENERATE_AREA`` (collapsed, or reversed to a negative area) leaves
    the stack at that step, its path ending in an ``EvolveError`` naming
    the 1-based iteration. A step that raises (unreachable for valid
    inputs) ends every contour still running. No energies are computed.

    Given a ``box`` of the frame, the fields and maps cover only that box.
    The clamped starts and every step's surviving contours must then keep
    all four bilinear corners of every node in it (``corner_box``), so that
    each force read, and each potential an energy trace reads, lies in it;
    the first time one does not, ``LeftBox`` is raised.
    """
    if params.beta.shape != vectors.shape[1:3]:
        raise ValueError(f"parameter maps {params.beta.shape} do not match "
                         f"the force field {vectors.shape[1:3]}")
    if len(vectors) not in (1, len(starts)):
        raise ValueError(f"{len(vectors)} force fields for {len(starts)} contours")
    height, width = box[2:] if box else vectors.shape[1:3]
    paths = [ContourPath({0: start.clamped(width, height)}) for start in starts]
    nodes = np.stack([path.contours[0].nodes for path in paths])
    _check_box(nodes, box, 0)
    running = list(range(len(paths)))  # the contours still in the stack
    slots = None if len(vectors) == 1 else np.array(running)
    for i in range(config.iterations):
        try:
            nodes = evolve_step(nodes, vectors, params, config, slots, box)
        except Exception as exc:
            for k in running:
                paths[k].error = EvolveError(f"evolution failed at iteration {i + 1}: {exc}")
            break
        areas = signed_areas(nodes).tolist()
        alive = [area >= DEGENERATE_AREA for area in areas]  # a NaN area fails too
        if not all(alive):
            for k, area, ok in zip(running, areas, alive):
                if not ok:
                    paths[k].error = EvolveError(f"contour collapsed or reversed at iteration "
                                                 f"{i + 1} (signed area {area:.6g})")
            nodes = nodes[alive]
            running = [k for k, ok in zip(running, alive) if ok]
            slots = None if slots is None else np.array(running)
            if not running:
                break
        _check_box(nodes, box, i + 1)
        if keep is None or i + 1 in keep:
            for k, pts in zip(running, nodes):
                paths[k].contours[i + 1] = Contour(pts)
    return paths


def _check_box(nodes: np.ndarray, box: Box | None, iteration: int) -> None:
    """Raise ``LeftBox`` if a corner of a (K, n, 2) stack of nodes lies
    outside ``box``."""
    if box is not None and not all(
            inner.start <= span.start and span.stop <= inner.stop
            for span, inner in zip(corner_box(nodes, box.height, box.width), box)):
        raise LeftBox(iteration)
