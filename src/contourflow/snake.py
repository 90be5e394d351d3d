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
from numpy.linalg import _umath_linalg

from . import blas
from .fields import (DEGENERATE_AREA, Box, Contour, as_field, bilinear_corners, blend_corners,
                     clamp_to_frame, corner_box, frame_corners, grid_plan, rasterize,
                     resample_closed, signed_areas)

_TINY = 1e-12
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
    D1'D1 and the identity there, and the (2, 2, n) flat positions
    ``normals`` in a row of n (u, v) nodes of the rows (v_{s+1}, u_{s-1})
    and (v_{s-1}, u_{s+1}) over the nodes s, cyclic: their difference is
    the outward normal (t_v, -t_u) of the central-difference tangent t.
    """

    entries: np.ndarray
    src: np.ndarray
    coef: np.ndarray
    d1td1: np.ndarray
    eye: np.ndarray
    normals: np.ndarray


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
    normals = np.array([[2 * nxt + 1, 2 * prv], [2 * prv + 1, 2 * nxt]])
    ops = DifferenceOperators(entries, src, coef, d1td1, eye, normals)
    for array in ops:
        array.flags.writeable = False
    return ops


def _system_matrix(beta: np.ndarray, alpha: float, tau: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The (K, n, n) stack I + tau (2 alpha D1'D1 + 2 D2' diag(b) D2) for
    (K, n) curvature weights, built on the entries of the node count's
    plan without BLAS. Each b_s * coef is exact (coef is a signed power of
    two) and each entry sums them in ascending s, so every float is that of
    adding the nodes' stencil blocks in turn, on any machine. The stack is
    written into the first K n² floats of the flat array ``out``, which
    must be zero off the plan's entries, as a run's system buffer stays
    (every step writes the same entries), or into a new one."""
    count, n = beta.shape
    ops = difference_operators(n)
    src, entries = _stack_plan(n, count)
    terms = beta.take(src)
    terms *= ops.coef
    band = terms[:, 0] + terms[:, 1]
    band += terms[:, 2]
    band += _continuity(n, alpha)
    band *= tau
    band += ops.eye
    lhs = np.zeros(count * n * n) if out is None else out[:count * n * n]
    lhs[entries] = band.ravel()
    return lhs.reshape(count, n, n)


@functools.lru_cache(maxsize=8)
def _continuity(n: int, alpha: float) -> np.ndarray:
    """2 alpha D1'D1 on the entries of the plan for n, read-only: it stays
    the same over a run, whose steps add it to every system they build."""
    band = (2.0 * alpha) * difference_operators(n).d1td1
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=64)
def _stack_plan(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The plan's ``src`` and ``entries`` as flat positions in a (count, n)
    stack of weights and in a (count, n, n) stack of systems, read-only;
    one flat gather and one flat scatter use them."""
    ops, stack = difference_operators(n), np.arange(count)
    src = stack[:, None, None] * n + ops.src
    entries = (stack[:, None] * (n * n) + ops.entries).ravel()
    for array in (src, entries):
        array.flags.writeable = False
    return src, entries


def _raise_singular(error: str, flag: int):
    """The error callback ``np.linalg.solve`` sets: the gufunc flags a
    singular system as an invalid operation."""
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of float64 (..., n, n) systems against (..., n, m)
    right-hand sides, without its wrapper's conversions and checks, which
    every array here passes: the same LAPACK gufunc under the same error
    state, so a singular system raises ``LinAlgError("Singular matrix")``
    and no floating-point warning escapes."""
    return _umath_linalg.solve(a, b, signature="dd->d")


@functools.cache
def _factors_alike(n: int, count: int, threads: int | None) -> bool:
    """Whether getrf's factors of an (n, n) system, back-substituted by
    getrs against the 2K columns of K contours (``blas.lu_factor`` and
    ``lu_solve``), give this process's BLAS, on a pool of ``threads``, the
    bits of K copies of the system solved apart (``_solve``) against two
    right-hand sides each. The kernel, n, the column count and the pool fix
    the order of every column's operations, whatever the data, so four
    dense systems of full-mantissa values settle it (sines of integers:
    ``np.random`` would cost a lazy import of a few MB). False unless the
    pool is one thread, which needs its size read (on more, getrf may split
    a system that ``gesv`` solves on one), and getrf and getrs resolve."""
    if threads != 1 or blas.lu_factor(np.eye(1)) is None:
        return False
    draws = np.sin(np.arange(1.0, 4 * n * (n + 2 * count) + 1.0)).reshape(4, n, -1)
    lhs = draws[..., :n] + n * np.eye(n)
    rhs = draws[..., n:].reshape(4, n, count, 2)
    apart = _solve(lhs[:, None], rhs.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    columns = np.ascontiguousarray(rhs.transpose(0, 2, 3, 1))  # one row per column
    for system, block in zip(lhs, columns):
        blas.lu_solve(blas.lu_factor(system), block)
    return columns.transpose(0, 3, 1, 2).tobytes() == apart.tobytes()


@functools.lru_cache(maxsize=4)
def _factored_system(alpha: float, tau: float, beta: float, n: int):
    """getrf's factors of the (n, n) system of the constant curvature weight
    ``beta`` (``blas.lu_factor``), built the first time these inputs are
    seen. Every step whose sampled weights all equal ``beta`` has this
    matrix to the bit: equal floats differ at most in a zero's sign, which
    no entry keeps (each adds the identity's +0.0 or 1.0 last). Four
    entries of (n, n) floats, keyed only on the matrix's inputs, so which
    are held can change no bit of any output; threads that meet one key
    at once can at worst factor it twice, to the same bits."""
    return blas.lu_factor(_system_matrix(np.full((1, n), beta), alpha, tau)[0])


class StepPlan:
    """What every step of one run of K contours of n nodes reuses, built
    by ``evolve`` once and again each time contours leave its stack: the
    corner-lookup plan of the frame or box and the frame's sides, the flat
    positions of each node's normal pairs (``DifferenceOperators``) in the
    node stack and of each contour's force u and v in the force stack
    (contour k reads slot ``running[k]``, its start's index, or slot 0 of a
    stack of one), the beta map's one value where ``evolve_step`` may take
    the factored solve (``constant``, else None), and the flat system
    buffer, zero off the difference plan's entries, which grows to the
    size of the stack a step builds the first time one builds it. A plain
    class with slots: a dataclass would cost a millisecond at import."""

    __slots__ = ("grid", "height", "width", "normals", "components", "constant", "system")

    def __init__(self, running: list[int], n: int, vectors: np.ndarray, params: ParameterSet,
                 box: Box | None):
        count = len(running)
        self.height, self.width = box[2:] if box else vectors.shape[1:3]
        self.grid = grid_plan(self.height, self.width, box)
        contours = np.arange(count).reshape(count, 1, 1, 1)
        self.normals = contours * (2 * n) + difference_operators(n).normals
        field = vectors.shape[1] * vectors.shape[2] if len(vectors) > 1 else 0
        self.components = _COMPONENTS + 2 * field * np.repeat(running, n)
        constant = (params.beta == params.beta.flat[0]).all()
        self.constant = (float(params.beta.flat[0])
                         if constant and _factors_alike(n, count, blas.pool_size()) else None)
        self.system = np.zeros(0)


def evolve_step(nodes: np.ndarray, vectors: np.ndarray, params: ParameterSet,
                config: SnakeConfig, plan: StepPlan) -> np.ndarray:
    """One semi-implicit update of a (K, n, 2) stack of contours: per
    contour, solve (I + tau A) y' = y + tau (F_ext + F_bal) for both
    coordinate axes, clamp to the frame, and where ``config`` resamples,
    resample and clamp again.

    ``vectors`` is a (S, H, W, 2) stack of force fields and ``params`` the
    weights every contour shares, over the frame or the box of it named by
    ``plan``, the ``StepPlan`` that ``evolve`` built, which also names the
    slot each contour reads. One corner lookup serves every node, and one
    channel-major gather and one blend give each node its force, kappa and
    beta; the force's two components are one ``take`` of ``vectors`` at
    flat indices 2i and 2i + 1. The nodes are ones ``evolve`` holds, so
    the indices are in range, and ``mode="clip"`` spares each ``take`` the
    buffered copy that ``out=`` costs under its default mode.

    A = 2 alpha D1'D1 + 2 D2' diag(b) D2 is the exact Hessian of the
    internal energy with the curvature weights b frozen at the current
    nodes, symmetric positive semidefinite by construction, so I + tau A
    is always solvable. F_bal = kappa * outward unit normal, the normal
    perpendicular to the central-difference tangent (zero where the two
    neighbors coincide); it and the right-hand side are built in one
    array, in place, with the floats of the one-contour loop except that
    a zero's sign can differ, which the final clamp's -0.0 -> +0.0 hides
    from every output. I + tau A is built from its five cyclic bands
    (``_system_matrix``, the same floats on any machine) in the plan's
    buffer; only the solve's floats can depend on the BLAS kernel and
    thread count.

    A step's K systems are one matrix exactly when the run's beta map is
    constant and every sampled weight equals it: a function of alpha,
    tau, that weight and n alone. Where ``_factors_alike`` finds that getrf
    and getrs give the bits of solving each system apart, for n, K and the
    BLAS pool, its factors, cached on those inputs (``_factored_system``),
    are back-substituted against every right-hand side. Every other step
    solves the (K, n, n) stack in one ``_solve``, a group under a varying
    map whose sampled rows happen to coincide included.
    The result is the C-contiguous (K, n, 2) stack of new nodes in the
    solver's order.
    """
    count, n = nodes.shape[:2]
    corners = frame_corners(nodes.reshape(-1, 2), plan.grid)  # every node, end to end
    # channel-major corner values: force u and v, kappa, beta
    gathered = np.empty((4,) + corners.index.shape)
    vectors.take(plan.components + 2 * corners.index, out=gathered[:2], mode="clip")
    params.kappa.take(corners.index, out=gathered[2], mode="clip")
    params.beta.take(corners.index, out=gathered[3], mode="clip")
    sampled = blend_corners(gathered, corners)
    beta = sampled[3].reshape(count, n)

    # for positive-signed-area node order, (t_v, -t_u) points outward; one
    # row of n per coordinate, as getrs and the blend's channels lay them
    pairs = nodes.take(plan.normals)
    normal = pairs[:, 0] - pairs[:, 1]
    norm = np.hypot(normal[:, 0], normal[:, 1])[:, None]
    rhs = np.divide(normal, norm, out=np.zeros(normal.shape), where=norm > _TINY)
    rhs *= sampled[2].reshape(count, 1, n)  # nodes + tau (kappa unit + external), in place
    rhs += sampled[:2].reshape(2, count, n).transpose(1, 0, 2)
    rhs *= config.time_step
    rhs += nodes.transpose(0, 2, 1)

    try:
        if plan.constant is not None and (beta == plan.constant).all():
            blas.lu_solve(_factored_system(params.alpha, config.time_step, plan.constant, n), rhs)
            new_nodes = np.ascontiguousarray(rhs.transpose(0, 2, 1))
        else:
            if plan.system.size < beta.size * n:
                plan.system = np.zeros(beta.size * n)
            lhs = _system_matrix(beta, params.alpha, config.time_step, plan.system)
            new_nodes = _solve(lhs, rhs.transpose(0, 2, 1))
    except np.linalg.LinAlgError as exc:  # unreachable for tau>0, alpha,beta>=0
        raise EvolveError(f"internal error: singular evolution system ({exc})") from exc
    clamp_to_frame(new_nodes, plan.height, plan.width, out=new_nodes)
    if config.resample_each_step:  # which can move a node an ulp past the frame
        new_nodes = np.stack([resample_closed(pts, n) for pts in new_nodes])
        clamp_to_frame(new_nodes, plan.height, plan.width, out=new_nodes)
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
    contour still running, with the ``StepPlan`` built once for them. A
    contour whose signed area falls below ``DEGENERATE_AREA`` (collapsed,
    reversed to a negative area, or NaN) leaves the stack at that step,
    its path ending in an ``EvolveError`` naming the 1-based iteration,
    so every node a step gets, and every node a path holds, is finite and,
    by each step's clamps, in the frame. A step that raises (unreachable
    for valid inputs) ends every contour still running. No energies are
    computed. A kept step is a ``Contour`` on a copy of its nodes, which
    passed every check ``Contour()`` makes.

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
    # the starts' -0.0 become +0.0 here, as each step's nodes do in its clamp
    nodes = clamp_to_frame(np.stack([path.contours[0].nodes for path in paths]), height, width)
    _check_box(nodes, box, 0)
    running = list(range(len(paths)))  # the contours still in the stack
    plan = StepPlan(running, nodes.shape[1], vectors, params, box)
    for i in range(config.iterations):
        try:
            nodes = evolve_step(nodes, vectors, params, config, plan)
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
            if not running:
                break
            plan = StepPlan(running, nodes.shape[1], vectors, params, box)
        _check_box(nodes, box, i + 1)
        if keep is None or i + 1 in keep:
            for k, pts in zip(running, nodes):
                paths[k].contours[i + 1] = Contour.trusted(pts.copy())
    return paths


def _check_box(nodes: np.ndarray, box: Box | None, iteration: int) -> None:
    """Raise ``LeftBox`` if a corner of a (K, n, 2) stack of nodes lies
    outside ``box``."""
    if box is not None and not all(
            inner.start <= span.start and span.stop <= inner.stop
            for span, inner in zip(corner_box(nodes, box.height, box.width), box)):
        raise LeftBox(iteration)
