"""Discrete closed-contour energy and its semi-implicit evolution loop.

The energy of a contour y with nodes y_s is

    sum_s [ D(y_s) + alpha |y_{s+1}-y_s|^2 + beta(y_s) |y_{s+1}-2y_s+y_{s-1}|^2 ]
    + sum_{(u,v) in region(y)} kappa(u, v)

with cyclic indexing, D and beta sampled bilinearly at the nodes, and
the region term summed over the rasterized interior. Evolution treats
the internal terms implicitly and the external/balloon forces
explicitly, which keeps the stiff smoothing terms unconditionally
stable.

``evolve`` builds what depends on the node count alone once per run:
the identity, D1'D1, the cyclic second-difference matrix D2 and the
next/previous node indices. Each step then finds every node's four
corner pixels and fractions once and blends the force vectors (both
components in one gather), kappa and beta from them. The arithmetic per
element is that of separate per-field lookups and a per-step matrix
build (kept in ``tests/oracles.py``), so the contours are bit-identical
to theirs. ``contour_energies`` scores a whole trace the same way: one
corner lookup over all of its contours' nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import (DEGENERATE_AREA, Contour, as_field, bilinear_blend, bilinear_corners,
                     rasterize, resample_closed)
from .flow import ForceField

_TINY = 1e-12


class EvolveError(RuntimeError):
    """Evolution failed; the message carries the 1-based iteration index."""


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
    the run used, held by reference, not copied. Energies and mean node
    displacements are computed from the contours each time they are read,
    so a caller that never reads them never pays for them; the energies
    of all contours come from one ``contour_energies`` call.
    """

    contours: list[Contour]
    potential: np.ndarray
    params: ParameterSet

    def __len__(self) -> int:
        return len(self.contours)

    @property
    def energies(self) -> np.ndarray:
        return contour_energies(self.contours, self.potential, self.params)

    @property
    def displacements(self) -> np.ndarray:
        moved = [0.0]
        for prev, cur in zip(self.contours, self.contours[1:]):
            delta = cur.nodes - prev.nodes
            moved.append(float(np.hypot(delta[:, 0], delta[:, 1]).mean()))
        return np.array(moved)


def energy_eval(contour: Contour, external, params: ParameterSet) -> float:
    """Total energy of one contour against an external-energy map."""
    return float(contour_energies([contour], external, params)[0])


def contour_energies(contours, external, params: ParameterSet) -> np.ndarray:
    """Total energy of each of K contours of one node count against an
    external-energy map.

    The node terms of all contours come from one (K, n, 2) stack: one
    corner lookup for the potential and beta, and per-contour row sums
    over the same elements in the same order as one contour's sums, so
    each energy is bit-identical to the former per-contour loop (kept in
    ``tests/oracles.py``). The region term is summed per contour over its
    rasterized interior; degenerate contours enclose nothing and
    contribute node terms only.
    """
    ext = as_field(external)
    if ext.shape != params.beta.shape:
        raise ValueError(f"external map {ext.shape} does not match "
                         f"the parameter maps {params.beta.shape}")
    pts = np.stack([c.nodes for c in contours])
    nxt = np.roll(pts, -1, axis=1)
    d1 = nxt - pts
    d2 = nxt - 2.0 * pts + np.roll(pts, 1, axis=1)
    corners = bilinear_corners(pts, *ext.shape)
    beta_nodes = bilinear_blend(params.beta.reshape(-1), corners)
    totals = (bilinear_blend(ext.reshape(-1), corners).sum(axis=1)
              + params.alpha * (d1 * d1).reshape(len(pts), -1).sum(axis=1)
              + (beta_nodes * (d2 * d2).sum(axis=2)).sum(axis=1))
    height, width = ext.shape
    for k, contour in enumerate(contours):
        if not contour.is_degenerate:
            totals[k] += float(params.kappa[rasterize(contour, width, height)].sum())
    return totals


class DifferenceOperators(NamedTuple):
    """What the internal-energy system needs that depends on the node
    count alone: the identity, D1'D1 for the continuity term, the cyclic
    second-difference matrix D2 and each node's next and previous index."""

    eye: np.ndarray
    d1td1: np.ndarray
    d2: np.ndarray
    nxt: np.ndarray
    prv: np.ndarray


def difference_operators(n: int) -> DifferenceOperators:
    idx = np.arange(n)
    nxt = (idx + 1) % n
    prv = (idx - 1) % n
    d1 = np.zeros((n, n))
    d1[idx, idx] = -1.0
    d1[idx, nxt] += 1.0
    d2 = np.zeros((n, n))
    d2[idx, idx] = -2.0
    d2[idx, nxt] += 1.0
    d2[idx, prv] += 1.0
    return DifferenceOperators(np.eye(n), d1.T @ d1, d2, nxt, prv)


def evolve_step(contour: Contour, force: ForceField, params: ParameterSet,
                config: SnakeConfig, ops: DifferenceOperators | None = None) -> Contour:
    """One semi-implicit update: solve (I + tau A) y' = y + tau (F_ext + F_bal)
    per coordinate axis, clamp to image bounds, optionally resample.

    A = 2 alpha D1'D1 + 2 D2' diag(b) D2 is the exact Hessian of the
    internal energy with the curvature weights b frozen at the current
    nodes, symmetric positive semidefinite by construction, so I + tau A
    is always solvable. F_bal = kappa * outward unit normal, the normal
    perpendicular to the central-difference tangent (zero where the two
    neighbors coincide). ``ops`` are built for the node count when not
    given. The result keeps the solver's node order (``Contour.solved``).
    """
    pts = contour.nodes
    height, width = force.shape
    if ops is None:
        ops = difference_operators(len(pts))
    corners = bilinear_corners(pts, height, width)
    external = bilinear_blend(force.vectors.reshape(-1, 2), corners)
    kappa = bilinear_blend(params.kappa.reshape(-1), corners)
    beta = bilinear_blend(params.beta.reshape(-1), corners)

    tangent = pts[ops.nxt] - pts[ops.prv]
    # for positive-signed-area node order, (t_v, -t_u) points outward
    normal = tangent[:, ::-1] * (1.0, -1.0)
    norm = np.hypot(normal[:, 0], normal[:, 1])[:, None]
    unit = np.divide(normal, norm, out=np.zeros_like(normal), where=norm > _TINY)

    system = 2.0 * params.alpha * ops.d1td1 + 2.0 * (ops.d2.T * beta) @ ops.d2
    rhs = pts + config.time_step * (external + kappa[:, None] * unit)
    lhs = ops.eye + config.time_step * system
    try:
        new_pts = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for tau>0, alpha,beta>=0
        raise EvolveError(f"internal error: singular evolution system ({exc})") from exc
    np.clip(new_pts, 0.0, [width - 1.0, height - 1.0], out=new_pts)
    if config.resample_each_step:
        new_pts = resample_closed(new_pts, len(pts))
    return Contour.solved(new_pts)


def evolve(initial: Contour, force: ForceField, params: ParameterSet,
           config: SnakeConfig) -> tuple[Contour, EvolutionTrace]:
    """Run ``config.iterations`` evolution steps and record a trace.

    The trace holds iterations + 1 contours (the clamped initial state
    first, ``final`` last); the run is deterministic for fixed inputs. The
    difference operators are built once, and each iteration calls
    ``evolve_step`` with them. A step whose contour's signed area falls
    below ``DEGENERATE_AREA`` (collapsed, or reversed to a negative area)
    raises ``EvolveError`` naming the 1-based iteration. The loop computes
    no energies: the trace evaluates them against the force field's
    potential map when they are read.
    """
    height, width = force.shape
    if params.beta.shape != (height, width):
        raise ValueError(f"parameter maps {params.beta.shape} do not match "
                         f"the force field {(height, width)}")
    current = initial.clamped(width, height)
    ops = difference_operators(len(current))
    contours = [current]
    for i in range(config.iterations):
        try:
            current = evolve_step(current, force, params, config, ops)
        except Exception as exc:
            raise EvolveError(f"evolution failed at iteration {i + 1}: {exc}") from exc
        area = current.area
        if not area >= DEGENERATE_AREA:
            raise EvolveError(f"contour collapsed or reversed at iteration {i + 1} "
                              f"(signed area {area:.6g})")
        contours.append(current)
    return current, EvolutionTrace(contours, force.potential, params)
