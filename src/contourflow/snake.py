"""Discrete closed-contour energy and its semi-implicit evolution loop.

The energy of a contour y with nodes y_s is

    sum_s [ D(y_s) + alpha |y_{s+1}-y_s|^2 + beta(y_s) |y_{s+1}-2y_s+y_{s-1}|^2 ]
    + sum_{(u,v) in region(y)} kappa(u, v)

with cyclic indexing, D and beta sampled bilinearly at the nodes, and
the region term summed over the rasterized interior. Evolution treats
the internal terms implicitly and the external/balloon forces
explicitly, which keeps the stiff smoothing terms unconditionally
stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Contour, as_field, bilinear_sample_many, rasterize, resample_closed
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
    node_count: int = 60
    resample_each_step: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.time_step > 0.0:
            raise ValueError("time_step must be positive")
        if self.node_count < 3:
            raise ValueError("node_count must be >= 3")


@dataclass
class EvolutionTrace:
    """The contours of one evolution, the clamped start first.

    ``potential`` and ``params`` are the external-energy map and weights
    the run used, held by reference, not copied. Energies and mean node
    displacements are computed from the contours each time they are read,
    so a caller that never reads them never pays for them.
    """

    contours: list[Contour]
    potential: np.ndarray
    params: ParameterSet

    def __len__(self) -> int:
        return len(self.contours)

    @property
    def energies(self) -> np.ndarray:
        return np.array([energy_eval(c, self.potential, self.params) for c in self.contours])

    @property
    def displacements(self) -> np.ndarray:
        moved = [0.0]
        for prev, cur in zip(self.contours, self.contours[1:]):
            delta = cur.nodes - prev.nodes
            moved.append(float(np.hypot(delta[:, 0], delta[:, 1]).mean()))
        return np.array(moved)


def energy_eval(contour: Contour, external, params: ParameterSet) -> float:
    """Total energy of the contour against an external-energy map.

    Degenerate contours contribute internal and external node terms only
    (their enclosed region is empty).
    """
    ext = as_field(external)
    pts = contour.nodes
    d1 = np.roll(pts, -1, axis=0) - pts
    d2 = np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)
    beta_nodes = bilinear_sample_many(params.beta, pts)
    total = float(
        bilinear_sample_many(ext, pts).sum()
        + params.alpha * (d1 * d1).sum()
        + (beta_nodes * (d2 * d2).sum(axis=1)).sum()
    )
    if not contour.is_degenerate:
        height, width = ext.shape
        inside = rasterize(contour, width, height)
        total += float(params.kappa[inside].sum())
    return total


def assemble_internal_system(contour: Contour, params: ParameterSet) -> np.ndarray:
    """Stiffness matrix of the internal energy at the current nodes.

    Returns the exact Hessian of
    alpha * sum |y_{s+1}-y_s|^2 + sum b_s |y_{s+1}-2y_s+y_{s-1}|^2 with the
    curvature weights b_s frozen at the current node samples; assembling it
    as D1'D1 / D2' diag(b) D2 products makes it symmetric positive
    semidefinite by construction, so I + tau*A is always solvable.
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
    b = bilinear_sample_many(params.beta, pts)
    return 2.0 * params.alpha * (d1.T @ d1) + 2.0 * (d2.T * b) @ d2


def balloon_force(contour: Contour, kappa) -> np.ndarray:
    """Per-node force kappa(y_s) * outward unit normal.

    The normal is perpendicular to the central-difference tangent; nodes
    with coincident neighbors (zero tangent) get zero force.
    """
    kappa = as_field(kappa)
    pts = contour.nodes
    tangent = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    # for positive-signed-area node order, (t_v, -t_u) points outward
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    norm = np.hypot(normal[:, 0], normal[:, 1])
    unit = np.zeros_like(normal)
    ok = norm > _TINY
    unit[ok] = normal[ok] / norm[ok, None]
    k = bilinear_sample_many(kappa, pts)
    return k[:, None] * unit


def evolve_step(contour: Contour, force: ForceField, params: ParameterSet,
                config: SnakeConfig) -> Contour:
    """One semi-implicit update: solve (I + tau A) y' = y + tau (F_ext + F_bal)
    per coordinate axis, clamp to image bounds, optionally resample."""
    pts = contour.nodes
    height, width = force.shape
    system = assemble_internal_system(contour, params)
    rhs = pts + config.time_step * (force.at(pts) + balloon_force(contour, params.kappa))
    lhs = np.eye(len(pts)) + config.time_step * system
    try:
        new_pts = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for tau>0, alpha,beta>=0
        raise EvolveError(f"internal error: singular evolution system ({exc})") from exc
    new_pts[:, 0] = np.clip(new_pts[:, 0], 0.0, width - 1.0)
    new_pts[:, 1] = np.clip(new_pts[:, 1], 0.0, height - 1.0)
    if config.resample_each_step:
        new_pts = resample_closed(new_pts, len(pts))
    return Contour(new_pts)


def evolve(initial: Contour, force: ForceField, params: ParameterSet,
           config: SnakeConfig) -> tuple[Contour, EvolutionTrace]:
    """Run ``config.iterations`` evolution steps and record a trace.

    The trace holds iterations + 1 contours (the clamped initial state
    first, ``final`` last); the run is deterministic for fixed inputs. The
    loop computes no energies: the trace evaluates them against the force
    field's potential map when they are read.
    """
    height, width = force.shape
    if params.beta.shape != (height, width):
        raise ValueError(f"parameter maps {params.beta.shape} do not match "
                         f"the force field {(height, width)}")
    current = initial.clamped(width, height)
    contours = [current]
    for i in range(config.iterations):
        try:
            current = evolve_step(current, force, params, config)
        except EvolveError:
            raise
        except Exception as exc:
            raise EvolveError(f"evolution failed at iteration {i + 1}: {exc}") from exc
        contours.append(current)
    return current, EvolutionTrace(contours, force.potential, params)
