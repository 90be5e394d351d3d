"""External force fields that drive the contour.

Three constructions share one container: the unit-magnitude distance
vector flow (``dvf``), the distance-scaled variant (``lcdvf``) whose
magnitude grows with the local distance value and vanishes exactly on
the boundary, and the plain steepest-descent field of an arbitrary
external-energy map (``energy_gradient_field``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import as_field, central_gradient


def clip_vectors(vectors: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale any vector longer than ``clip_norm`` down to that length.
    ``inf`` disables clipping."""
    if not clip_norm > 0.0:
        raise ValueError("clip_norm must be positive (use inf to disable clipping)")
    if not np.isfinite(clip_norm):
        return vectors
    mag = np.hypot(vectors[..., 0], vectors[..., 1])
    over = mag > clip_norm
    scale = np.ones_like(mag)
    scale[over] = clip_norm / mag[over]
    return vectors * scale[..., None]


@dataclass
class ForceField:
    """Per-pixel force vectors plus the energy map they descend.

    ``vectors`` are already clipped by the constructor that built them.
    ``potential`` is the (H, W) external-energy field consistent with the
    vectors; the evolution trace scores contour energies against it.
    """

    vectors: np.ndarray  # (H, W, 2)
    potential: np.ndarray  # (H, W)

    @property
    def shape(self) -> tuple[int, int]:
        return self.vectors.shape[0], self.vectors.shape[1]


def dvf(dt, clip_norm: float = 2.0) -> ForceField:
    """Negative gradient of the distance transform: unit-magnitude pull
    toward the nearest boundary."""
    dt = as_field(dt)
    vectors = clip_vectors(-central_gradient(dt), clip_norm)
    return ForceField(vectors, dt.copy())


def lcdvf(dt, clip_norm: float = 2.0) -> ForceField:
    """Distance-scaled flow: the distance value multiplies its own negative
    gradient, so the pull grows with distance and is exactly zero on the
    boundary. The matching potential is half the squared distance."""
    dt = as_field(dt)
    vectors = clip_vectors(-dt[..., None] * central_gradient(dt), clip_norm)
    return ForceField(vectors, 0.5 * dt * dt)


def energy_gradient_field(energy, clip_norm: float = 2.0) -> ForceField:
    """Steepest-descent force of an arbitrary external-energy map."""
    energy = as_field(energy)
    vectors = clip_vectors(-central_gradient(energy), clip_norm)
    return ForceField(vectors, energy.copy())
