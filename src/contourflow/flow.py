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
    """Scale any vector longer than ``clip_norm`` down to that length, in
    place, and return ``vectors``. ``inf`` disables clipping."""
    if not clip_norm > 0.0:
        raise ValueError("clip_norm must be positive (use inf to disable clipping)")
    if not np.isfinite(clip_norm):
        return vectors
    mag = np.hypot(vectors[..., 0], vectors[..., 1])
    scale = np.divide(clip_norm, mag, out=np.ones_like(mag), where=mag > clip_norm)
    for channel in (0, 1):  # a broadcast over the pair axis loops over two elements per pixel
        vectors[..., channel] *= scale
    return vectors


@dataclass
class ForceField:
    """Per-pixel force vectors plus the energy map they descend.

    ``vectors`` are already clipped by the constructor that built them.
    ``potential`` is the (H, W) external-energy field consistent with the
    vectors; the evolution trace scores contour energies against it.
    """

    vectors: np.ndarray  # (H, W, 2)
    potential: np.ndarray  # (H, W)


def dvf(dt, clip_norm: float = 2.0) -> ForceField:
    """Negative gradient of the distance transform: unit-magnitude pull
    toward the nearest boundary."""
    return energy_gradient_field(dt, clip_norm)


def lcdvf(dt, clip_norm: float = 2.0) -> ForceField:
    """Distance-scaled flow: the distance value multiplies its own negative
    gradient, so the pull grows with distance and is exactly zero on the
    boundary. The matching potential is half the squared distance."""
    dt = as_field(dt)
    vectors = central_gradient(dt)
    for channel in (0, 1):
        vectors[..., channel] *= dt
    np.negative(vectors, out=vectors)  # -(g * dt) is the same float as (-dt) * g
    return ForceField(clip_vectors(vectors, clip_norm), 0.5 * dt * dt)


def energy_gradient_field(energy, clip_norm: float = 2.0) -> ForceField:
    """Steepest-descent force of an arbitrary external-energy map."""
    energy = as_field(energy)
    vectors = clip_vectors(-central_gradient(energy), clip_norm)
    return ForceField(vectors, energy.copy())
