import numpy as np
import pytest


def random_star_polygon(rng: np.random.Generator, center=(16.0, 16.0),
                        r_lo=3.0, r_hi=11.0, n_lo=5, n_hi=14) -> np.ndarray:
    """Random star-shaped (hence simple) polygon around a center."""
    n = int(rng.integers(n_lo, n_hi + 1))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    # keep consecutive angles distinct so edges are non-degenerate
    angles += np.linspace(0.0, 1e-3, n)
    radii = rng.uniform(r_lo, r_hi, size=n)
    return np.stack([center[0] + radii * np.cos(angles),
                     center[1] + radii * np.sin(angles)], axis=1)


def site_mask(points, width: int, height: int) -> np.ndarray:
    """(height, width) boolean mask that is True at each (u, v) point."""
    sites = np.zeros((height, width), dtype=bool)
    for u, v in points:
        sites[int(v), int(u)] = True
    return sites


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
