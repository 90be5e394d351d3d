import numpy as np
import pytest

from contourflow import blas
from contourflow.snake import EvolutionTrace, evolve


@pytest.fixture
def one_thread():
    """Run the test on a one-thread OpenBLAS pool, as every CLI command does,
    and give the pool its former size back after it; skip where the pool
    size cannot be set."""
    setter, before = blas._function("set"), blas.pool_size()
    if setter is None:
        pytest.skip("no OpenBLAS thread-count setter resolves in this NumPy build")
    setter(1)
    yield
    setter(before)


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


def evolve_one(start, force, params, config):
    """``(final, trace)`` of one contour evolved alone: ``evolve`` on a group
    of one, reading the force field through a view; raises the
    ``EvolveError`` its path ends in."""
    [path] = evolve([start], force.vectors[None], params, config)
    if path.error:
        raise path.error
    contours = list(path.contours.values())
    return contours[-1], EvolutionTrace(contours, force.potential, params)


def site_mask(points, width: int, height: int) -> np.ndarray:
    """(height, width) boolean mask that is True at each (u, v) point."""
    sites = np.zeros((height, width), dtype=bool)
    for u, v in points:
        sites[int(v), int(u)] = True
    return sites


def edge_case_masks(height: int = 20, width: int = 24) -> dict[str, np.ndarray]:
    """Masks whose bounding box touches each frame edge, a single pixel,
    the full frame and two far-apart blobs, by name."""
    def blank():
        return np.zeros((height, width), dtype=bool)

    masks = {name: blank() for name in ("top", "bottom", "left", "right", "pixel",
                                         "corner_pixel", "two_blobs")}
    masks["top"][:5, 6:14] = True
    masks["bottom"][height - 4:, 3:9] = True
    masks["left"][7:15, :6] = True
    masks["right"][2:9, width - 7:] = True
    masks["pixel"][9, 11] = True
    masks["corner_pixel"][height - 1, width - 1] = True
    masks["two_blobs"][1:4, 1:5] = True
    masks["two_blobs"][height - 6:height - 1, width - 5:width - 2] = True
    masks["full"] = np.ones((height, width), dtype=bool)
    return masks


def random_boxes_mask(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Union of one to three random rectangles, often clipped by the frame,
    with a few pixels knocked out."""
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        r0, c0 = int(rng.integers(-3, height)), int(rng.integers(-3, width))
        r1 = r0 + int(rng.integers(1, height + 1))
        c1 = c0 + int(rng.integers(1, width + 1))
        mask[max(r0, 0):r1, max(c0, 0):c1] = True
    if rng.random() < 0.5:
        mask &= rng.random((height, width)) < 0.85
    return mask


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
