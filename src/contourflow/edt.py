"""Exact Euclidean distance transform to a set of site pixels.

``edt_from_sites`` is the separable transform of Felzenszwalb &
Huttenlocher ("Distance Transforms of Sampled Functions", ToC 2012): a
two-sweep column pass for per-column row distances, then the lower
envelope of parabolas over the squared distances of each row. The
envelope runs in lockstep over all rows: each row keeps its own parabola
stack, the Python loops run over columns only, and the rows that still
have to pop a parabola (or, in the read-out, move to the next one) are
handled together until none is left. Distances are measured between
pixel centers and every squared distance is an exact integer, so the
result equals the exhaustive scan ``edt_brute`` in ``tests/oracles.py``
to the last bit.

The column pass and the envelope build cover only the span of columns
that hold a site; the read-out still covers every column. This is
exact: the column pass gives every row a finite value in each site
column, a site-free column keeps the value ``_FAR``, whose parabola
never beats a finite one inside the frame, and each output is the same
exact-integer minimum over the same finite parabolas.
"""

from __future__ import annotations

import numpy as np

from .fields import as_mask, boundary_mask

_FAR = 1e20  # plays infinity inside the squared-distance passes


def edt_from_sites(sites) -> np.ndarray:
    """Exact Euclidean distance of every pixel to the nearest True pixel."""
    sites = as_mask(sites)
    if not sites.any():
        raise ValueError("no boundary: mask is empty or full-frame degenerate")
    height = sites.shape[0]
    cols = np.flatnonzero(sites.any(axis=0))
    c0, c1 = cols[0], cols[-1] + 1

    # pass 1: per-column distance (in rows) to the nearest site of that
    # column, squared in place; columns without a site stay at _FAR.
    # Only the site columns' span c0..c1 can hold anything else.
    f = np.where(sites, 0.0, _FAR)
    band = f[:, c0:c1]
    for r in range(1, height):
        np.minimum(band[r], band[r - 1] + 1.0, out=band[r])
    for r in range(height - 2, -1, -1):
        np.minimum(band[r], band[r + 1] + 1.0, out=band[r])
    far = band >= 1e19
    band *= band
    band[far] = _FAR

    # pass 2: per-row lower envelope of parabolas over columns
    d = _lower_envelopes(f, c0, c1)
    return np.sqrt(d, out=d)


def _lower_envelopes(f: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """``min over p of (q - p)**2 + f[r, p]`` for every row ``r`` and
    column ``q``, where columns outside ``c0..c1`` hold only ``_FAR``.

    Each row has its own stack: vertex columns ``v``, breakpoints ``z``
    and top index ``k``. Only the columns ``c0..c1`` are pushed, starting
    from ``c0``, where every row is finite. The work arrays stay
    (height, width): band-shaped ones measured a higher peak RSS."""
    height, width = f.shape
    rows = np.arange(height)
    g = f + np.arange(width) ** 2  # f[p] + p*p for every vertex column p
    v = np.zeros((height, width), dtype=np.intp)
    v[:, 0] = c0
    z = np.empty((height, width + 1))  # z[k] is where parabola k takes over
    z[:, 0] = -np.inf
    z[:, 1] = np.inf
    k = np.zeros(height, dtype=np.intp)
    s = np.full(height, -np.inf)
    for q in range(c0 + 1, c1):
        # every row's top parabola is column q - 1, pushed by the last step
        # with breakpoint s, so the first intersection needs no gather
        top = s
        s = (g[:, q] - g[:, q - 1]) / 2.0
        pop = (s <= top).nonzero()[0]
        while pop.size:
            k[pop] -= 1
            vk = v[pop, k[pop]]
            s[pop] = (g[pop, q] - g[pop, vk]) / (2.0 * (q - vk))
            pop = pop[s[pop] <= z[pop, k[pop]]]
        k += 1
        v[rows, k] = q
        z[rows, k] = s
        z[rows, k + 1] = np.inf
    del g  # so that no more than four (height, width) arrays are alive at once

    d = np.empty_like(f)
    k[:] = 0
    for q in range(width):
        step = (z[rows, k + 1] < q).nonzero()[0]
        while step.size:
            k[step] += 1
            step = step[z[step, k[step] + 1] < q]
        vk = v[rows, k]
        d[:, q] = (q - vk) ** 2 + f[rows, vk]
    return d


def mask_to_dt(mask) -> np.ndarray:
    """Unsigned distance transform of a mask's inner boundary; equal inside
    and outside, zero exactly on the boundary pixels."""
    mask = as_mask(mask)
    fg = int(mask.sum())
    if fg == 0 or fg == mask.size:
        raise ValueError("mask needs at least one foreground and one background pixel")
    return edt_from_sites(boundary_mask(mask))
