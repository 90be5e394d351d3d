"""Exact Euclidean distance transform to a set of site pixels.

``edt_from_sites`` is the separable transform of Felzenszwalb &
Huttenlocher ("Distance Transforms of Sampled Functions", ToC 2012): a
column pass for per-column row distances, then the lower envelope of
parabolas over the squared distances of each row. The column pass is a
running max and min of site rows along each column, the envelope build
loops over columns only, and the read-out counts breakpoints instead of
walking them. Distances are measured between pixel centers and every
squared distance is an exact integer, so the result equals the
exhaustive scan ``edt_brute`` in ``tests/oracles.py`` to the last bit.

The column pass and the envelope build cover only the span of columns
that hold a site; the read-out still covers every column. This is
exact: the column pass gives every row a finite value in each site
column, a site-free column keeps the value ``_FAR``, whose parabola
never beats a finite one inside the frame, and each output is the same
exact-integer minimum over the same finite parabolas.

A (K, H, W) stack of site masks is transformed in one call: the column
pass runs along each mask's own columns, and the envelope build runs
over all K·H rows at once and over the union of the masks' site
columns. The 2-D call is the K = 1 case.
"""

from __future__ import annotations

import numpy as np

from .fields import as_mask, boundary_mask

_FAR = 1e20  # plays infinity inside the squared-distance passes


def edt_from_sites(sites) -> np.ndarray:
    """Exact Euclidean distance of every pixel to the nearest True pixel;
    for a (K, H, W) stack, of each mask's pixels to that mask's sites."""
    stack = _stack(sites)
    if not stack.any(axis=(1, 2)).all():
        raise ValueError("no boundary: mask is empty or full-frame degenerate")
    count, height, width = stack.shape
    cols = np.flatnonzero(stack.any(axis=(0, 1)))
    c0, c1 = cols[0], cols[-1] + 1

    # pass 1: squared row distance to the column's nearest site; the sentinels
    # -height and 2 * height lose to any site, site-free columns stay at _FAR
    band = stack[:, :, c0:c1]
    rows = np.arange(height)[:, None]
    above = rows - np.maximum.accumulate(np.where(band, rows, -height), axis=1)
    below = (np.minimum.accumulate(np.where(band, rows, 2 * height)[:, ::-1], axis=1)[:, ::-1]
             - rows)
    f = np.full(stack.shape, _FAR)
    f[:, :, c0:c1] = np.where(band.any(axis=1, keepdims=True),
                              np.minimum(above, below) ** 2, _FAR)
    del above, below

    # pass 2: per-row lower envelope of parabolas over columns
    d = _lower_envelopes(f.reshape(count * height, width), c0, c1).reshape(stack.shape)
    np.sqrt(d, out=d)
    return d if np.ndim(sites) == 3 else d[0]


def _lower_envelopes(f: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """``min over p of (q - p)**2 + f[r, p]`` for every row ``r`` and
    column ``q``, where columns outside ``c0..c1`` hold only ``_FAR``.

    Each row has its own stack: vertex columns ``v``, breakpoints ``z``
    and top index ``k``. Only the columns ``c0..c1`` are pushed, starting
    from ``c0``. The work arrays stay (height, width): band-shaped ones
    measured a higher peak RSS.

    A row of a stacked call can be ``_FAR`` at ``c0``, because its own
    mask's site columns start later. Its first finite column ``q`` meets
    each ``_FAR`` parabola at about ``-_FAR / (2 * width)``, far left of
    the frame and of every breakpoint between finite parabolas, so it
    pops them all down to the bottom vertex ``c0``. That vertex cannot be
    popped (its breakpoint is ``-inf``), and ``q`` takes over from it
    left of column 0, so no column reads it. From ``q`` on, the row
    pushes and pops the same vertices as a call on its own mask, one slot
    higher, with the same breakpoints but the first (far left of the
    frame, where that call has ``-inf``), so every pixel gets the same
    exact-integer minimum.

    The read-out counts: column ``q`` takes its row's parabola ``k`` with
    ``z[k] < q <= z[k + 1]``, so ``k`` is the number of breakpoints
    ``z[1..top]`` left of ``q``. For an integer ``q``, ``z < q`` exactly
    when ``floor(z) + 1 <= q``, so a ``bincount`` of ``floor(z[j]) + 1``
    per row, summed along it, gives every ``k``. Entries above a row's
    final top were popped or never written and are masked to ``inf``."""
    height, width = f.shape
    rows = np.arange(height)
    g = f + np.arange(width) ** 2  # f[p] + p*p for every vertex column p
    v = np.full((height, width), c0, dtype=np.intp)  # column c0 is every row's first vertex
    z = np.empty((height, width + 1))  # z[k] is where parabola k takes over
    z[:, 0] = -np.inf
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
    del g  # so that no more than four (height, width) arrays are alive at once

    first = np.where(np.arange(1, width + 1) <= k[:, None], z[:, 1:], np.inf)
    del z
    first = np.clip(np.floor(first, out=first), -1, width - 1, out=first).astype(np.intp)
    first += rows[:, None] * (width + 1) + 1  # slot (row, floor(z) + 1) of a bincount
    k = np.bincount(first.ravel(), minlength=height * (width + 1))
    del first
    k = k.reshape(height, width + 1)[:, :width].cumsum(axis=1)
    v = np.take_along_axis(v, k, axis=1)
    del k
    return (np.arange(width) - v) ** 2 + np.take_along_axis(f, v, axis=1)


def mask_to_dt(mask) -> np.ndarray:
    """Unsigned distance transform of a mask's inner boundary; equal inside
    and outside, zero exactly on the boundary pixels. A (K, H, W) stack
    gives each mask its own, in one ``edt_from_sites`` call."""
    stack = _stack(mask)
    fg = stack.sum(axis=(1, 2))
    if not ((fg > 0) & (fg < stack[0].size)).all():
        raise ValueError("mask needs at least one foreground and one background pixel")
    sites = np.stack([boundary_mask(m) for m in stack])
    return edt_from_sites(sites if np.ndim(mask) == 3 else sites[0])


def _stack(masks) -> np.ndarray:
    """A non-empty (K, H, W) boolean stack; a 2-D mask is the K = 1 stack."""
    masks = np.asarray(masks)
    if masks.ndim == 3 and masks.size:
        return masks.astype(bool)
    return as_mask(masks)[None]
