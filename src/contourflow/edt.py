"""Exact Euclidean distance transform to a set of site pixels.

``edt_from_sites`` is the separable transform of Felzenszwalb &
Huttenlocher ("Distance Transforms of Sampled Functions", ToC 2012): a
column pass for per-column row distances, then the lower envelope of
parabolas over the squared distances of each row. Distances are measured
between pixel centers and every squared distance is an exact integer,
so the result equals the exhaustive scan ``edt_brute`` in
``tests/oracles.py`` to the last bit.

Both passes work only on the band of site columns ``c0..c1``, stored
column-major: band column ``p`` holds ``f + p*p`` of every row in one
contiguous run, where ``f`` is the squared row distance to the column's
nearest site. This is exact: a column with no site has no finite
parabola, so it cannot take part in any row's envelope. The column pass
is a running max and min of site rows along each column, and the
envelope build loops over the band's columns only. The read-out counts
breakpoints instead of walking them; it is the only frame-sized work,
and it returns a C-contiguous float64 frame.

A (K, H, W) stack of site masks is transformed in one call: the column
pass runs along each mask's own columns, and the envelope build runs
over all K·H rows at once and over the union of the masks' site
columns. The 2-D call is the K = 1 case.

Memory: besides the input, no more than two frame-sized arrays and two
band-sized ones are alive at once. On the seeded 256² and 512² blobs of
``tests/test_edt.py`` the peak is about 3.5 frame-sized float64 arrays,
and the tests hold it at or below 4.5.
"""

from __future__ import annotations

import numpy as np

from .fields import as_mask_stack, boundary_mask, bounding_box

_FAR = 1e20  # plays infinity inside the squared-distance passes


def edt_from_sites(sites) -> np.ndarray:
    """Exact Euclidean distance of every pixel to the nearest True pixel;
    for a (K, H, W) stack, of each mask's pixels to that mask's sites."""
    stack = as_mask_stack(sites)
    if not stack.any(axis=(1, 2)).all():
        raise ValueError("no boundary: mask is empty or full-frame degenerate")
    count, height, width = stack.shape
    cols = bounding_box(stack.any(axis=0))[1]  # the band of site columns c0..c1

    # pass 1, over the band as (column, mask, row): squared row distance to the
    # column's nearest site; the sentinels -height and 2 * height lose to any
    # site, and a mask's site-free columns stay at _FAR
    band = np.ascontiguousarray(stack[:, :, cols].transpose(2, 0, 1))
    rows = np.arange(height)
    g = rows - np.maximum.accumulate(np.where(band, rows, -height), axis=2)
    np.minimum(g, np.minimum.accumulate(np.where(band, rows, 2 * height)[..., ::-1],
                                        axis=2)[..., ::-1] - rows, out=g)
    g = np.where(band.any(axis=2, keepdims=True), g * g, _FAR)
    g += np.arange(width)[cols, None, None] ** 2  # f[p] + p*p for every vertex column p

    # pass 2: per-row lower envelope of parabolas over the band's columns
    d = _lower_envelopes(g.reshape(-1, count * height), cols.start, width).reshape(stack.shape)
    np.sqrt(d, out=d)
    return d if np.ndim(sites) == 3 else d[0]


def _lower_envelopes(g: np.ndarray, c0: int, width: int) -> np.ndarray:
    """``min over p of (q - p)**2 + f[r, p]`` for every row ``r`` and
    column ``q`` of the frame, from ``g[p - c0, r] = f[r, p] + p*p`` over
    the band's columns ``c0 <= p < c1``: a C-contiguous (rows, width)
    array.

    Each row has its own stack of vertex columns and breakpoints, both
    stored slot-major: slot ``j`` of row ``r`` sits at ``j * R + r``,
    where ``R`` is the number of rows, so slot ``j`` of every row is one
    contiguous run. A vertex ``v`` is stored pre-multiplied, as its
    offset ``(v - c0) * R`` in ``g``, so that ``offset + r`` is its value
    in the flat ``g``, and ``top`` holds each row's top slot as a flat
    index too. Every pop round is then a few flat gathers and scatters,
    with the slot computed once. The denominator ``2 * (q - v)`` comes
    out exactly as ``(q * R - offset) / (R / 2)``. At column ``q`` every
    row's top parabola is column ``q - 1``, pushed by the last step with
    breakpoint ``s``, so the first intersection needs no gather.

    A row of a stacked call can be ``_FAR`` at ``c0``, because its own
    mask's site columns start later. Its first finite column ``q`` meets
    each ``_FAR`` parabola at about ``-_FAR / (2 * (c1 - c0))``, far left
    of the frame and of every breakpoint between finite parabolas, so it
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
    when ``floor(z) + 1 <= q``, so a ``bincount`` of ``floor(z) + 1`` per
    row, summed along it, gives every ``k``. Only the slots below
    ``depth``, one more than the highest top, are binned; entries above a
    row's own top were popped or never written, and breakpoints at or
    right of the last column count for no column, so neither is binned.
    Each pixel then gathers its vertex's offset and, through it,
    ``g = f[v] + v*v``; ``q * (q - 2 * v)`` is computed in place on the
    offsets and added. Every term is an exact integer."""
    span, count = g.shape
    rows = np.arange(count)
    offset = np.zeros(span * count, dtype=np.intp)  # slot 0 of every row holds column c0
    z = np.full(span * count, -np.inf)  # where each slot's parabola takes over
    top, s = rows.copy(), z[:count]  # each row's top slot and its breakpoint
    for q in range(1, span):
        last, s = s, (g[q] - g[q - 1]) / 2.0
        pop = (s <= last).nonzero()[0]
        while pop.size:
            top[pop] = slot = top.take(pop) - count
            vr = offset.take(slot)
            s[pop] = sp = (g[q].take(pop) - g.take(vr + pop)) / ((q * count - vr) / (count / 2.0))
            pop = pop[sp <= z.take(slot)]
        top += count
        offset[top] = q * count
        z[top] = s

    z = z.reshape(span, count)[1:top.max() // count + 1]  # the slots some row still holds
    held = (np.arange(1, len(z) + 1)[:, None] <= top // count) & (z < width - 1)
    k = np.floor(np.clip(z, -1, width - 1)).astype(np.intp) + rows * width + 1
    del z  # so that at most two frames and two band-sized arrays are alive at once
    k = np.bincount(k[held], minlength=count * width).reshape(count, width)
    k *= count
    k[:, 0] += rows
    np.cumsum(k, axis=1, out=k)  # the flat slot of the parabola each pixel takes
    v = offset.take(k)
    del k, offset
    v += rows[:, None]
    d = g.take(v)
    v //= count
    v *= -2
    v += np.arange(width) - 2 * c0
    v *= np.arange(width)  # q * (q - 2 * v) for every column q and its vertex v
    return np.add(d, v, out=d)


def mask_to_dt(mask) -> np.ndarray:
    """Unsigned distance transform of a mask's inner boundary; equal inside
    and outside, zero exactly on the boundary pixels. A (K, H, W) stack
    gives each mask its own, in one ``edt_from_sites`` call."""
    stack = as_mask_stack(mask)
    fg = stack.sum(axis=(1, 2))
    if not ((fg > 0) & (fg < stack[0].size)).all():
        raise ValueError("mask needs at least one foreground and one background pixel")
    sites = boundary_mask(stack)
    return edt_from_sites(sites if np.ndim(mask) == 3 else sites[0])
