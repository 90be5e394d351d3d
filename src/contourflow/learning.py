"""Structured hinge subgradients of the energy weights, and a desk-scale
loop that fits per-pixel parameter maps directly on one image.

Each subgradient is the difference between a feature of the ground-truth
contour and the same feature of the predicted contour, so all of them
vanish identically when the two coincide node for node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Contour, as_mask, rasterize, resample_closed
from .flow import ForceField
from .metrics import iou
from .snake import ParameterSet, SnakeConfig, evolve

# 8-neighborhood scan order for boundary tracing (clockwise, from west)
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))
_MOORE_INDEX = {d: i for i, d in enumerate(_MOORE)}


@dataclass
class FitResult:
    params: ParameterSet
    best_iou: float
    baseline_iou: float
    iou_history: list[float]


def _first_diff_sq(pts: np.ndarray) -> np.ndarray:
    d = np.roll(pts, -1, axis=0) - pts
    return (d * d).sum(axis=1)


def _second_diff_sq(pts: np.ndarray) -> np.ndarray:
    d = np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)
    return (d * d).sum(axis=1)


def subgrad_alpha(gt_contour: Contour, pred_contour: Contour) -> float:
    """Ground-truth minus predicted sum of squared first differences."""
    return float(_first_diff_sq(gt_contour.nodes).sum()
                 - _first_diff_sq(pred_contour.nodes).sum())


def subgrad_beta(gt_contour: Contour, pred_contour: Contour,
                 width: int, height: int) -> np.ndarray:
    """Squared second differences accumulated at the pixels the nodes round
    to: ground-truth contribution positive, predicted negative."""
    out = np.zeros((height, width))
    for contour, sign in ((gt_contour, 1.0), (pred_contour, -1.0)):
        pts = contour.nodes
        vals = sign * _second_diff_sq(pts)
        u = np.clip(np.floor(pts[:, 0] + 0.5).astype(np.intp), 0, width - 1)
        v = np.clip(np.floor(pts[:, 1] + 0.5).astype(np.intp), 0, height - 1)
        np.add.at(out, (v, u), vals)
    return out


def trace_boundary(mask) -> list[tuple[int, int]]:
    """Ordered (u, v) loop of the outer boundary of the foreground
    component containing the first foreground pixel (Moore tracing,
    stopped by Jacob's criterion: when the first move repeats, so a start
    pixel that the boundary passes twice does not cut the loop short); the
    lone start pixel when it has no foreground neighbor.

    The walk leaves a pixel once per run of background cells in its ring
    of eight neighbors, of which there are at most four, before its first
    move repeats; so the loop holds at most four entries per foreground
    pixel, and the walk's bound of four moves per pixel plus eight, which
    only guards against a walk that never closes, is never what ends it.
    The one exit after the loop serves both."""
    mask = as_mask(mask)
    height, width = mask.shape
    seeds = np.argwhere(mask)
    if seeds.size == 0:
        raise ValueError("mask has no foreground")
    start = (int(seeds[0][1]), int(seeds[0][0]))

    loop: list[tuple[int, int]] = []
    current, first = start, None
    back = 0  # backtrack direction index; west of the start pixel is background
    for _ in range(4 * int(mask.sum()) + 8):
        for step in range(1, 9):
            d = (back + step) % 8
            nu, nv = current[0] + _MOORE[d][0], current[1] + _MOORE[d][1]
            if 0 <= nu < width and 0 <= nv < height and mask[nv, nu]:
                prev = (back + step - 1) % 8
                pu, pv = current[0] + _MOORE[prev][0], current[1] + _MOORE[prev][1]
                back = _MOORE_INDEX[(pu - nu, pv - nv)]
                break
        else:
            return [start]  # isolated pixel
        move = (current, (nu, nv))
        if move == first:
            break
        first = first or move
        loop.append(current)
        current = (nu, nv)
    return loop


def contour_from_mask(mask, node_count: int) -> Contour:
    """Ground-truth contour: trace the mask boundary and resample it to
    ``node_count`` nodes at uniform arc length."""
    loop = trace_boundary(mask)
    if len(loop) < 3:
        raise ValueError("mask boundary is too small to form a contour")
    return Contour(resample_closed(np.asarray(loop, dtype=np.float64), node_count))


def align_cyclic(reference: Contour, target: Contour) -> Contour:
    """Cyclic shift of ``target``'s nodes minimizing the mean node distance
    to ``reference``; both contours must have the same node count."""
    a = reference.nodes
    b = target.nodes
    if len(a) != len(b):
        raise ValueError("contours must have equal node counts to align")
    n = len(b)
    shifts = (np.arange(n)[:, None] + np.arange(n)) % n  # row k: b rolled by -k
    d = b[shifts] - a
    cost = np.hypot(d[..., 0], d[..., 1]).mean(axis=1)
    return Contour(b[shifts[np.argmin(cost)]])  # argmin keeps the first tie


def fit_parameters(gt_mask, force: ForceField, start: Contour, config: SnakeConfig,
                   learn_rate: float = 1e-3, epochs: int = 100,
                   initial_params: ParameterSet | None = None) -> FitResult:
    """Fit (alpha, beta, kappa) on one image by repeated inference from
    ``start`` and subgradient steps; returns the parameters with the best
    IoU seen.

    alpha and beta descend their subgradients (projected to stay >= 0).
    The balloon force acts along +kappa times the outward normal, so for
    kappa the descent direction is applied with the opposite sign:
    lowering kappa where ground truth is uncovered would push the contour
    further away from it. A ``learn_rate`` of 0 only scores the starting
    parameters.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not (np.isfinite(learn_rate) and learn_rate >= 0.0):
        raise ValueError(f"learn_rate must be finite and >= 0, got {learn_rate}")
    gt_mask = as_mask(gt_mask)
    height, width = gt_mask.shape
    if initial_params is None:
        params = ParameterSet.uniform(width, height, kappa=0.0)  # no balloon prior
    else:
        params = initial_params.copy()
    gt_base = contour_from_mask(gt_mask, len(start))
    # a cyclic shift keeps a contour's edges, so every aligned copy of
    # gt_base rasterizes to this region
    gt_region = rasterize(gt_base, width, height).astype(np.float64)

    history: list[float] = []
    best_score, best_params = -1.0, params.copy()
    for epoch in range(epochs):
        path = evolve([start], force.vectors[None], params, config, {config.iterations})[0]
        if path.error:
            raise RuntimeError(f"fit aborted at epoch {epoch + 1}: {path.error}") from path.error
        predicted = path.contours[config.iterations]
        pred_region = rasterize(predicted, width, height)
        score = iou(pred_region, gt_mask)
        history.append(score)
        if score > best_score:
            best_score, best_params = score, params.copy()
        gt_aligned = align_cyclic(predicted, gt_base)
        d_alpha = subgrad_alpha(gt_aligned, predicted)
        d_beta = subgrad_beta(gt_aligned, predicted, width, height)
        # oracles.subgrad_kappa(gt_aligned, predicted, width, height), from the rasters
        d_kappa = gt_region - pred_region
        params = ParameterSet(
            alpha=max(0.0, params.alpha - learn_rate * d_alpha),
            beta=np.maximum(0.0, params.beta - learn_rate * d_beta),
            kappa=params.kappa + learn_rate * d_kappa,
        )
    return FitResult(params=best_params, best_iou=best_score,
                     baseline_iou=history[0], iou_history=history)
