"""Segmentation quality metrics: overlap ratios and a boundary F-score
averaged over 1..5 pixel matching thresholds.

The boundary F-score matches boundary pixels within a tolerance disk
(Martin, Fowlkes & Malik, PAMI 2004), so it needs no distance transform.
Pixel centers sit on the integer grid, so every squared distance between
two of them is an integer, and for an integer threshold t a distance d
satisfies d <= t exactly when d**2 <= t**2. Each offset of the disk of
radius max(BOUNDF_THRESHOLDS) therefore carries the index of the first
threshold it passes, and a boundary pixel's smallest index over the
offsets where the other set has a pixel is the first threshold it
passes; anything farther fails every threshold.

``evaluate`` and ``boundf`` take a pair of (H, W) masks or a pair of
(K, H, W) stacks, and score a stack in one pass: the K items' boundary
pixels are found with one ``nonzero`` over the box of every boundary,
their disks are gathered in chunks of points, and each item's counts
come from one ``bincount``. A pair of masks is the K = 1 stack, and each
item's scores are the ones it gets alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fields import as_mask, as_mask_stack, boundary_mask, bounding_box

BOUNDF_THRESHOLDS = (1, 2, 3, 4, 5)

_REACH = max(BOUNDF_THRESHOLDS)
# every (dy, dx) with dy**2 + dx**2 <= _REACH**2 (81 offsets for a reach of 5)
_DISK = np.array([(dy, dx) for dy in range(-_REACH, _REACH + 1)
                  for dx in range(-_REACH, _REACH + 1) if dy * dy + dx * dx <= _REACH ** 2])
# the index of the first threshold each offset passes; len(BOUNDF_THRESHOLDS) passes none
_DISK_LEVEL = np.searchsorted(np.square(BOUNDF_THRESHOLDS),
                              (_DISK ** 2).sum(axis=1)).astype(np.uint8)[:, None]
_NONE = np.uint8(len(BOUNDF_THRESHOLDS))
_CHUNK = 1 << 6  # boundary pixels whose disks are gathered at once


def _stacks(pred, gt):
    """Both inputs as (K, H, W) stacks of one shape; a pair of masks is K = 1."""
    pred, gt = as_mask_stack(pred), as_mask_stack(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask dimensions differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def _ratios(pred, gt) -> list[tuple[float, float]]:
    """(IoU, Dice) of each item of two stacks, from exact integer counts (the
    union is both areas less the overlap); both are 1 when both masks are empty."""
    pred, gt = _stacks(pred, gt)
    overlap = np.count_nonzero(pred & gt, axis=(1, 2)).tolist()
    areas = (np.count_nonzero(pred, axis=(1, 2)) + np.count_nonzero(gt, axis=(1, 2))).tolist()
    return [(float(i) / (total - i), 2.0 * float(i) / total) if total else (1.0, 1.0)
            for i, total in zip(overlap, areas)]


def iou(pred, gt) -> float:
    """Intersection over union; 1 when both masks are empty."""
    return _ratios(as_mask(pred), as_mask(gt))[0][0]


def dice(pred, gt) -> float:
    """Twice the overlap over the summed areas; 1 when both masks are empty."""
    return _ratios(as_mask(pred), as_mask(gt))[0][1]


def boundf(pred, gt):
    """Boundary F1 averaged over 1..5 px thresholds.

    Precision at threshold t is the fraction of predicted boundary pixels
    within Euclidean distance t of some ground-truth boundary pixel;
    recall is symmetric. Returns (mean, per-threshold scores) for a pair
    of masks, and a list of them for a pair of (K, H, W) stacks.

    A boundary pixel passes threshold t when its squared distance to the
    other set is <= t**2 (see the module docstring), and each precision
    is an exact count over an exact count, so the scores equal
    ``boundf_reference`` in ``tests/oracles.py`` to the last bit.
    """
    single = np.ndim(pred) == 2
    pred_b, gt_b = (boundary_mask(stack) for stack in _stacks(pred, gt))
    n_pred, n_gt = (np.count_nonzero(b, axis=(1, 2)) for b in (pred_b, gt_b))
    per = np.zeros((len(n_pred), len(BOUNDF_THRESHOLDS)))
    per[n_pred + n_gt == 0] = 1.0  # an empty mask has no boundary: two score 1, one 0
    live = (n_pred > 0) & (n_gt > 0)
    if live.any():
        box = (live,) + bounding_box((pred_b | gt_b).any(axis=0))
        pred_b, gt_b = pred_b[box], gt_b[box]
        precision = _passes(pred_b, gt_b) / n_pred[live, None]
        recall = _passes(gt_b, pred_b) / n_gt[live, None]
        total = precision + recall
        per[live] = np.divide(2.0 * precision * recall, total, out=np.zeros_like(total),
                              where=total != 0.0)
    scores = [(mean, tuple(row)) for mean, row in zip(per.mean(axis=1).tolist(), per.tolist())]
    return scores[0] if single else scores


def _passes(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(K, thresholds) counts: for each item of the (K, h, w) stack
    ``points``, its True pixels within each threshold of a True pixel of
    the same item of ``targets``.

    The targets are zero-padded by the disk's reach into one flat stack,
    so that every point's disk offsets are flat offsets from its center;
    the points' (81, chunk) index of disk pixels is gathered ``_CHUNK``
    points at a time, which bounds its memory whatever K is."""
    count, height, width = targets.shape
    padded = np.zeros((count, height + 2 * _REACH, width + 2 * _REACH), dtype=bool)
    padded[:, _REACH:-_REACH, _REACH:-_REACH] = targets
    flat = padded.ravel()
    stride = width + 2 * _REACH
    item, rows, cols = np.nonzero(points)
    centers = (item * (height + 2 * _REACH) + rows + _REACH) * stride + cols + _REACH
    offsets = (_DISK[:, 0] * stride + _DISK[:, 1])[:, None]
    level = np.empty(len(centers), dtype=np.uint8)
    for start in range(0, len(centers), _CHUNK):
        hits = flat[offsets + centers[start:start + _CHUNK]]
        level[start:start + _CHUNK] = np.where(hits, _DISK_LEVEL, _NONE).min(axis=0)
    levels = len(BOUNDF_THRESHOLDS) + 1
    counts = np.bincount(item * levels + level, minlength=count * levels)
    return counts.reshape(count, levels).cumsum(axis=1)[:, :-1]


@dataclass
class MetricsReport:
    iou: float
    dice: float
    boundf: float
    boundf_per_threshold: tuple[float, ...]

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(pred, gt):
    """The report of a pair of masks, or the list of reports of a pair of
    (K, H, W) stacks, item by item; every value is the one ``iou``, ``dice``
    and ``boundf`` give each pair alone."""
    pred_s, gt_s = _stacks(pred, gt)
    reports = [MetricsReport(i, d, mean, per) for (i, d), (mean, per)
               in zip(_ratios(pred_s, gt_s), boundf(pred_s, gt_s))]
    return reports[0] if np.ndim(pred) == 2 else reports
