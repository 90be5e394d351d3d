"""Segmentation quality metrics: overlap ratios and a boundary F-score
averaged over 1..5 pixel matching thresholds.

The boundary F-score matches boundary pixels within a tolerance disk
(Martin, Fowlkes & Malik, PAMI 2004), so it needs no distance transform.
Pixel centers sit on the integer grid, so every squared distance between
two of them is an integer, and for an integer threshold t a distance d
satisfies d <= t exactly when d**2 <= t**2. Each boundary pixel therefore
only needs its smallest squared distance to the other set among the
offsets of the disk of radius max(BOUNDF_THRESHOLDS); anything farther
fails every threshold and is recorded as one more than the disk's limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import as_mask, boundary_mask, bounding_box

BOUNDF_THRESHOLDS = (1, 2, 3, 4, 5)

_REACH = max(BOUNDF_THRESHOLDS)
# every (dy, dx) with dy**2 + dx**2 <= _REACH**2 (81 offsets for a reach of 5)
_DISK = np.array([(dy, dx) for dy in range(-_REACH, _REACH + 1)
                  for dx in range(-_REACH, _REACH + 1) if dy * dy + dx * dx <= _REACH ** 2])
_DISK_D2 = (_DISK ** 2).sum(axis=1)
_BEYOND = _REACH ** 2 + 1  # squared distance recorded for "not within the disk"


def _pair(pred, gt):
    pred = as_mask(pred)
    gt = as_mask(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask dimensions differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def iou(pred, gt) -> float:
    """Intersection over union; 1 when both masks are empty."""
    pred, gt = _pair(pred, gt)
    union = int((pred | gt).sum())
    if union == 0:
        return 1.0
    return float((pred & gt).sum()) / union


def dice(pred, gt) -> float:
    """Twice the overlap over the summed areas; 1 when both masks are empty."""
    pred, gt = _pair(pred, gt)
    total = int(pred.sum()) + int(gt.sum())
    if total == 0:
        return 1.0
    return 2.0 * float((pred & gt).sum()) / total


def boundf(pred, gt) -> tuple[float, tuple[float, ...]]:
    """Boundary F1 averaged over 1..5 px thresholds.

    Precision at threshold t is the fraction of predicted boundary pixels
    within Euclidean distance t of some ground-truth boundary pixel;
    recall is symmetric. Returns (mean, per-threshold scores).

    A boundary pixel passes threshold t when its capped squared distance
    to the other set is <= t**2 (see the module docstring); the pass/fail
    flags are those of exact distances, so the scores equal
    ``boundf_reference`` in ``tests/oracles.py`` to the last bit.
    """
    pred, gt = _pair(pred, gt)
    pred_b = boundary_mask(pred)
    gt_b = boundary_mask(gt)
    if not pred_b.any() or not gt_b.any():
        score = 1.0 if (not pred.any() and not gt.any()) else 0.0
        return score, (score,) * len(BOUNDF_THRESHOLDS)
    box = bounding_box(pred_b | gt_b)
    pred_b, gt_b = pred_b[box], gt_b[box]
    d2_pred_to_gt = _disk_min_d2(pred_b, gt_b)
    d2_gt_to_pred = _disk_min_d2(gt_b, pred_b)
    per = []
    for theta in BOUNDF_THRESHOLDS:
        precision = float((d2_pred_to_gt <= theta * theta).mean())
        recall = float((d2_gt_to_pred <= theta * theta).mean())
        per.append(0.0 if precision + recall == 0.0
                   else 2.0 * precision * recall / (precision + recall))
    return float(np.mean(per)), tuple(per)


def _disk_min_d2(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For every True pixel of ``points``, in row-major order, the smallest
    squared distance to a True pixel of ``targets`` (same shape) over the
    disk offsets, or ``_BEYOND`` when no target lies within the disk."""
    padded = np.pad(targets, _REACH)
    width = padded.shape[1]
    rows, cols = np.nonzero(points)
    centers = (rows + _REACH) * width + (cols + _REACH)
    offsets = _DISK[:, 0] * width + _DISK[:, 1]
    hits = padded.ravel()[offsets[:, None] + centers]  # (disk offsets, points)
    return np.where(hits, _DISK_D2[:, None], _BEYOND).min(axis=0)


@dataclass
class MetricsReport:
    iou: float
    dice: float
    boundf: float
    boundf_per_threshold: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "iou": self.iou,
            "dice": self.dice,
            "boundf": self.boundf,
            "boundf_per_threshold": list(self.boundf_per_threshold),
        }


def evaluate(pred, gt) -> MetricsReport:
    mean_bf, per = boundf(pred, gt)
    return MetricsReport(iou=iou(pred, gt), dice=dice(pred, gt),
                         boundf=mean_bf, boundf_per_threshold=per)
