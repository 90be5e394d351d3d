"""Segmentation quality metrics: overlap ratios and a boundary F-score
averaged over 1..5 pixel matching thresholds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .edt import edt_from_sites
from .fields import as_mask, boundary_mask, bounding_box

BOUNDF_THRESHOLDS = (1, 2, 3, 4, 5)


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

    Both distance transforms run on the bounding box of the two boundary
    sets, not on the whole frame. Every site and every pixel read lies in
    that box, and the transform is exact (integer squared distances), so
    each distance is the same minimum over the same sites as on the full
    frame.
    """
    pred, gt = _pair(pred, gt)
    pred_b = boundary_mask(pred)
    gt_b = boundary_mask(gt)
    if not pred_b.any() or not gt_b.any():
        score = 1.0 if (not pred.any() and not gt.any()) else 0.0
        return score, (score,) * len(BOUNDF_THRESHOLDS)
    box = bounding_box(pred_b | gt_b)
    pred_b, gt_b = pred_b[box], gt_b[box]
    d_pred_to_gt = edt_from_sites(gt_b)[pred_b]
    d_gt_to_pred = edt_from_sites(pred_b)[gt_b]
    per = []
    for theta in BOUNDF_THRESHOLDS:
        precision = float((d_pred_to_gt <= theta).mean())
        recall = float((d_gt_to_pred <= theta).mean())
        per.append(0.0 if precision + recall == 0.0
                   else 2.0 * precision * recall / (precision + recall))
    return float(np.mean(per)), tuple(per)


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
