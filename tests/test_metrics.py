import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contourflow.metrics import boundf, evaluate, iou
from contourflow.shapes import random_blob_mask, rectangle_mask

from oracles import boundf_reference
from conftest import edge_case_masks, random_boxes_mask


def random_pair(seed, size=24):
    rng = np.random.default_rng(seed)
    return random_blob_mask(rng, size, size), random_blob_mask(rng, size, size)


class TestIou:
    def test_identical_masks(self, rng):
        mask = random_blob_mask(rng, 24, 24)
        assert iou(mask, mask) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((10, 10), dtype=bool)
        b = np.zeros((10, 10), dtype=bool)
        a[:3, :3] = True
        b[6:, 6:] = True
        assert iou(a, b) == 0.0

    def test_half_versus_full(self):
        full = np.ones((10, 10), dtype=bool)
        half = np.zeros((10, 10), dtype=bool)
        half[:, :5] = True
        assert iou(half, full) == 0.5

    def test_both_empty(self):
        empty = np.zeros((6, 6), dtype=bool)
        assert iou(empty, empty) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            iou(np.zeros((4, 4), dtype=bool), np.zeros((5, 4), dtype=bool))


class TestDice:
    def test_identical_masks(self, rng):
        mask = random_blob_mask(rng, 24, 24)
        assert evaluate(mask, mask).dice == 1.0

    def test_half_versus_full(self):
        full = np.ones((10, 10), dtype=bool)
        half = np.zeros((10, 10), dtype=bool)
        half[:, :5] = True
        assert evaluate(half, full).dice == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_identity_with_iou_on_random_pairs(self):
        for seed in range(500):
            pred, gt = random_pair(seed)
            i = iou(pred, gt)
            assert evaluate(pred, gt).dice == pytest.approx(2.0 * i / (1.0 + i), abs=1e-12)


class TestBoundF:
    def test_identical_masks_score_one(self, rng):
        mask = random_blob_mask(rng, 24, 24)
        mean, per = boundf(mask, mask)
        assert mean == 1.0
        assert per == (1.0,) * 5

    def test_translated_square_thresholds(self):
        gt = rectangle_mask(40, 40, (16.0, 20.0), 7.0, 7.0)
        pred = rectangle_mask(40, 40, (19.0, 20.0), 7.0, 7.0)  # 3 px shift
        mean, per = boundf(pred, gt)
        want_mean, want_per = boundf_reference(pred, gt)
        assert per == pytest.approx(want_per, abs=1e-12)
        assert mean == pytest.approx(want_mean, abs=1e-12)
        assert per[0] < 1.0 and per[1] < 1.0
        assert per[2] == per[3] == per[4] == 1.0

    def test_far_apart_boundaries_score_zero(self):
        a = np.zeros((30, 30), dtype=bool)
        b = np.zeros((30, 30), dtype=bool)
        a[2:5, 2:5] = True
        b[20:28, 20:28] = True
        mean, per = boundf(a, b)
        assert mean == 0.0 and per == (0.0,) * 5

    def test_empty_versus_nonempty(self):
        empty = np.zeros((12, 12), dtype=bool)
        full = np.ones((12, 12), dtype=bool)
        assert boundf(empty, full)[0] == 0.0
        assert boundf(empty, empty)[0] == 1.0

    def test_matches_bruteforce_on_random_pairs(self):
        for seed in range(50):
            pred, gt = random_pair(seed, size=32)
            got_mean, got_per = boundf(pred, gt)
            want_mean, want_per = boundf_reference(pred, gt)
            assert got_per == pytest.approx(want_per, abs=1e-12)
            assert got_mean == pytest.approx(want_mean, abs=1e-12)


class TestBoundFCropped:
    """``boundf`` runs its distance transforms on the bounding box of the
    two boundaries; the scores must equal the full brute force exactly."""

    @pytest.mark.parametrize("pred_name", sorted(edge_case_masks()))
    def test_equals_bruteforce_on_edge_cases(self, pred_name):
        masks = edge_case_masks()
        pred = masks[pred_name]
        for gt in masks.values():
            assert boundf(pred, gt) == boundf_reference(pred, gt)
            assert boundf(gt, pred) == boundf_reference(gt, pred)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), height=st.integers(1, 30),
           width=st.integers(1, 30))
    def test_equals_bruteforce_on_random_boxes(self, seed, height, width):
        rng = np.random.default_rng(seed)
        pred = random_boxes_mask(rng, height, width)
        gt = random_boxes_mask(rng, height, width)
        assert boundf(pred, gt) == boundf_reference(pred, gt)


def _pixels(height, width, *points):
    mask = np.zeros((height, width), dtype=bool)
    for v, u in points:
        mask[v, u] = True
    return mask


@st.composite
def mask_pairs(draw):
    """Two masks of one random frame (1 x N and N x 1 included), each empty,
    full, random boxes, noise, or a box far from the frame's other corner."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one(kind, at_origin):
        mask = np.zeros((height, width), dtype=bool)
        if kind == "full":
            mask[:] = True
        elif kind == "boxes":
            mask = random_boxes_mask(rng, height, width)
        elif kind == "noise":
            mask = rng.random((height, width)) < rng.random()
        elif kind == "corner":  # alternate corners, so pairs sit far apart
            span_v, span_u = max(height // 4, 1), max(width // 4, 1)
            rows = slice(0, span_v) if at_origin else slice(height - span_v, height)
            cols = slice(0, span_u) if at_origin else slice(width - span_u, width)
            mask[rows, cols] = True
        return mask

    kinds = st.sampled_from(["empty", "full", "boxes", "noise", "corner"])
    first = draw(st.booleans())
    return one(draw(kinds), first), one(draw(kinds), not first)


class TestBoundFDisk:
    """``boundf`` matches boundary pixels within the disk of offsets of
    radius 5 instead of running distance transforms; the scores must be
    tuple-equal to the brute-force pairwise distances."""

    @settings(max_examples=300, deadline=None)
    @given(pair=mask_pairs())
    @example(pair=(_pixels(1, 40, (0, 0)), _pixels(1, 40, (0, 5))))  # 1 x N, d = 5
    @example(pair=(_pixels(1, 40, (0, 0)), _pixels(1, 40, (0, 6))))  # 1 x N, d = 6
    @example(pair=(_pixels(40, 1, (3, 0)), _pixels(40, 1, (30, 0))))  # N x 1, far apart
    @example(pair=(_pixels(12, 12, (2, 2)), _pixels(12, 12, (5, 6))))  # d^2 = 25
    @example(pair=(_pixels(12, 12, (2, 2)), _pixels(12, 12, (3, 7))))  # d^2 = 26
    @example(pair=(np.zeros((5, 7), dtype=bool), np.ones((5, 7), dtype=bool)))
    @example(pair=(np.ones((1, 1), dtype=bool), np.ones((1, 1), dtype=bool)))
    def test_equals_bruteforce(self, pair):
        pred, gt = pair
        assert boundf(pred, gt) == boundf_reference(pred, gt)
        assert boundf(gt, pred) == boundf_reference(gt, pred)


class TestSymmetryAndInvariance:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_symmetry(self, seed):
        pred, gt = random_pair(seed)
        assert iou(pred, gt) == iou(gt, pred)
        assert evaluate(pred, gt).dice == evaluate(gt, pred).dice
        assert boundf(pred, gt)[0] == pytest.approx(boundf(gt, pred)[0], abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000), du=st.integers(0, 5), dv=st.integers(0, 5))
    def test_translation_invariance(self, seed, du, dv):
        rng = np.random.default_rng(seed)
        pred = random_blob_mask(rng, 24, 24)
        gt = random_blob_mask(rng, 24, 24)
        grown_p = np.zeros((34, 34), dtype=bool)
        grown_g = np.zeros((34, 34), dtype=bool)
        grown_p[2:26, 2:26] = pred
        grown_g[2:26, 2:26] = gt
        moved_p = np.roll(np.roll(grown_p, dv, axis=0), du, axis=1)
        moved_g = np.roll(np.roll(grown_g, dv, axis=0), du, axis=1)
        assert iou(moved_p, moved_g) == iou(grown_p, grown_g)
        assert boundf(moved_p, moved_g)[0] == pytest.approx(
            boundf(grown_p, grown_g)[0], abs=1e-12)


class TestReport:
    def test_report_fields_consistent(self, rng):
        pred = random_blob_mask(rng, 24, 24)
        gt = random_blob_mask(rng, 24, 24)
        report = evaluate(pred, gt)
        assert report.dice >= report.iou
        assert report.boundf == pytest.approx(np.mean(report.boundf_per_threshold))
        payload = report.as_dict()
        assert set(payload) == {"iou", "dice", "boundf", "boundf_per_threshold"}
        assert len(payload["boundf_per_threshold"]) == 5


class TestStackedScoring:
    """``evaluate`` and ``boundf`` on (K, H, W) stacks give each item the
    values of its pair alone, and of the brute force, bit for bit (``repr``
    of a float round-trips its bits, sign of zero included)."""

    @staticmethod
    def stacked_items(preds, gts):
        pred, gt = np.stack(preds), np.stack(gts)
        reports, scores = evaluate(pred, gt), boundf(pred, gt)
        assert len(reports) == len(scores) == len(preds)
        for p, g, report, score in zip(preds, gts, reports, scores):
            assert repr(report) == repr(evaluate(p, g))
            assert repr(score) == repr(boundf(p, g)) == repr(boundf_reference(p, g))

    def test_edge_cases_in_one_stack(self):
        masks = edge_case_masks()
        empty = np.zeros((20, 24), dtype=bool)
        names = sorted(masks)
        preds = [masks[n] for n in names] + [empty, masks["top"], empty]
        gts = [masks[n] for n in names[1:] + names[:1]] + [masks["pixel"], empty, empty]
        self.stacked_items(preds, gts)

    def test_full_frame_and_one_pixel_items(self):
        full, pixel = np.ones((9, 7), dtype=bool), _pixels(9, 7, (4, 3))
        corner = _pixels(9, 7, (8, 6))
        self.stacked_items([full, pixel, corner, full, pixel],
                           [pixel, corner, full, full, pixel])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_item_stack(self, seed):
        pred, gt = random_pair(seed)
        self.stacked_items([pred], [gt])

    def test_chunks_split_items(self, monkeypatch):
        """Chunks of 7 points start and end inside items' point runs."""
        import contourflow.metrics as metrics_module

        monkeypatch.setattr(metrics_module, "_CHUNK", 7)
        rng = np.random.default_rng(11)
        preds = [random_blob_mask(rng, 24, 24) for _ in range(5)]
        gts = [random_blob_mask(rng, 24, 24) for _ in range(5)]
        self.stacked_items(preds, gts)

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(mask_pairs(), min_size=1, max_size=4), reach=st.integers(1, 40))
    def test_equals_pairs_on_random_stacks(self, pairs, reach):
        """Stacks of the random pairs' first frame, with the chunk size drawn too."""
        import contourflow.metrics as metrics_module

        shape = pairs[0][0].shape
        pairs = [p for p in pairs if p[0].shape == shape]
        previous, metrics_module._CHUNK = metrics_module._CHUNK, reach
        try:
            self.stacked_items([p for p, _ in pairs], [g for _, g in pairs])
        finally:
            metrics_module._CHUNK = previous

    def test_stacks_of_other_shapes_rejected(self):
        with pytest.raises(ValueError, match="mask dimensions differ"):
            evaluate(np.zeros((2, 4, 4), dtype=bool), np.zeros((2, 4, 5), dtype=bool))
