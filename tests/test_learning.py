import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contourflow.autoinit import circle_to_contour, circumscribed_circle
from contourflow.fields import Contour, rasterize
from contourflow.learning import (align_cyclic, contour_from_mask, subgrad_alpha,
                                  subgrad_beta, trace_boundary)
from contourflow.shapes import disk_mask

from oracles import (align_cyclic_reference, rasterize_reference, subgrad_kappa,
                     sum_first_diff_sq, sum_second_diff_sq)
from conftest import random_star_polygon


def square(side, center):
    h = side / 2.0
    return Contour(np.array([
        [center[0] - h, center[1] - h],
        [center[0] + h, center[1] - h],
        [center[0] + h, center[1] + h],
        [center[0] - h, center[1] + h],
    ]))


def hexagon(center, radius=3.0):
    theta = 2 * np.pi * np.arange(6) / 6
    return Contour(np.stack([center[0] + radius * np.cos(theta),
                             center[1] + radius * np.sin(theta)], axis=1))


class TestSubgradAlpha:
    def test_zero_at_fixed_point(self, rng):
        contour = Contour(random_star_polygon(rng))
        assert subgrad_alpha(contour, contour) == 0.0

    def test_nested_squares(self):
        gt = square(2.0, (8.0, 8.0))
        pred = square(1.0, (8.0, 8.0))
        assert subgrad_alpha(gt, pred) == pytest.approx(4 * 4.0 - 4 * 1.0, abs=1e-12)

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            gt = Contour(random_star_polygon(rng))
            pred = Contour(random_star_polygon(rng))
            want = sum_first_diff_sq(gt.nodes) - sum_first_diff_sq(pred.nodes)
            assert subgrad_alpha(gt, pred) == pytest.approx(want, rel=1e-12)


class TestSubgradBeta:
    def test_zero_at_fixed_point(self, rng):
        contour = Contour(random_star_polygon(rng))
        assert np.abs(subgrad_beta(contour, contour, 32, 32)).max() == 0.0

    def test_translated_hexagon_antisymmetric(self):
        gt = hexagon((10.0, 16.0))
        pred = hexagon((20.0, 16.0))  # same shape translated 10 px
        grad = subgrad_beta(gt, pred, 32, 32)
        positives = grad[grad > 0]
        negatives = grad[grad < 0]
        assert len(positives) == len(negatives) == 6
        assert np.allclose(positives, positives[0])
        assert np.allclose(negatives, -positives[0])

    def test_field_sums_to_scalar_difference(self, rng):
        for _ in range(20):
            gt = Contour(random_star_polygon(rng))
            pred = Contour(random_star_polygon(rng))
            grad = subgrad_beta(gt, pred, 32, 32)
            want = sum_second_diff_sq(gt.nodes) - sum_second_diff_sq(pred.nodes)
            assert grad.sum() == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestSubgradKappa:
    def test_zero_at_fixed_point(self, rng):
        contour = Contour(random_star_polygon(rng))
        assert np.abs(subgrad_kappa(contour, contour, 32, 32)).max() == 0.0

    def test_disjoint_halves(self):
        gt = square(8.0, (6.0, 8.0))
        pred = square(8.0, (14.0, 8.0))
        grad = subgrad_kappa(gt, pred, 20, 16)
        gt_r = rasterize(gt, 20, 16)
        pred_r = rasterize(pred, 20, 16)
        assert (grad[gt_r & ~pred_r] == 1.0).all()
        assert (grad[pred_r & ~gt_r] == -1.0).all()
        assert (grad[~gt_r & ~pred_r] == 0.0).all()

    def test_values_and_total(self, rng):
        for _ in range(10):
            gt = Contour(random_star_polygon(rng))
            pred = Contour(random_star_polygon(rng))
            grad = subgrad_kappa(gt, pred, 32, 32)
            assert set(np.unique(grad)).issubset({-1.0, 0.0, 1.0})
            want = (rasterize_reference(gt.nodes, 32, 32).sum()
                    - rasterize_reference(pred.nodes, 32, 32).sum())
            assert grad.sum() == want

    def test_is_the_kappa_step_of_fit_parameters(self, monkeypatch):
        """``fit_parameters`` takes its kappa step from the rasters; the step is
        this subgradient of the aligned ground truth and the prediction."""
        from contourflow import learning, snake
        from contourflow.edt import mask_to_dt
        from contourflow.flow import lcdvf
        from contourflow.snake import SnakeConfig

        mask = disk_mask(32, 32, (16.0, 16.0), 9.0)
        start = circle_to_contour(circumscribed_circle(mask), 24, 32, 32)
        seen = []

        def recording(starts, vectors, params, config, keep):
            paths = snake.evolve(starts, vectors, params, config, keep)
            seen.append((params, paths[0].contours[config.iterations]))
            return paths

        monkeypatch.setattr(learning, "evolve", recording)
        learning.fit_parameters(mask, lcdvf(mask_to_dt(mask), 2.0), start,
                                SnakeConfig(iterations=5), learn_rate=0.01, epochs=2)
        (first, predicted), (second, _) = seen
        gt = align_cyclic(predicted, contour_from_mask(mask, 24))
        step = subgrad_kappa(gt, predicted, 32, 32)
        assert np.abs(step).max() == 1.0
        assert np.array_equal(second.kappa, first.kappa + 0.01 * step)


class TestContourFromMask:
    def test_boundary_trace_closed_loop(self):
        mask = disk_mask(32, 32, (16.0, 16.0), 8.0)
        loop = trace_boundary(mask)
        assert len(loop) > 20
        # every traced pixel is a boundary pixel of the mask
        from contourflow.fields import boundary_mask
        border = boundary_mask(mask)
        assert all(border[v, u] for u, v in loop)

    def test_resampled_contour_hugs_disk(self):
        mask = disk_mask(32, 32, (16.0, 16.0), 8.0)
        contour = contour_from_mask(mask, 40)
        assert len(contour) == 40
        radii = np.hypot(contour.nodes[:, 0] - 16.0, contour.nodes[:, 1] - 16.0)
        assert radii.min() >= 6.0 and radii.max() <= 9.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            contour_from_mask(np.zeros((8, 8), dtype=bool), 20)

    @pytest.mark.parametrize("pixels", [[(3, 2)], [(0, 0), (4, 3), (5, 3)]],
                             ids=["lone", "first-of-two-components"])
    def test_isolated_start_pixel_is_its_own_loop(self, pixels):
        mask = np.zeros((5, 7), dtype=bool)
        for u, v in pixels:
            mask[v, u] = True
        assert trace_boundary(mask) == [pixels[0]]
        with pytest.raises(ValueError, match="too small"):
            contour_from_mask(mask, 12)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 9), width=st.integers(1, 9),
           density=st.floats(0.2, 0.95))
    def test_walk_closes_within_four_entries_per_pixel(self, seed, height, width, density):
        """The first move repeats before the walk's bound: the loop is a
        closed 8-connected walk through boundary pixels, at most four
        entries per foreground pixel."""
        from contourflow.fields import boundary_mask
        rng = np.random.default_rng(seed)
        mask = rng.random((height, width)) < density
        if not mask.any():
            return
        loop = trace_boundary(mask)
        assert len(loop) <= 4 * mask.sum()
        border = boundary_mask(mask)
        assert all(border[v, u] for u, v in loop)
        for (au, av), (bu, bv) in zip(loop, loop[1:] + loop[:1]):
            assert max(abs(au - bu), abs(av - bv)) == (len(loop) > 1)

    def test_start_pixel_passed_twice_keeps_the_whole_loop(self):
        # the boundary leaves the start pixel (1, 0) twice: east, then back
        # through it to the rest of the shape; stopping at its first return
        # would keep only [(1, 0), (2, 0)]
        mask = np.zeros((5, 7), dtype=bool)
        for u, v in [(1, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 2)]:
            mask[v, u] = True
        assert trace_boundary(mask) == [(1, 0), (2, 0), (1, 0), (0, 1), (1, 2), (2, 2),
                                        (1, 2), (0, 2), (0, 1)]
        assert len(contour_from_mask(mask, 12)) == 12


class TestAlign:
    def test_recovers_known_shift(self, rng):
        poly = random_star_polygon(rng, n_lo=10, n_hi=14)
        reference = Contour(poly)
        shifted = Contour(np.roll(poly, 4, axis=0))
        aligned = align_cyclic(reference, shifted)
        assert np.allclose(aligned.nodes, reference.nodes, atol=1e-12)

    def test_node_count_mismatch_rejected(self, rng):
        a = Contour(random_star_polygon(rng, n_lo=6, n_hi=6))
        b = Contour(random_star_polygon(rng, n_lo=8, n_hi=8))
        with pytest.raises(ValueError):
            align_cyclic(a, b)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80), shift=st.integers(0, 79))
    def test_matches_the_shift_loop(self, seed, n, shift):
        rng = np.random.default_rng(seed)
        reference = Contour(random_star_polygon(rng, n_lo=n, n_hi=n))
        target = Contour(np.roll(random_star_polygon(rng, n_lo=n, n_hi=n), shift % n, axis=0))
        got = align_cyclic(reference, target)
        assert np.array_equal(got.nodes, align_cyclic_reference(reference, target).nodes)

    @settings(max_examples=50, deadline=None)
    @given(center=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           half=st.integers(1, 40), reach=st.integers(1, 40), shift=st.integers(0, 3))
    def test_exact_tie_keeps_the_first_shift(self, center, half, reach, shift):
        """Each square corner lies midway between two diamond tips, so two
        different shifts cost exactly the same; the loop keeps the first."""
        c = np.asarray(center, dtype=np.float64)
        square = c + half * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        diamond = c + reach * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        reference, target = Contour(square), Contour(np.roll(diamond, shift, axis=0))
        got = align_cyclic(reference, target)
        assert np.array_equal(got.nodes, align_cyclic_reference(reference, target).nodes)


    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 80), shift=st.integers(0, 79),
           step=st.sampled_from([0.0, 0.5, 1.0]))
    def test_aligned_copy_rasterizes_to_the_same_region(self, seed, n, shift, step):
        # rasterize's edge set, and so its mask, does not change under a
        # cyclic shift, so a fit rasterizes its ground-truth contour once;
        # nodes on a half or whole pixel grid hit rasterize's row ties
        rng = np.random.default_rng(seed)
        poly = random_star_polygon(rng, n_lo=n, n_hi=n)
        if step:
            poly = np.round(poly / step) * step
        target = Contour(poly)
        region = rasterize(target, 32, 32)
        shifted = Contour(np.roll(target.nodes, shift % n, axis=0))
        assert np.array_equal(rasterize(shifted, 32, 32), region)
        reference = Contour(random_star_polygon(rng, n_lo=n, n_hi=n))
        assert np.array_equal(rasterize(align_cyclic(reference, target), 32, 32), region)

class TestFitParameters:
    def _setup(self):
        from contourflow.edt import mask_to_dt
        from contourflow.flow import lcdvf
        from contourflow.snake import SnakeConfig
        mask = disk_mask(48, 48, (24.0, 24.0), 14.0)
        force = lcdvf(mask_to_dt(mask), np.inf)
        config = SnakeConfig(iterations=20)
        start = circle_to_contour(circumscribed_circle(mask), 40, 48, 48)
        return mask, force, start, config

    def test_ground_truth_takes_the_start_node_count(self):
        """The ground-truth contour is resampled to the start's node count,
        whatever node count the default config would suggest."""
        from contourflow.learning import fit_parameters
        from contourflow.snake import SnakeConfig
        mask, force, start, _ = self._setup()
        assert len(start) == 40
        fit = fit_parameters(mask, force, start, SnakeConfig(iterations=5), epochs=2)
        assert len(fit.iou_history) == 2 and fit.best_iou > 0.5

    def test_zero_learning_rate_leaves_params_unchanged(self):
        from contourflow.learning import fit_parameters
        from contourflow.snake import ParameterSet
        mask, force, contour, config = self._setup()
        start = ParameterSet.uniform(48, 48, alpha=0.02, beta=0.3, kappa=0.1)
        fit = fit_parameters(mask, force, contour, config, learn_rate=0.0, epochs=3,
                             initial_params=start)
        assert fit.params.alpha == start.alpha
        assert np.array_equal(fit.params.beta, start.beta)
        assert np.array_equal(fit.params.kappa, start.kappa)
        assert len(fit.iou_history) == 3
        assert fit.best_iou == fit.baseline_iou

    def test_best_params_stay_valid(self):
        from contourflow.learning import fit_parameters
        mask, force, start, config = self._setup()
        fit = fit_parameters(mask, force, start, config, learn_rate=1e-3, epochs=5)
        assert fit.params.alpha >= 0.0
        assert (fit.params.beta >= 0.0).all()
        assert fit.best_iou >= fit.baseline_iou

    def test_zero_epochs_rejected(self):
        from contourflow.learning import fit_parameters
        mask, force, start, config = self._setup()
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            fit_parameters(mask, force, start, config, epochs=0)

    @pytest.mark.parametrize("learn_rate", [np.nan, np.inf, -np.inf, -5.0])
    def test_bad_learn_rate_rejected(self, learn_rate):
        from contourflow.learning import fit_parameters
        mask, force, start, config = self._setup()
        with pytest.raises(ValueError, match="learn_rate must be finite and >= 0"):
            fit_parameters(mask, force, start, config, learn_rate=learn_rate, epochs=1)

    def test_collapsing_fit_aborts_with_epoch_and_iteration(self):
        from contourflow.edt import mask_to_dt
        from contourflow.flow import lcdvf
        from contourflow.learning import fit_parameters
        from contourflow.snake import ParameterSet, SnakeConfig
        mask = disk_mask(64, 64, (32, 32), 20)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = ParameterSet.uniform(64, 64, kappa=-5.0)
        contour = circle_to_contour(circumscribed_circle(mask), 60, 64, 64)
        with pytest.raises(RuntimeError, match="fit aborted at epoch 1: .*iteration 47"):
            fit_parameters(mask, force, contour, SnakeConfig(iterations=200), epochs=2,
                           initial_params=start)
