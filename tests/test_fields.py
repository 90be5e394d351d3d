import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contourflow.fields import (Circle, Contour, bilinear_blend, bilinear_corners,
                                boundary_mask, boundary_pixels, central_gradient, rasterize,
                                resample_closed, signed_area)

from oracles import (bilinear_sample_reference, point_in_polygon, rasterize_loop,
                     rasterize_reference)
from conftest import random_star_polygon


def sample(field, points):
    """A scalar field at (N, 2) points, through the solver's corner lookup."""
    return bilinear_blend(field.reshape(-1), bilinear_corners(points, *field.shape))


class TestBilinearSample:
    def test_constant_field(self, rng):
        field = np.full((9, 7), 3.25)
        for _ in range(20):
            pt = (rng.uniform(0, 6), rng.uniform(0, 8))
            assert sample(field, [pt])[0] == pytest.approx(3.25, abs=1e-12)

    def test_exact_on_linear_ramp(self):
        # f(u, v) = u, so any interpolated value equals the u coordinate
        field = np.tile(np.arange(16.0), (16, 1))
        assert sample(field, [(2.5, 7.0)])[0] == pytest.approx(2.5, abs=1e-12)

    def test_hand_evaluated_2x2(self):
        field = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert sample(field, [(0.5, 0.5)])[0] == pytest.approx(1.5, abs=1e-12)

    def test_reproduces_stored_values_at_integer_points(self, rng):
        # 1000 random (field, point) probes across shapes
        for _ in range(50):
            h, w = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            field = rng.normal(size=(h, w))
            us = rng.integers(0, w, size=20)
            vs = rng.integers(0, h, size=20)
            got = sample(field, np.stack([us, vs], axis=1).astype(float))
            assert np.array_equal(got, field[vs, us])

    def test_non_finite_point_rejected(self):
        field = np.zeros((4, 4))
        with pytest.raises(ValueError):
            sample(field, [(np.nan, 1.0)])
        with pytest.raises(ValueError):
            sample(field, [(1.0, np.inf)])

    def test_out_of_bounds_clamps(self):
        field = np.arange(16.0).reshape(4, 4)
        assert sample(field, [(-3.0, 0.0)])[0] == field[0, 0]
        assert sample(field, [(9.0, 9.0)])[0] == field[3, 3]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 12),
           width=st.integers(1, 12), count=st.integers(1, 40))
    def test_shared_corners_match_per_field_lookups(self, seed, height, width, count):
        # one corner computation serves a scalar field and both channels of
        # a vector field, with the floats of a lookup per field
        rng = np.random.default_rng(seed)
        scalar = rng.normal(size=(height, width))
        vectors = rng.normal(size=(height, width, 2))
        pts = np.stack([rng.uniform(-2.0, width + 1.0, count),
                        rng.uniform(-2.0, height + 1.0, count)], axis=1)
        on_grid = rng.random(count) < 0.3  # pixel centers, the border and beyond
        pts[on_grid] = np.round(pts[on_grid])
        corners = bilinear_corners(pts, height, width)
        want = bilinear_sample_reference(scalar, pts)
        assert np.array_equal(bilinear_blend(scalar.reshape(-1), corners), want)
        both = bilinear_blend(vectors.reshape(-1, 2), corners)
        assert np.array_equal(both[:, 0], bilinear_sample_reference(vectors[..., 0], pts))
        assert np.array_equal(both[:, 1], bilinear_sample_reference(vectors[..., 1], pts))


class TestCentralGradient:
    def test_constant_field_zero(self):
        grad = central_gradient(np.full((6, 6), 2.0))
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_affine_field_exact_interior(self):
        uu, vv = np.meshgrid(np.arange(10.0), np.arange(8.0))
        grad = central_gradient(3.0 * uu + 5.0 * vv)
        assert np.allclose(grad[1:-1, 1:-1, 0], 3.0, atol=1e-12)
        assert np.allclose(grad[1:-1, 1:-1, 1], 5.0, atol=1e-12)

    def test_radial_distance_gradient_magnitude(self):
        # exact Euclidean distance to a single point: |grad| in [0.9, 1.0]
        # wherever the distance is at least 2 px
        uu, vv = np.meshgrid(np.arange(32.0), np.arange(32.0))
        dist = np.hypot(uu - 11.0, vv - 17.0)
        grad = central_gradient(dist)
        mag = np.hypot(grad[..., 0], grad[..., 1])
        far = dist >= 2.0
        far[0, :] = far[-1, :] = False
        far[:, 0] = far[:, -1] = False
        assert mag[far].min() >= 0.9
        assert mag[far].max() <= 1.0 + 1e-9

    def test_too_small_field_rejected(self):
        with pytest.raises(ValueError):
            central_gradient(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            central_gradient(np.zeros((5, 1)))


class TestBoundary:
    def test_all_ones_gives_frame(self):
        mask = np.ones((5, 7), dtype=bool)
        frame = boundary_mask(mask)
        expected = np.zeros_like(mask)
        expected[0, :] = expected[-1, :] = True
        expected[:, 0] = expected[:, -1] = True
        assert np.array_equal(frame, expected)

    def test_single_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        pix = boundary_pixels(mask)
        assert pix.tolist() == [[3, 2]]

    def test_filled_square_perimeter(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        assert boundary_mask(mask).sum() == 16

    def test_empty_mask_empty_set(self):
        assert boundary_pixels(np.zeros((4, 4), dtype=bool)).shape == (0, 2)


class TestContour:
    def test_orientation_normalized(self):
        cw = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0], [2.0, 0.0]])
        assert signed_area(cw) < 0
        contour = Contour(cw)
        assert contour.area > 0
        assert np.array_equal(contour.nodes[0], cw[0])  # node 0 kept first

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            Contour(np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError):
            Contour(nodes)

    def test_clamped(self):
        contour = Contour(np.array([[-5.0, 1.0], [9.0, 1.0], [4.0, 30.0]]))
        clamped = contour.clamped(8, 8)
        assert clamped.nodes[:, 0].min() >= 0.0
        assert clamped.nodes[:, 0].max() <= 7.0
        assert clamped.nodes[:, 1].max() <= 7.0

    def test_circle_dataclass_validation(self):
        with pytest.raises(ValueError):
            Circle((1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            Circle((np.nan, 1.0), 1.0)


class TestRasterize:
    def test_axis_aligned_square(self):
        square = Contour(np.array([[0.5, 0.5], [3.5, 0.5], [3.5, 3.5], [0.5, 3.5]]))
        mask = rasterize(square, 8, 8)
        assert mask.sum() == 9
        assert mask[1:4, 1:4].all()

    def test_degenerate_triangle_is_empty_and_flagged(self):
        flat = Contour(np.array([[1.0, 1.0], [4.0, 1.0], [7.0, 1.0]]))
        assert flat.is_degenerate
        assert rasterize(flat, 10, 10).sum() == 0

    def test_matches_bruteforce_on_random_polygons(self, rng):
        for _ in range(30):
            poly = random_star_polygon(rng, center=(12.0, 12.0), r_hi=10.0)
            got = rasterize(Contour(poly), 24, 24)
            want = rasterize_reference(Contour(poly).nodes, 24, 24)
            assert np.array_equal(got, want)

    def test_circle_pixel_count_near_area(self):
        # generic sub-pixel center (an integer center at radius 5 aligns a
        # dozen pixel centers exactly on the circle, a measure-zero tie case)
        for radius in (5.0, 6.0, 7.5, 12.0):
            theta = np.linspace(0.0, 2.0 * np.pi, 90, endpoint=False)
            poly = np.stack([20.25 + radius * np.cos(theta),
                             19.6 + radius * np.sin(theta)], axis=1)
            count = rasterize(Contour(poly), 40, 40).sum()
            assert abs(count - np.pi * radius ** 2) <= 0.05 * np.pi * radius ** 2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.integers(0, 20), reverse=st.booleans())
    def test_invariant_under_rotation_and_reversal(self, seed, shift, reverse):
        poly = random_star_polygon(np.random.default_rng(seed))
        base = rasterize(Contour(poly), 32, 32)
        nodes = np.roll(poly, shift % len(poly), axis=0)
        if reverse:
            nodes = nodes[::-1]
        assert np.array_equal(rasterize(Contour(nodes), 32, 32), base)

    def test_point_in_polygon_oracle_tie_rule(self):
        # pixel centers exactly on the left/top edges are inside; on the
        # right/bottom edges outside
        square = [(1.0, 1.0), (4.0, 1.0), (4.0, 4.0), (1.0, 4.0)]
        assert point_in_polygon((1.0, 2.0), square)
        assert point_in_polygon((2.0, 1.0), square)
        assert not point_in_polygon((4.0, 2.0), square)
        assert not point_in_polygon((2.0, 4.0), square)

    def test_matches_bruteforce_on_grazing_polygons(self, rng):
        # integer and half-integer vertices put edges exactly on pixel
        # centers and rows, the worst case for the tie convention
        checked = 0
        while checked < 60:
            n = int(rng.integers(3, 9))
            pts = rng.integers(0, 24, size=(n, 2)) / 2.0
            if abs(signed_area(pts)) < 1e-6:
                continue
            checked += 1
            contour = Contour(pts)
            got = rasterize(contour, 12, 12)
            want = rasterize_reference(contour.nodes, 12, 12)
            assert np.array_equal(got, want)


# pixel centers, half-integers (edges through rows and centers) and generic
# reals, reaching past every side of the frames drawn below
_COORDS = st.one_of(st.integers(-6, 30).map(float),
                    st.integers(-12, 60).map(lambda k: k / 2.0),
                    st.floats(-6.0, 30.0, allow_nan=False, allow_infinity=False))


@st.composite
def _polygons(draw):
    nodes = draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=3, max_size=12))
    # copying the previous node's row makes horizontal edges
    flat = draw(st.lists(st.booleans(), min_size=len(nodes), max_size=len(nodes)))
    for i in range(1, len(nodes)):
        if flat[i]:
            nodes[i] = (nodes[i][0], nodes[i - 1][1])
    return np.array(nodes, dtype=np.float64)


class TestRasterizeVectorized:
    """The whole-array rasterizer must equal the per-edge loop it replaced
    and the per-pixel point-in-polygon test, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(nodes=_polygons(), width=st.integers(1, 24), height=st.integers(1, 24))
    @example(nodes=np.array([[2.0, 3.0], [9.0, 3.0], [9.0, 8.0], [2.0, 8.0]]),
             width=12, height=12)  # horizontal edges on pixel-center rows
    @example(nodes=np.array([[-4.0, -2.5], [30.0, 4.0], [6.0, 40.0]]),
             width=10, height=14)  # every node outside the frame
    @example(nodes=np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 5.0], [0.0, 5.0]]),
             width=5, height=5)  # edges on the first row and column
    def test_matches_loop_and_point_in_polygon(self, nodes, width, height):
        contour = Contour(nodes)
        got = rasterize(contour, width, height)
        assert got.dtype == bool and got.shape == (height, width)
        assert np.array_equal(got, rasterize_loop(contour, width, height))
        if not contour.is_degenerate:
            assert np.array_equal(got, rasterize_reference(contour.nodes, width, height))


class TestResample:
    def test_count_and_closure(self, rng):
        poly = random_star_polygon(rng)
        out = resample_closed(poly, 50)
        assert out.shape == (50, 2)
        seg = np.hypot(*(np.diff(np.vstack([out, out[:1]]), axis=0).T))
        assert seg.std() / seg.mean() < 0.35  # near-uniform spacing

    def test_perimeter_preserved_roughly(self, rng):
        poly = random_star_polygon(rng)
        before = Contour(poly).perimeter
        after = Contour(resample_closed(poly, 200)).perimeter
        assert after == pytest.approx(before, rel=0.05)
