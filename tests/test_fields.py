import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contourflow.fields import (Circle, Contour, as_field, as_mask, bilinear_corners,
                                blend_corners, boundary_mask, boundary_pixels, central_gradient,
                                corner_box, rasterize, resample_closed, signed_area, signed_areas)

from oracles import (bilinear_corners_reference, bilinear_sample_reference, perimeter,
                     point_in_polygon, rasterize_loop, rasterize_reference)
from conftest import random_star_polygon


def sample(field, points):
    """A scalar field at (N, 2) points, through the solver's corner lookup."""
    corners = bilinear_corners(points, *field.shape)
    return blend_corners(field.reshape(-1)[corners.index][None], corners)[0]


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
        # one corner computation and one blend serve a scalar field and both
        # channels of a vector field, with the floats of a lookup per field
        rng = np.random.default_rng(seed)
        scalar = rng.normal(size=(height, width))
        vectors = rng.normal(size=(height, width, 2))
        pts = np.stack([rng.uniform(-2.0, width + 1.0, count),
                        rng.uniform(-2.0, height + 1.0, count)], axis=1)
        on_grid = rng.random(count) < 0.3  # pixel centers, the border and beyond
        pts[on_grid] = np.round(pts[on_grid])
        corners = bilinear_corners(pts, height, width)
        gathered = np.stack([vectors[..., 0].take(corners.index),
                             vectors[..., 1].take(corners.index), scalar.take(corners.index)])
        blended = blend_corners(gathered, corners)
        assert np.array_equal(blended[0], bilinear_sample_reference(vectors[..., 0], pts))
        assert np.array_equal(blended[1], bilinear_sample_reference(vectors[..., 1], pts))
        assert np.array_equal(blended[2], bilinear_sample_reference(scalar, pts))
        assert np.array_equal(sample(scalar, pts), blended[2])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 12),
           width=st.integers(1, 12), count=st.integers(1, 30))
    def test_corners_match_the_former_lookup_bit_for_bit(self, seed, height, width, count):
        # tobytes, not np.array_equal, which takes -0.0 for +0.0 and so
        # cannot see a clamp that flips the sign of a zero
        rng = np.random.default_rng(seed)
        shape = (count, 2)
        bound = np.array([width - 1.0, height - 1.0])
        inside = rng.uniform(0.0, 1.0, shape) * bound
        border = np.where(rng.random(shape) < 0.5, 0.0, bound)
        past = np.where(rng.random(shape) < 0.5, -rng.uniform(0.0, 3.0, shape),
                        bound + rng.uniform(0.0, 3.0, shape))
        kinds = np.stack([inside, np.round(inside), border, past, np.full(shape, -0.0)])
        pts = np.take_along_axis(kinds, rng.integers(0, len(kinds), (1,) + shape), 0)[0]
        got = bilinear_corners(pts, height, width)
        want = bilinear_corners_reference(pts, height, width)
        for name in ("index", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 12),
           width=st.integers(1, 12), count=st.integers(1, 30))
    def test_corner_box_holds_exactly_the_corners_read(self, seed, height, width, count):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 1.0, (count, 2)) * [width - 1.0, height - 1.0]
        pts = np.where(rng.random((count, 1)) < 0.3, np.round(pts), pts)  # on pixel centers
        rows, cols = np.divmod(bilinear_corners(pts, height, width).index, width)
        assert corner_box(pts[None], height, width) == (slice(rows.min(), rows.max() + 1),
                                                         slice(cols.min(), cols.max() + 1))


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

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (7, 2), (3, 3), (31, 17)])
    def test_equals_np_gradient_byte_for_byte(self, rng, shape):
        scales = 10.0 ** rng.integers(-3, 4, size=shape)
        for field in (rng.normal(size=shape) * scales, rng.integers(-9, 10, size=shape) * 1.0):
            want = np.stack([np.gradient(field, axis=1), np.gradient(field, axis=0)], axis=-1)
            got = central_gradient(field)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            assert got.flags.c_contiguous

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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12),
           nodes=st.integers(3, 300), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_stacked_areas_equal_one_by_one(self, seed, count, nodes, scale):
        """The solver reads each contour's area from one stacked call; every
        value must be the float of one polygon's shoelace sum on its own."""
        stack = scale * np.random.default_rng(seed).normal(size=(count, nodes, 2))
        areas = signed_areas(stack)
        assert areas.shape == (count,)
        want = [0.5 * float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v))
                for u, v in stack.transpose(0, 2, 1)]
        assert [float(a) for a in areas] == want == [signed_area(c) for c in stack]

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
        before = perimeter(poly)
        after = perimeter(resample_closed(poly, 200))
        assert after == pytest.approx(before, rel=0.05)

    def test_a_point_resamples_to_copies_of_it(self):
        out = resample_closed(np.full((4, 2), 2.5), 6)
        assert out.tolist() == [[2.5, 2.5]] * 6

    @pytest.mark.parametrize("count", [2, 0, -1])
    def test_fewer_than_three_nodes_refused(self, rng, count):
        with pytest.raises(ValueError) as raised:
            resample_closed(random_star_polygon(rng), count)
        assert str(raised.value) == "resampling needs at least 3 target nodes"


class TestInputChecks:
    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (0, 3), (3, 0)])
    @pytest.mark.parametrize("check, kind", [(as_field, "field"), (as_mask, "mask")])
    def test_a_non_2d_or_empty_array_is_refused(self, shape, check, kind):
        with pytest.raises(ValueError) as raised:
            check(np.zeros(shape))
        assert str(raised.value) == f"expected a non-empty 2-d {kind}, got shape {shape}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_field_is_refused(self, bad):
        values = np.zeros((3, 4))
        values[1, 2] = bad
        with pytest.raises(ValueError) as raised:
            as_field(values)
        assert str(raised.value) == "field contains NaN or Inf"


# a node far from the others makes the rounding of x reach whole pixels
_FAR_COORDS = st.one_of(_COORDS, st.floats(-1e17, 1e17, allow_nan=False),
                        st.sampled_from([-1e6, 1e6, -1e17, 1e17]))


@st.composite
def _offframe_polygons(draw, frame=None):
    """Polygons moved partly or wholly off a (height, width) frame, ``frame``
    or a drawn one, some with far nodes and some degenerate (collinear,
    repeated or zero net area)."""
    height, width = frame or (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    kind = draw(st.sampled_from(["moved", "far", "collinear", "bowtie"]))
    if kind == "collinear":
        a, b = draw(st.tuples(_COORDS, _COORDS)), draw(st.tuples(_COORDS, _COORDS))
        ts = draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=6))
        nodes = np.array([a, b] + [(a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
                                   for t in ts])
    elif kind == "bowtie":  # two lobes of opposite orientation: signed area 0
        u, v, s = draw(_COORDS), draw(_COORDS), draw(st.floats(0.5, 20.0))
        nodes = np.array([[u, v], [u + s, v + s], [u + s, v], [u, v + s]])
    else:
        coords = _COORDS if kind == "moved" else _FAR_COORDS
        nodes = np.array(draw(st.lists(st.tuples(coords, coords), min_size=3, max_size=10)))
        # shift by up to two frames in each direction: left of, over, right of
        nodes = nodes + [draw(st.integers(-2, 2)) * width, draw(st.integers(-2, 2)) * height]
    return nodes, width, height


class TestRasterizeBoundingBox:
    """``rasterize`` works on the box of its crossings; the mask must still
    equal the full-frame loop everywhere, including off the frame and
    where rounding carries a crossing past the nodes' u-range."""

    @settings(max_examples=400, deadline=None)
    @given(case=_offframe_polygons())
    # a crossing at x = 0 while min u is just above 0: the loop sets pixel
    # (4, 0), left of ceil(min u)
    @example(case=(np.array([[3.0, 2.0], [7.0, 6.0], [6.321080386245348e-18, 4.0]]), 10, 10))
    # a crossing a hair past max u = 6: the loop sets pixel (2, 6)
    @example(case=(np.array([[-6.0453361813226705, 6.59216740356073], [6.0, 2.0],
                             [4.2358364448968056, 7.6378585592912485]]), 10, 10))
    @example(case=(np.array([[1.0, 0.0], [1.0, 1.0], [1.20256796e-113, 0.0]]), 1, 1))
    @example(case=(np.array([[-1e17, -3.0], [1e17, 2.5], [4.5, 40.0]]), 9, 12))
    def test_matches_loop(self, case):
        nodes, width, height = case
        contour = Contour(nodes)
        got = rasterize(contour, width, height)
        assert got.dtype == bool and got.shape == (height, width)
        assert np.array_equal(got, rasterize_loop(contour, width, height))
        if contour.is_degenerate:
            assert not got.any()

    def test_rounding_examples_reach_past_the_nodes(self):
        left = Contour(np.array([[3.0, 2.0], [7.0, 6.0], [6.321080386245348e-18, 4.0]]))
        assert rasterize(left, 10, 10)[4, 0]
        right = Contour(np.array([[-6.0453361813226705, 6.59216740356073], [6.0, 2.0],
                                  [4.2358364448968056, 7.6378585592912485]]))
        assert rasterize(right, 10, 10)[2, 6]


@st.composite
def _contour_stacks(draw):
    """A frame and one to six polygons on it, each moved off it or not, with
    far nodes or degenerate, so the crossing boxes lie far apart; each is
    padded to one node count by repeating its last node."""
    frame = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    polygons = [draw(_offframe_polygons(frame))[0] for _ in range(draw(st.integers(1, 6)))]
    count = max(len(nodes) for nodes in polygons)
    contours = [Contour(np.concatenate([nodes, nodes[-1:].repeat(count - len(nodes), axis=0)]))
                for nodes in polygons]
    return contours, frame[1], frame[0]


class TestRasterizeStack:
    """A list of K contours rasterizes in one call: each mask of the stack,
    and each of the cropped uint8 masks over the union of the crossing
    boxes, equals the per-edge loop on that contour alone."""

    @settings(max_examples=300, deadline=None)
    @given(case=_contour_stacks())
    @example(case=([Contour(np.array([[0.5, 0.5], [2.5, 0.5], [1.5, 2.5]])),
                    Contour(np.array([[30.0, 30.0], [30.0, 40.0], [30.0, 35.0]])),  # degenerate
                    Contour(np.array([[16.5, 17.5], [19.5, 17.5], [18.0, 19.5]]))], 20, 20))
    def test_each_mask_equals_the_loop(self, case):
        contours, width, height = case
        got = rasterize(contours, width, height)
        assert got.dtype == bool and got.shape == (len(contours), height, width)
        for mask, contour in zip(got, contours):
            assert np.array_equal(mask, rasterize_loop(contour, width, height))
        rows, cols, inside = rasterize(contours, width, height, crop=True)
        assert inside.dtype == np.uint8 and inside.shape[0] == len(contours)
        assert 0 <= rows.start <= rows.stop <= height and 0 <= cols.start <= cols.stop <= width
        assert not (got.sum(axis=(1, 2)) - inside.sum(axis=(1, 2), dtype=np.intp)).any()
        assert np.array_equal(got[:, rows, cols], inside.view(bool))

    def test_no_crossing_gives_an_empty_box(self):
        flat = Contour(np.array([[1.2, 3.2], [6.0, 3.4], [2.0, 3.8]]))  # no row center inside
        rows, cols, inside = rasterize([flat, flat], 8, 8, crop=True)
        assert inside.shape == (2, 0, 0) and rows == cols == slice(0, 0)
        assert not rasterize([flat], 8, 8).any()
