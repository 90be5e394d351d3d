import random
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from contourflow.autoinit import (_shuffled, circle_to_contour, circumscribed_circle,
                                  inscribed_circle, minimal_enclosing_circle)
from contourflow.edt import edt_from_sites
from contourflow.fields import boundary_mask, boundary_pixels, rasterize
from contourflow.shapes import disk_mask, random_blob_mask, rectangle_mask, suite

from oracles import (inscribed_circle_full_frame, iterative_circle_fit, mec_reference,
                     minimal_enclosing_circle_reference, perimeter)
from conftest import edge_case_masks, random_boxes_mask


def inscribed(mask):
    """The inscribed circle from the inner-boundary EDT, as the CLI builds it."""
    return inscribed_circle(mask, edt_from_sites(boundary_mask(mask)))


def dilate8(mask):
    padded = np.pad(mask, 1)
    out = np.zeros_like(mask)
    for dv in (-1, 0, 1):
        for du in (-1, 0, 1):
            out |= padded[1 + dv: mask.shape[0] + 1 + dv,
                          1 + du: mask.shape[1] + 1 + du]
    return out


class TestInscribed:
    def test_disk_recovers_center_and_radius(self):
        circle = inscribed(disk_mask(64, 64, (32.0, 32.0), 10.0))
        assert abs(circle.center[0] - 32.0) <= 1.0
        assert abs(circle.center[1] - 32.0) <= 1.0
        assert abs(circle.radius - 10.0) <= 1.0

    def test_rectangle_inradius(self):
        mask = rectangle_mask(64, 64, (30.0, 30.0), 14.0, 9.0)
        circle = inscribed(mask)
        assert abs(circle.radius - 9.5) <= 1.0
        assert abs(circle.center[1] - 30.0) <= 1.0

    def test_radius_matches_brute_interior_distance(self, rng):
        # the exact construction is the argmax of the distance to background
        for _ in range(10):
            mask = random_blob_mask(rng, 48, 48)
            circle = inscribed(mask)
            padded = np.pad(mask, 1, constant_values=False)
            interior = edt_from_sites(~padded)[1:-1, 1:-1]
            assert circle.radius == pytest.approx(interior[mask].max(), abs=0)
            # no pixel center admits a circle one pixel larger
            assert (interior[mask] < circle.radius + 1.0).all()

    def test_tie_breaks_lexicographic(self):
        mask = np.zeros((6, 8), dtype=bool)
        mask[1, 2] = mask[1, 5] = mask[3, 2] = True  # isolated pixels, equal radius
        circle = inscribed(mask)
        assert circle.center == (2.0, 1.0)

    def test_empty_mask_rejected(self):
        # an empty mask has no boundary EDT; the check comes before dt is read
        with pytest.raises(ValueError, match="mask has no foreground"):
            inscribed_circle(np.zeros((8, 8), dtype=bool), np.zeros((8, 8)))

    def test_dt_of_another_shape_rejected(self):
        mask = disk_mask(16, 16, (8.0, 8.0), 4.0)
        with pytest.raises(ValueError, match="does not match"):
            inscribed_circle(mask, np.zeros((16, 17)))


def _tie_heavy_mask(kind, height, width, top, left, size):
    """A square, a 1xN or Nx1 bar, a single pixel or the full frame, placed
    at (top, left) and clipped by the frame (so it often touches it)."""
    mask = np.zeros((height, width), dtype=bool)
    if kind == "full":
        mask[:] = True
        return mask
    rows, cols = {"square": (size, size), "row_bar": (1, size), "column_bar": (size, 1),
                  "pixel": (1, 1)}[kind]
    top, left = min(top, height - 1), min(left, width - 1)
    mask[top:top + rows, left:left + cols] = True
    return mask


class TestInscribedCropped:
    """``inscribed_circle`` scores the ridge of the inner-boundary EDT
    against the ring of background around the foreground's bounding box;
    center and radius must equal the full-frame construction exactly."""

    @pytest.mark.parametrize("name", sorted(edge_case_masks()))
    def test_equals_full_frame_on_edge_cases(self, name):
        mask = edge_case_masks()[name]
        got = inscribed(mask)
        want = inscribed_circle_full_frame(mask)
        assert got.center == want.center and got.radius == want.radius

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000), height=st.integers(1, 30),
           width=st.integers(1, 30))
    def test_equals_full_frame_on_random_boxes(self, seed, height, width):
        mask = random_boxes_mask(np.random.default_rng(seed), height, width)
        assume(mask.any())
        got = inscribed(mask)
        want = inscribed_circle_full_frame(mask)
        assert got.center == want.center and got.radius == want.radius

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["square", "row_bar", "column_bar", "pixel", "full"]),
           height=st.integers(1, 40), width=st.integers(1, 40), top=st.integers(0, 40),
           left=st.integers(0, 40), size=st.integers(1, 40))
    def test_equals_full_frame_on_tie_heavy_shapes(self, kind, height, width, top, left,
                                                   size):
        # every pixel of a bar is a ridge candidate, and a square ties across
        # its whole center; the first maximum in row-major order must win
        mask = _tie_heavy_mask(kind, height, width, top, left, size)
        got = inscribed(mask)
        want = inscribed_circle_full_frame(mask)
        assert got.center == want.center and got.radius == want.radius

    def test_long_ridge_is_scored_in_chunks(self, monkeypatch):
        # a 1 x 600 bar: 600 candidates against a ring of 1202 pixels
        monkeypatch.setattr("contourflow.autoinit._CHUNK", 4096)
        mask = np.zeros((3, 600), dtype=bool)
        mask[1] = True
        got = inscribed(mask)
        want = inscribed_circle_full_frame(mask)
        assert got.center == want.center == (0.0, 1.0) and got.radius == want.radius == 1.0


class TestCircumscribed:
    def test_single_pixel(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[3, 5] = True
        circle = circumscribed_circle(mask)
        assert circle.center == pytest.approx((5.0, 3.0))
        assert circle.radius == pytest.approx(0.5)

    def test_two_pixels_diameter(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2, 2] = mask[8, 10] = True
        circle = circumscribed_circle(mask)
        d = np.hypot(8.0, 6.0)
        assert circle.radius == pytest.approx(d / 2.0 + 0.5, abs=1e-9)
        assert circle.center == pytest.approx((6.0, 5.0), abs=1e-9)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(15):
            mask = random_blob_mask(rng, 40, 40)
            circle = circumscribed_circle(mask)
            pts = np.argwhere(mask)[:, ::-1].astype(float)  # (u, v)
            want = mec_reference(pts)
            assert abs((circle.radius - 0.5) - want[2]) <= 1e-6
            # all foreground centers are covered
            d = np.hypot(pts[:, 0] - circle.center[0], pts[:, 1] - circle.center[1])
            assert d.max() <= circle.radius - 0.5 + 1e-9

    def test_translation_invariance(self):
        base = np.zeros((40, 40), dtype=bool)
        base[8:16, 6:20] = True
        base[14:22, 10:14] = True
        moved = np.roll(np.roll(base, 7, axis=0), 5, axis=1)
        a = circumscribed_circle(base)
        b = circumscribed_circle(moved)
        assert b.center[0] - a.center[0] == pytest.approx(5.0, abs=1e-9)
        assert b.center[1] - a.center[1] == pytest.approx(7.0, abs=1e-9)
        assert b.radius == pytest.approx(a.radius, abs=1e-9)

    def test_mec_determinism(self, rng):
        pts = rng.uniform(0, 30, size=(40, 2))
        assert minimal_enclosing_circle(pts) == minimal_enclosing_circle(pts)

    def test_mec_collinear_and_duplicate_points(self):
        collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [1.0, 1.0]])
        cu, cv, r = minimal_enclosing_circle(collinear)
        assert r == pytest.approx(np.hypot(1.5, 1.5), abs=1e-9)
        assert (cu, cv) == pytest.approx((1.5, 1.5), abs=1e-9)
        repeated = np.array([[2.0, 5.0]] * 4)
        assert minimal_enclosing_circle(repeated) == (2.0, 5.0, 0.0)


_coords = st.integers(-40, 40)


@st.composite
def duplicate_heavy_points(draw):
    """Integer points drawn with repetition from a pool of at most six."""
    pool = draw(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60))
    return np.array([pool[i] for i in picks], dtype=np.float64)


@st.composite
def collinear_points(draw):
    u0, v0, du, dv = draw(st.tuples(_coords, _coords, st.integers(-5, 5), st.integers(-5, 5)))
    steps = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=40))
    return np.array([(u0 + t * du, v0 + t * dv) for t in steps], dtype=np.float64)


@st.composite
def cocircular_points(draw):
    """Integer points exactly on one circle (u² + v² = r² has many integer
    solutions for these r²) about an integer or half-integer center, or a
    disk's boundary pixels, which lie on or near one."""
    if draw(st.booleans()):
        width = draw(st.integers(3, 64))
        height = draw(st.integers(3, 64))
        center = (draw(st.floats(0.0, width - 1.0)), draw(st.floats(0.0, height - 1.0)))
        mask = disk_mask(width, height, center, draw(st.floats(0.5, 30.0)))
        assume(mask.any())
        return boundary_pixels(mask).astype(np.float64)
    r2 = draw(st.sampled_from([25, 50, 65, 325, 1105]))
    root = int(np.sqrt(r2))
    ring = [(u, v) for u in range(-root, root + 1) for v in range(-root, root + 1)
            if u * u + v * v == r2]
    ring = draw(st.lists(st.sampled_from(ring), min_size=1, max_size=3 * len(ring)))
    cu, cv = draw(st.tuples(_coords, _coords))
    half = 0.5 * draw(st.integers(0, 1))
    return np.array([(cu + half + u, cv + half + v) for u, v in ring], dtype=np.float64)


class TestEnclosingCircleOracle:
    """``minimal_enclosing_circle`` makes the decisions and floats of the
    all-``np.hypot`` Welzl construction kept as the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(points=st.one_of(
        duplicate_heavy_points(), collinear_points(), cocircular_points(),
        st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1,
                 max_size=30).map(np.array)))  # scattered, or a single point
    def test_equals_oracle(self, points):
        assert minimal_enclosing_circle(points) == minimal_enclosing_circle_reference(points)

    @pytest.mark.parametrize("size", [64, 128])
    def test_equals_oracle_on_the_suite(self, size):
        for fixture in suite(size):
            for points in (boundary_pixels(fixture.mask), np.argwhere(fixture.mask)[:, ::-1]):
                points = points.astype(np.float64)
                assert (minimal_enclosing_circle(points)
                        == minimal_enclosing_circle_reference(points)), fixture.name


def circle_bits(circle) -> bytes:
    return struct.pack("3d", *circle)


class TestEnclosingCircleCases:
    """The circle's bits, sign of zero included, equal the oracle's where the
    bounds carried by each circle, the zero-radius test and the one-``hypot``
    diameter take over from the oracle's ``np.hypot`` calls."""

    @pytest.mark.parametrize("points", [
        [(2.0, 5.0)],  # one point
        [(-0.0, 0.0)],
        [(1.0, 2.0), (4.0, 6.0)],  # two points
        [(3.0, 3.0), (3.0, 3.0), (3.0, 3.0), (1.0, 3.0), (1.0, 3.0)],  # duplicates
        [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)],  # signed zeros only
        [(-0.0, 0.0), (-0.0, 4.0), (3.0, -0.0), (-0.0, -0.0), (3.0, 4.0)],
        [(float(t), 2.0 * t - 1.0) for t in range(-6, 9)],  # a collinear run
        [(float(t % 5), 0.0) for t in range(23)] + [(2.0, 0.0), (4.0, 0.0)],
        [(0.1, 0.2), (0.7, 0.3)],  # the center's offsets are not mirror images
        [(0.1, 0.2), (0.7, 0.3), (0.35, 0.9), (1e-3, 1.7), (0.2, -0.4)],
        [(1e-170, 0.0), (3e-170, 2e-170), (0.0, 1e-170)],  # squares below the band's range
        [(0.0, 0.0), (5e-324, 0.0)],  # a zero radius, then a subnormal step
    ])
    def test_equals_oracle(self, points):
        points = np.array(points, dtype=np.float64)
        assert (circle_bits(minimal_enclosing_circle(points))
                == circle_bits(minimal_enclosing_circle_reference(points)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
                    min_size=1, max_size=40))
    def test_equals_oracle_on_non_integer_floats(self, points):
        points = np.array(points, dtype=np.float64)
        assert (circle_bits(minimal_enclosing_circle(points))
                == circle_bits(minimal_enclosing_circle_reference(points)))

    def test_order_is_the_seeded_shuffle(self):
        """The cached order is the one ``random.Random(0x5EED).shuffle`` gives."""
        for count in (1, 2, 57, 400):
            order = list(range(count))
            random.Random(0x5EED).shuffle(order)
            assert _shuffled(count).tolist() == order

    @pytest.mark.parametrize("points", [[], np.zeros((0, 2))], ids=["list", "array"])
    def test_no_points_refused(self, points):
        with pytest.raises(ValueError) as raised:
            minimal_enclosing_circle(points)
        assert str(raised.value) == "need at least one point"


class TestIterativeFit:
    def test_disk_close_to_exact(self):
        mask = disk_mask(64, 64, (31.0, 33.0), 11.0)
        for mode, exact in (("inscribed", inscribed(mask)),
                            ("circumscribed", circumscribed_circle(mask))):
            fit = iterative_circle_fit(mask, mode)
            assert abs(fit.radius - exact.radius) <= 1.0
            assert abs(fit.center[0] - exact.center[0]) <= 1.0
            assert abs(fit.center[1] - exact.center[1]) <= 1.0

    def test_inscribed_never_exceeds_exact_by_much(self, rng):
        for _ in range(50):
            mask = random_blob_mask(rng, 32, 32)
            fit = iterative_circle_fit(mask, "inscribed")
            exact = inscribed(mask)
            assert fit.radius <= exact.radius + 0.5

    def test_circumscribed_never_falls_below_exact_by_much(self, rng):
        for _ in range(50):
            mask = random_blob_mask(rng, 32, 32)
            fit = iterative_circle_fit(mask, "circumscribed")
            exact = circumscribed_circle(mask)
            assert fit.radius >= exact.radius - 0.5

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            iterative_circle_fit(np.ones((4, 4), dtype=bool), "bogus")


class TestCircleToContour:
    def test_four_node_square(self):
        from contourflow.fields import Circle
        contour = circle_to_contour(Circle((5.0, 5.0), 1.0), 4, 16, 16)
        want = np.array([[6.0, 5.0], [5.0, 6.0], [4.0, 5.0], [5.0, 4.0]])
        assert np.allclose(contour.nodes, want, atol=1e-12)

    def test_perimeter_approaches_circle(self):
        from contourflow.fields import Circle
        r = 9.0
        contour = circle_to_contour(Circle((32.0, 32.0), r), 60, 64, 64)
        want = 2 * 60 * r * np.sin(np.pi / 60)
        assert perimeter(contour.nodes) == pytest.approx(want, abs=1e-9)
        assert abs(perimeter(contour.nodes) - 2 * np.pi * r) <= 0.005 * 2 * np.pi * r

    def test_clamped_near_corner(self):
        from contourflow.fields import Circle
        contour = circle_to_contour(Circle((2.0, 2.0), 6.0), 24, 16, 16)
        assert contour.nodes.min() >= 0.0
        assert contour.nodes.max() <= 15.0

    def test_orientation_positive(self):
        from contourflow.fields import Circle
        contour = circle_to_contour(Circle((8.0, 8.0), 3.0), 12, 16, 16)
        assert contour.area > 0

    @pytest.mark.parametrize("count", [2, 0])
    def test_fewer_than_three_nodes_refused(self, count):
        from contourflow.fields import Circle
        with pytest.raises(ValueError) as raised:
            circle_to_contour(Circle((8.0, 8.0), 3.0), count, 16, 16)
        assert str(raised.value) == "a contour needs at least 3 nodes"


class TestContainmentInvariants:
    def test_inscribed_raster_inside_mask_band(self, rng):
        for _ in range(10):
            mask = random_blob_mask(rng, 48, 48)
            contour = circle_to_contour(inscribed(mask), 60, 48, 48)
            raster = rasterize(contour, 48, 48)
            assert not (raster & ~dilate8(mask)).any()

    def test_mask_inside_circumscribed_raster_band(self, rng):
        for _ in range(10):
            mask = random_blob_mask(rng, 48, 48)
            contour = circle_to_contour(circumscribed_circle(mask), 60, 48, 48)
            raster = rasterize(contour, 48, 48)
            assert not (mask & ~dilate8(raster)).any()
