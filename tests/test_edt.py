import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from contourflow.edt import edt_from_sites, mask_to_dt
from contourflow.fields import boundary_mask, boundary_pixels
from contourflow.flow import lcdvf
from contourflow.shapes import disk_mask, random_blob_mask

from conftest import site_mask
from oracles import edt_brute


def brute_from_sites(sites):
    height, width = sites.shape
    vv, uu = np.nonzero(sites)
    return edt_brute(np.stack([uu, vv], axis=1), width, height)


class TestBrute:
    def test_single_corner_seed(self):
        got = edt_brute([(0, 0)], 3, 3)
        want = np.array([
            [0.0, 1.0, 2.0],
            [1.0, np.sqrt(2.0), np.sqrt(5.0)],
            [2.0, np.sqrt(5.0), 2.0 * np.sqrt(2.0)],
        ])
        assert np.allclose(got, want, atol=1e-12)

    def test_all_pixels_seeded(self):
        seeds = [(u, v) for u in range(4) for v in range(4)]
        assert np.array_equal(edt_brute(seeds, 4, 4), np.zeros((4, 4)))

    def test_two_opposite_corners(self):
        got = edt_brute([(0, 0), (4, 4)], 5, 5)
        for v in range(5):
            for u in range(5):
                want = min(np.hypot(u, v), np.hypot(u - 4, v - 4))
                assert got[v, u] == pytest.approx(want, abs=1e-12)

    def test_empty_boundary_rejected(self):
        with pytest.raises(ValueError, match="no boundary"):
            edt_brute([], 4, 4)

    def test_out_of_image_seed_rejected(self):
        with pytest.raises(ValueError):
            edt_brute([(5, 0)], 4, 4)


class TestExact:
    def test_matches_brute_on_small_cases(self):
        for seeds in ([(0, 0)], [(0, 0), (4, 4)], [(2, 1), (0, 3), (4, 0)]):
            assert np.array_equal(edt_from_sites(site_mask(seeds, 5, 5)), edt_brute(seeds, 5, 5))

    def test_matches_brute_on_random_masks(self, rng):
        for _ in range(30):
            mask = random_blob_mask(rng, 48, 48)
            seeds = boundary_pixels(mask)
            got = edt_from_sites(boundary_mask(mask))
            want = edt_brute(seeds, 48, 48)
            assert np.array_equal(got, want)

    def test_disk_interior_max_at_center(self):
        mask = disk_mask(49, 49, (24.0, 24.0), 15.0)
        dist = edt_from_sites(boundary_mask(mask))
        v, u = np.unravel_index(np.argmax(np.where(mask, dist, -1.0)), dist.shape)
        assert abs(u - 24) <= 1 and abs(v - 24) <= 1

    def test_wide_and_flat_fields(self):
        # exercises the column pass (height 1) and envelope pass (width 1)
        assert np.allclose(edt_from_sites(site_mask([(3, 0)], 8, 1)),
                           np.abs(np.arange(8.0) - 3.0)[None, :])
        assert np.allclose(edt_from_sites(site_mask([(0, 5)], 1, 8)),
                           np.abs(np.arange(8.0) - 5.0)[:, None])


class TestMaskToDt:
    def test_single_foreground_pixel(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[3, 3] = True
        dist = mask_to_dt(mask)
        uu, vv = np.meshgrid(np.arange(7.0), np.arange(7.0))
        assert np.allclose(dist, np.hypot(uu - 3, vv - 3), atol=1e-12)

    def test_half_plane_distance_is_column_distance(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[:, :10] = True  # boundary columns are u=0 and u=9
        dist = mask_to_dt(mask)
        for v in range(8, 12):  # rows far from the top/bottom borders
            for u in range(20):
                want = min(abs(u - 0), abs(u - 9))
                assert dist[v, u] == pytest.approx(want, abs=1e-12)

    def test_zero_on_boundary_positive_elsewhere(self, rng):
        mask = random_blob_mask(rng, 40, 40)
        dist = mask_to_dt(mask)
        border = boundary_mask(mask)
        assert dist[border].max() == 0.0
        assert dist[~border].min() > 0.0

    def test_unsigned_same_inside_and_outside(self):
        mask = disk_mask(41, 41, (20.0, 20.0), 8.0)
        dist = mask_to_dt(mask)
        assert dist[20, 20] > 0  # inside
        assert dist[20, 0] > 0   # outside

    def test_empty_and_full_masks_rejected(self):
        with pytest.raises(ValueError):
            mask_to_dt(np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            mask_to_dt(np.ones((4, 4), dtype=bool))


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_lipschitz_on_8_neighborhood(self, seed):
        mask = random_blob_mask(np.random.default_rng(seed), 32, 32)
        dist = mask_to_dt(mask)
        h, w = dist.shape
        for dv, du in ((0, 1), (1, 0), (1, 1), (1, -1)):
            a = dist[max(dv, 0): h + min(dv, 0), max(du, 0): w + min(du, 0)]
            b = dist[max(-dv, 0): h + min(-dv, 0), max(-du, 0): w + min(-du, 0)]
            assert np.abs(a - b).max() <= np.hypot(du, dv) + 1e-9

    def test_adding_seed_never_increases(self, rng):
        for _ in range(10):
            mask = random_blob_mask(rng, 32, 32)
            seeds = boundary_mask(mask)
            base = edt_from_sites(seeds)
            extra_u = int(rng.integers(0, 32))
            extra_v = int(rng.integers(0, 32))
            grown = seeds.copy()
            grown[extra_v, extra_u] = True
            assert (edt_from_sites(grown) <= base + 1e-12).all()


def _column_pattern():
    # row 0 is all sites and row 7 has one at the right end, so the vertical
    # distances of rows 4..7 drop sharply in the last column: those rows pop
    # 2, 4, 5 and 6 parabolas in that one column step while rows 0..3 pop none
    sites = np.zeros((8, 12), dtype=bool)
    sites[0, :] = True
    sites[7, 11] = True
    return sites


@st.composite
def site_masks(draw):
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    sites = draw(arrays(np.bool_, (height, width), elements=st.booleans()))
    # clear some columns so their squared distances stay at infinity
    for col in draw(st.sets(st.integers(0, width - 1), max_size=width)):
        sites[:, col] = False
    sites[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    return sites


class TestLockstepEnvelope:
    @settings(max_examples=150, deadline=None)
    @given(sites=site_masks())
    @example(sites=np.ones((1, 1), dtype=bool))
    @example(sites=site_mask([(0, 0), (6, 0), (30, 0)], 37, 1))  # 1 x n
    @example(sites=site_mask([(0, 4), (0, 21)], 1, 29))  # n x 1
    @example(sites=site_mask([(17, 23)], 40, 40))  # a single site
    @example(sites=np.ones((13, 40), dtype=bool))  # every pixel a site
    @example(sites=site_mask([(2, 0), (2, 9), (7, 5)], 12, 10))  # site-free columns
    @example(sites=_column_pattern())
    # row 0 reads 9, 9, 9, 9, 0: column 4 pops it below the breakpoint 2.5
    # it wrote at column 3, which stays behind in z above the final top
    @example(sites=site_mask([(0, 3), (1, 3), (2, 3), (3, 3), (4, 0)], 5, 4))
    @example(sites=site_mask([(0, 0), (4, 0)], 5, 1))  # a breakpoint exactly at column 2
    # row 0 reads 100, 0, 0, 100: breakpoints -49.5 and 52.5 lie outside the frame
    @example(sites=site_mask([(0, 10), (1, 0), (2, 0), (3, 10)], 4, 11))
    def test_equals_brute_oracle(self, sites):
        assert np.array_equal(edt_from_sites(sites), brute_from_sites(sites))

    def test_empty_site_mask_rejected(self):
        with pytest.raises(ValueError, match="no boundary"):
            edt_from_sites(np.zeros((4, 5), dtype=bool))


@st.composite
def banded_site_masks(draw):
    """Sites confined to a narrow column band, with site-free columns left
    and right of it and some cleared inside it."""
    height = draw(st.integers(1, 30))
    width = draw(st.integers(3, 60))
    c0 = draw(st.integers(1, width - 2))
    c1 = draw(st.integers(c0 + 1, min(c0 + 6, width - 1)))
    sites = np.zeros((height, width), dtype=bool)
    sites[:, c0:c1] = draw(arrays(np.bool_, (height, c1 - c0), elements=st.booleans()))
    for col in draw(st.sets(st.integers(c0, c1 - 1), max_size=c1 - c0)):
        sites[:, col] = False
    sites[draw(st.integers(0, height - 1)), draw(st.integers(c0, c1 - 1))] = True
    return sites


class TestSiteColumnSpan:
    """The column pass and the envelope build run over the sites' column
    span only; the read-out over every column must still be exact."""

    @settings(max_examples=150, deadline=None)
    @given(sites=banded_site_masks())
    @example(sites=site_mask([(1, 0)], 3, 1))  # 1 x n, one free column each side
    @example(sites=site_mask([(20, 0), (20, 9)], 41, 10))  # one column in the middle
    @example(sites=site_mask([(5, 2), (9, 7)], 30, 12))  # a band with a free inner column
    # the three read-out cases of TestLockstepEnvelope, one column to the right
    @example(sites=site_mask([(1, 3), (2, 3), (3, 3), (4, 3), (5, 0)], 7, 4))  # popped entry
    @example(sites=site_mask([(1, 0), (5, 0)], 7, 1))  # a breakpoint exactly at column 3
    @example(sites=site_mask([(1, 10), (2, 0), (3, 0), (4, 10)], 6, 11))  # -48.5 and 53.5
    def test_equals_brute_oracle(self, sites):
        assert np.array_equal(edt_from_sites(sites), brute_from_sites(sites))


@st.composite
def site_stacks(draw):
    """A (K, H, W) stack of site masks, each confined to its own column
    span, so the union's first columns are often site-free in some masks."""
    count = draw(st.integers(1, 4))
    height = draw(st.integers(1, 16))
    width = draw(st.integers(1, 30))
    stack = np.zeros((count, height, width), dtype=bool)
    for sites in stack:
        c0 = draw(st.integers(0, width - 1))
        c1 = draw(st.integers(c0 + 1, width))
        sites[:, c0:c1] = draw(arrays(np.bool_, (height, c1 - c0), elements=st.booleans()))
        sites[draw(st.integers(0, height - 1)), draw(st.integers(c0, c1 - 1))] = True
    return stack


class TestStackedTransform:
    """A (K, H, W) stack is transformed in one call, over the union of its
    masks' site columns; each slice equals its mask's own transform."""

    @settings(max_examples=150, deadline=None)
    @given(stack=site_stacks())
    # disjoint spans: the second mask is _FAR at the union's first column
    @example(stack=np.stack([site_mask([(1, 2)], 12, 5), site_mask([(10, 0), (11, 4)], 12, 5)]))
    # the first mask's span starts last, one site column at the right end
    @example(stack=np.stack([site_mask([(11, 3)], 12, 5), site_mask([(0, 1), (3, 4)], 12, 5)]))
    @example(stack=np.stack([_column_pattern(), np.fliplr(_column_pattern())]))
    def test_equals_each_mask_alone(self, stack):
        got = edt_from_sites(stack)
        assert got.shape == stack.shape
        for plane, sites in zip(got, stack):
            assert np.array_equal(plane, edt_from_sites(sites))

    def test_blobs_left_and_right(self):
        masks = np.stack([disk_mask(48, 32, (8.0, 12.0), 5.0),
                          disk_mask(48, 32, (39.0, 20.0), 6.0)])
        got = mask_to_dt(masks)
        for plane, mask in zip(got, masks):
            assert np.array_equal(plane, mask_to_dt(mask))
            assert np.array_equal(plane, brute_from_sites(boundary_mask(mask)))

    def test_random_blob_stack(self, rng):
        masks = np.stack([random_blob_mask(rng, 40, 40) for _ in range(5)])
        for plane, mask in zip(mask_to_dt(masks), masks):
            assert np.array_equal(plane, mask_to_dt(mask))

    def test_one_mask_without_a_transform_fails_the_stack(self):
        disk = disk_mask(16, 16, (8.0, 8.0), 4.0)
        with pytest.raises(ValueError, match="no boundary"):
            edt_from_sites(np.stack([boundary_mask(disk), np.zeros((16, 16), dtype=bool)]))
        for bad in (np.zeros((16, 16), dtype=bool), np.ones((16, 16), dtype=bool)):
            with pytest.raises(ValueError, match="one foreground and one background"):
                mask_to_dt(np.stack([disk, bad]))


class TestBenchmarkScale:
    """Inputs of the size the CLI feeds the transform, with deep envelope
    stacks and columns that pop several parabolas."""

    def test_blobs_at_128_equal_brute(self):
        rng = np.random.default_rng(128)
        for _ in range(4):
            sites = boundary_mask(random_blob_mask(rng, 128, 128))
            assert np.array_equal(edt_from_sites(sites), brute_from_sites(sites))

    def test_four_mask_stack_at_64_equals_brute(self):
        # the stack that cli._share_dts hands to mask_to_dt for a batch group
        rng = np.random.default_rng(64)
        masks = np.stack([random_blob_mask(rng, 64, 64) for _ in range(4)])
        for plane, mask in zip(mask_to_dt(masks), masks):
            assert np.array_equal(plane, brute_from_sites(boundary_mask(mask)))


class TestLayout:
    """Results are C-contiguous float64 frames: the solver reads the force
    stack with ``reshape(-1)``, which copies a transposed array every step."""

    @staticmethod
    def assert_c_float64(*arrays):
        for array in arrays:
            assert array.dtype == np.float64 and array.flags.c_contiguous

    def test_transform_and_field(self, rng):
        mask = random_blob_mask(rng, 48, 40)
        self.assert_c_float64(edt_from_sites(boundary_mask(mask)), mask_to_dt(mask))
        field = lcdvf(mask_to_dt(mask))
        self.assert_c_float64(field.vectors, field.potential)
        # one site column, 1 x n and n x 1 frames
        for sites in (site_mask([(3, 0), (3, 6)], 8, 7), site_mask([(2, 0)], 5, 1),
                      site_mask([(0, 3)], 1, 6)):
            self.assert_c_float64(edt_from_sites(sites))

    def test_each_slice_of_a_stack(self, rng):
        masks = np.stack([random_blob_mask(rng, 40, 40) for _ in range(3)])
        self.assert_c_float64(*edt_from_sites(np.stack([boundary_mask(m) for m in masks])))
        self.assert_c_float64(*mask_to_dt(masks))


class TestMemoryBound:
    @pytest.mark.parametrize("size", [256, 512])
    def test_peak_within_four_and_a_half_frames(self, size):
        rng = np.random.default_rng(size)
        for _ in range(3):
            sites = boundary_mask(random_blob_mask(rng, size, size))
            tracemalloc.start()
            try:
                edt_from_sites(sites)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4.5 * sites.size * 8
