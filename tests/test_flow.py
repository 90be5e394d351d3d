import numpy as np
import pytest

from contourflow.edt import edt_from_sites, mask_to_dt
from contourflow.fields import boundary_mask
from contourflow.flow import clip_vectors, dvf, energy_gradient_field, lcdvf
from contourflow.shapes import random_blob_mask

from conftest import site_mask
from oracles import clip_vectors_masked


def radial_dt(width=11, height=11, center=(5.0, 5.0)):
    return edt_from_sites(site_mask([center], width, height))


class TestDvf:
    def test_points_toward_single_seed(self):
        field = dvf(radial_dt(), clip_norm=np.inf)
        assert np.allclose(field.vectors[5, 9], (-1.0, 0.0), atol=1e-12)
        assert np.allclose(field.vectors[9, 5], (0.0, -1.0), atol=1e-12)

    def test_flat_ridge_cancels(self):
        # medial pixel between two seeds: symmetric central difference is zero
        dist = edt_from_sites(site_mask([(1, 3), (5, 3)], 7, 7))
        field = dvf(dist, clip_norm=np.inf)
        assert abs(field.vectors[3, 3, 0]) < 1e-12

    def test_descent_along_force_direction(self, rng):
        for _ in range(10):
            mask = random_blob_mask(rng, 32, 32)
            dist = mask_to_dt(mask)
            field = dvf(dist, clip_norm=np.inf)
            mag = np.hypot(field.vectors[..., 0], field.vectors[..., 1])
            for v in range(1, 31):
                for u in range(1, 31):
                    if dist[v, u] == 0.0 or mag[v, u] < 1e-9:
                        continue
                    du, dv = field.vectors[v, u] / mag[v, u]
                    nu, nv = u + int(round(du)), v + int(round(dv))
                    assert dist[nv, nu] <= dist[v, u] + 1e-9


class TestLcdvf:
    def test_zero_exactly_on_boundary(self, rng):
        mask = random_blob_mask(rng, 32, 32)
        dist = mask_to_dt(mask)
        field = lcdvf(dist, clip_norm=np.inf)
        border = boundary_mask(mask)
        mag = np.hypot(field.vectors[..., 0], field.vectors[..., 1])
        assert mag[border].max() == 0.0

    def test_magnitude_scales_with_distance(self):
        field = lcdvf(radial_dt(), clip_norm=np.inf)
        # 3 px right of the seed: magnitude 3, pointing back at the seed
        assert np.allclose(field.vectors[5, 8], (-3.0, 0.0), atol=1e-9)

    def test_equals_distance_times_unit_flow(self, rng):
        for _ in range(50):
            mask = random_blob_mask(rng, 24, 24)
            dist = mask_to_dt(mask)
            scaled = lcdvf(dist, clip_norm=np.inf).vectors
            unit = dvf(dist, clip_norm=np.inf).vectors
            assert np.abs(scaled - dist[..., None] * unit).max() <= 1e-12

    def test_potential_is_half_squared_distance(self):
        dist = radial_dt()
        field = lcdvf(dist, clip_norm=np.inf)
        assert np.allclose(field.potential, 0.5 * dist * dist, atol=0)


class TestEnergyGradient:
    def test_constant_energy_zero_force(self):
        field = energy_gradient_field(np.full((8, 8), 4.0), clip_norm=np.inf)
        assert np.abs(field.vectors).max() == 0.0

    def test_ramp_energy_unit_force(self):
        energy = np.tile(np.arange(10.0), (10, 1))
        field = energy_gradient_field(energy, clip_norm=np.inf)
        assert np.allclose(field.vectors[1:-1, 1:-1, 0], -1.0, atol=1e-12)
        assert np.allclose(field.vectors[1:-1, 1:-1, 1], 0.0, atol=1e-12)

    def test_half_squared_dt_matches_scaled_flow_where_planar(self):
        # straight boundary: the distance field is planar away from the
        # medial ridge, so the chain-rule identity holds to round-off
        mask = np.zeros((20, 20), dtype=bool)
        mask[:, :10] = True
        dist = mask_to_dt(mask)
        from_energy = energy_gradient_field(0.5 * dist * dist, clip_norm=np.inf).vectors
        scaled = lcdvf(dist, clip_norm=np.inf).vectors
        # rows away from top/bottom borders, columns near the u=9 boundary
        # and away from the u in {0, 9} medial/boundary kinks
        region = np.s_[5:15, 11:18]
        assert np.abs(from_energy[region] - scaled[region]).max() <= 1e-6


class TestClipping:
    def test_no_vector_exceeds_clip(self, rng):
        mask = random_blob_mask(rng, 32, 32)
        for field in (dvf(mask_to_dt(mask), 2.0), lcdvf(mask_to_dt(mask), 2.0)):
            mag = np.hypot(field.vectors[..., 0], field.vectors[..., 1])
            assert mag.max() <= 2.0 + 1e-12

    def test_clip_preserves_direction(self):
        vecs = np.array([[[3.0, 4.0]]])
        clipped = clip_vectors(vecs, 1.0)
        assert np.allclose(clipped, [[[0.6, 0.8]]], atol=1e-12)

    def test_equals_masked_clip(self, rng):
        vecs = rng.normal(size=(40, 30, 2)) * 2.0
        vecs[0, 0] = (0.0, 0.0)
        vecs[1, 1] = (1.2, -1.6)  # exactly at the clip norm 2: left as it is
        vecs[2, 2] = (-0.0, 3.0)
        for clip in (0.5, 2.0, 100.0, np.inf):
            scaled = vecs.copy()
            got, want = clip_vectors(scaled, clip), clip_vectors_masked(vecs, clip)
            assert got is scaled  # in place
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_lcdvf_equals_the_former_construction(self, rng):
        dt = mask_to_dt(random_blob_mask(rng, 40, 32))
        gradient = np.stack([np.gradient(dt, axis=1), np.gradient(dt, axis=0)], axis=-1)
        field = lcdvf(dt, 2.0)
        want = clip_vectors_masked(-dt[..., None] * gradient, 2.0)
        assert field.vectors.tobytes() == want.tobytes()
        assert field.potential.tobytes() == (0.5 * dt * dt).tobytes()

    def test_invalid_clip_rejected(self):
        with pytest.raises(ValueError):
            clip_vectors(np.zeros((2, 2, 2)), 0.0)

    def test_boundary_stability_contrast(self, rng):
        # the scaled flow vanishes on the boundary; the unit flow stays
        # strong right next to it
        mask = random_blob_mask(rng, 32, 32)
        dist = mask_to_dt(mask)
        border = boundary_mask(mask)
        scaled = lcdvf(dist, clip_norm=2.0)
        unit = dvf(dist, clip_norm=2.0)
        mag_scaled = np.hypot(scaled.vectors[..., 0], scaled.vectors[..., 1])
        mag_unit = np.hypot(unit.vectors[..., 0], unit.vectors[..., 1])
        assert mag_scaled[border].max() == 0.0
        near = np.pad(border, 1)[2:, 1:-1] | np.pad(border, 1)[:-2, 1:-1] \
            | np.pad(border, 1)[1:-1, 2:] | np.pad(border, 1)[1:-1, :-2]
        near &= ~border
        assert mag_unit[near].max() >= 0.5
