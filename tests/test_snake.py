import functools
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from contourflow import blas, snake as snake_module
from contourflow.autoinit import circle_to_contour, circumscribed_circle, inscribed_circle
from contourflow.edt import mask_to_dt
from contourflow.fields import (DEGENERATE_AREA, Box, Circle, Contour, clamp_to_frame,
                                corner_box, rasterize)
from contourflow.flow import ForceField, lcdvf
from contourflow.shapes import disk_mask, random_blob_mask, u_shape_mask
from contourflow.snake import (EvolutionTrace, EvolveError, LeftBox, ParameterSet, SnakeConfig,
                               StepPlan, _system_matrix, contour_energies, difference_operators,
                               evolve, evolve_step)

import oracles
from oracles import (assemble_internal_system, balloon_force, bilinear_sample_reference,
                     displacements_reference, energies_reference, energy_eval,
                     evolve_reference, evolve_step_reference, fd_gradient, internal_system,
                     perimeter, rasterize_reference)
from conftest import evolve_one, random_star_polygon


def uniform_params(width, height, alpha=0.0, beta=0.0, kappa=0.0):
    return ParameterSet.uniform(width, height, alpha=alpha, beta=beta, kappa=kappa)


def square_contour(side, center=(10.0, 10.0)):
    h = side / 2.0
    return Contour(np.array([
        [center[0] - h, center[1] - h],
        [center[0] + h, center[1] - h],
        [center[0] + h, center[1] + h],
        [center[0] - h, center[1] + h],
    ]))


def zero_force(width, height):
    return ForceField(np.zeros((height, width, 2)), np.zeros((height, width)))


def step_stack(nodes, vectors, params, config, running=None):
    """One ``evolve_step`` of a (K, n, 2) node stack in the frame, on the
    ``StepPlan`` that ``evolve`` builds for it: contour k reads force slot
    ``running[k]`` (k when not given) of a stack of more than one."""
    running = range(len(nodes)) if running is None else running
    plan = StepPlan(running, nodes.shape[1], vectors, params, None)
    return evolve_step(nodes, vectors, params, config, plan)


def step_one(contour, force, params, config):
    """The new nodes of one contour after one ``evolve_step``."""
    return step_stack(contour.nodes[None], force.vectors[None], params, config)[0]


class TestEnergyEval:
    def test_square_continuity_energy(self):
        contour = square_contour(3.0)
        params = uniform_params(20, 20, alpha=0.7)
        got = energy_eval(contour, np.zeros((20, 20)), params)
        assert got == pytest.approx(4 * 0.7 * 9.0, abs=1e-12)

    def test_all_zero_weights_zero_energy(self, rng):
        contour = Contour(random_star_polygon(rng))
        params = uniform_params(32, 32)
        assert energy_eval(contour, np.zeros((32, 32)), params) == 0.0

    def test_region_term_counts_rasterized_pixels(self):
        contour = square_contour(3.0, center=(8.0, 8.0))
        c = 0.35
        params = uniform_params(16, 16, kappa=c)
        want = c * rasterize_reference(contour.nodes, 16, 16).sum()
        assert energy_eval(contour, np.zeros((16, 16)), params) == pytest.approx(want)

    def test_degenerate_contour_internal_terms_only(self):
        flat = Contour(np.array([[2.0, 2.0], [6.0, 2.0], [10.0, 2.0]]))
        params = uniform_params(16, 16, alpha=1.0, kappa=5.0)
        # region term must vanish; continuity sums the collinear hops
        want = (16.0 + 16.0 + 64.0)
        assert energy_eval(flat, np.zeros((16, 16)), params) == pytest.approx(want)


    def test_external_map_must_match_parameter_maps(self):
        # one corner lookup serves both maps, so their frames must agree
        params = uniform_params(16, 16, alpha=1.0)
        with pytest.raises(ValueError, match="does not match"):
            energy_eval(square_contour(3.0), np.zeros((16, 20)), params)


class TestContourEnergies:
    """The stacked energies equal scoring each contour on its own (the
    former per-contour loop, ``oracles.energies_reference``) to the bit."""

    @pytest.mark.parametrize("nodes", [3, 60, 100, 257])
    def test_equals_per_contour_reference(self, rng, nodes):
        height, width = 48, 40
        params = ParameterSet(alpha=0.37, beta=rng.uniform(0.0, 2.0, (height, width)),
                              kappa=rng.normal(0.0, 1.0, (height, width)))
        potential = rng.normal(0.0, 3.0, (height, width))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, (6, nodes)), axis=1)
        radii = rng.uniform(2.0, 30.0, (6, nodes))
        contours = [Contour(np.stack([20.0 + r * np.cos(a), 24.0 + r * np.sin(a)], axis=1))
                    for a, r in zip(angles, radii)]  # some nodes fall outside the frame
        line = np.linspace(3.0, 30.0, nodes)
        contours.append(Contour(np.stack([line, line], axis=1)))  # degenerate
        assert contours[-1].is_degenerate
        got = contour_energies(contours, potential, params)
        want = energies_reference(contours, potential, params)
        assert got.shape == (len(contours),)
        assert np.array_equal(got, want)
        for contour, energy in zip(contours, got):
            assert energy_eval(contour, potential, params) == energy

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_stack_equals_reference(self, seed):
        """Degenerate, off-frame and far-apart contours of one node count,
        whose crossing boxes span the frame and leave empty rows between."""
        rng = np.random.default_rng(seed)
        height, width, nodes = 40, 56, 12
        params = ParameterSet(alpha=0.2, beta=rng.uniform(0.0, 1.0, (height, width)),
                              kappa=rng.normal(0.0, 1.0, (height, width)))
        potential = rng.normal(0.0, 2.0, (height, width))
        ring = np.stack([np.cos(2 * np.pi * np.arange(nodes) / nodes),
                         np.sin(2 * np.pi * np.arange(nodes) / nodes)], axis=1)
        centers = [(2.0, 2.0), (53.0, 37.0), (-8.0, 20.0), (70.0, -9.0), (28.0, 45.0)]
        # far apart, partly or wholly off the frame
        radii = rng.uniform(0.5, 6.0, (len(centers), 1, 1)) * rng.uniform(0.7, 1.3, (nodes, 1))
        contours = [Contour(center + radius * ring) for center, radius in zip(centers, radii)]
        line = np.linspace(-3.0, 60.0, nodes)
        contours.append(Contour(np.stack([line, line * 0.5], axis=1)))  # collinear
        bowtie = [[10.0, 10.0], [14.0, 14.0], [14.0, 10.0], [10.0, 14.0]]
        contours.append(Contour(np.tile(bowtie, (nodes // 4, 1))))  # zero net area
        contours.append(Contour(np.full((nodes, 2), 7.25)))  # one point
        rng.shuffle(contours)
        assert sum(contour.is_degenerate for contour in contours) == 3
        assert np.array_equal(contour_energies(contours, potential, params),
                              energies_reference(contours, potential, params))

    def test_peak_memory_at_most_the_per_contour_path(self):
        """At 256², the trace of a medical run (11 contours of 100 nodes)
        allocates no more at its peak than scoring one contour at a time."""
        import tracemalloc
        mask = random_blob_mask(np.random.default_rng(7), 256, 256)
        dt = mask_to_dt(mask)
        force = lcdvf(dt, 2.0)
        params = ParameterSet.uniform(256, 256, alpha=0.01, beta=0.1, kappa=0.2)
        start = circle_to_contour(inscribed_circle(mask, dt), 100, 256, 256)
        _, trace = evolve_one(start, force, params, SnakeConfig(iterations=10))
        peaks = []
        for score in (contour_energies, energies_reference):
            score(trace.contours, force.potential, params)  # warm every cache first
            tracemalloc.start()
            try:
                score(trace.contours, force.potential, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_evolution_trace_equals_reference(self, rng):
        mask = random_blob_mask(rng, 64, 64)
        force = lcdvf(mask_to_dt(mask), 2.0)
        params = ParameterSet(alpha=0.05, beta=rng.uniform(0.0, 0.3, (64, 64)),
                              kappa=rng.uniform(-0.1, 0.4, (64, 64)))
        start = circle_to_contour(circumscribed_circle(mask), 60, 64, 64)
        _, trace = evolve_one(start, force, params, SnakeConfig(iterations=30))
        assert np.array_equal(trace.energies,
                              energies_reference(trace.contours, force.potential, params))


class TestInternalSystem:
    def test_continuity_stencil(self):
        # gradient matrix of alpha*sum|y_{s+1}-y_s|^2: stencil 2a*(-1, 2, -1)
        contour = Contour(random_star_polygon(np.random.default_rng(3), n_lo=8))
        alpha = 0.4
        params = uniform_params(32, 32, alpha=alpha)
        system = assemble_internal_system(contour, params)
        n = len(contour)
        want = np.zeros((n, n))
        idx = np.arange(n)
        want[idx, idx] = 4 * alpha
        want[idx, (idx + 1) % n] = -2 * alpha
        want[idx, (idx - 1) % n] = -2 * alpha
        assert np.allclose(system, want, atol=1e-12)

    def test_curvature_stencil_uniform(self):
        # gradient matrix of b*sum|y_{s+1}-2y_s+y_{s-1}|^2:
        # stencil 2b*(1, -4, 6, -4, 1)
        contour = Contour(random_star_polygon(np.random.default_rng(4), n_lo=9))
        b = 0.25
        params = uniform_params(32, 32, beta=b)
        system = assemble_internal_system(contour, params)
        n = len(contour)
        idx = np.arange(n)
        want = np.zeros((n, n))
        for off, coef in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)):
            want[idx, (idx + off) % n] += 2 * b * coef
        assert np.allclose(system, want, atol=1e-12)

    def test_symmetric_for_varying_beta(self, rng):
        beta = rng.uniform(0.0, 1.0, size=(32, 32))
        params = ParameterSet(alpha=0.1, beta=beta, kappa=np.zeros((32, 32)))
        contour = Contour(random_star_polygon(rng))
        system = assemble_internal_system(contour, params)
        assert np.allclose(system, system.T, atol=1e-12)

    def test_small_node_counts(self):
        for n in (3, 4):
            theta = 2 * np.pi * np.arange(n) / n
            contour = Contour(np.stack([8 + 3 * np.cos(theta), 8 + 3 * np.sin(theta)], axis=1))
            params = uniform_params(16, 16, alpha=0.3, beta=0.2)
            system = assemble_internal_system(contour, params)
            assert system.shape == (n, n)
            assert np.allclose(system, system.T, atol=1e-12)

    def test_matches_fd_gradient_of_internal_energy(self, rng):
        # A @ y equals the gradient of the internal energy with the
        # curvature weights frozen at the current node samples
        for _ in range(5):
            poly = random_star_polygon(rng, center=(16.0, 16.0), r_hi=9.0)
            contour = Contour(poly)
            beta = rng.uniform(0.0, 0.5, size=(32, 32))
            params = ParameterSet(alpha=0.3, beta=beta, kappa=np.zeros((32, 32)))
            frozen_b = bilinear_sample_reference(beta, contour.nodes)

            def internal(flat):
                pts = flat.reshape(-1, 2)
                d1 = np.roll(pts, -1, axis=0) - pts
                d2 = np.roll(pts, -1, axis=0) - 2 * pts + np.roll(pts, 1, axis=0)
                return (0.3 * (d1 * d1).sum()
                        + (frozen_b * (d2 * d2).sum(axis=1)).sum())

            system = assemble_internal_system(contour, params)
            want = fd_gradient(internal, contour.nodes.ravel()).reshape(-1, 2)
            assert np.abs(system @ contour.nodes - want).max() <= 1e-4


class TestBandedSystem:
    """Each step builds I + tau A on the structural nonzeros of its
    difference operators; every float is that of the node-by-node oracle
    ``oracles.internal_system``, whatever the BLAS kernel."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nodes=st.integers(3, 300),
           count=st.integers(1, 12), alpha=st.sampled_from([0.0, 0.01, 0.37, 3.0]),
           tau=st.floats(0.05, 1.0))
    @example(seed=0, nodes=3, count=1, alpha=0.0, tau=0.1)
    @example(seed=1, nodes=4, count=12, alpha=0.37, tau=0.5)
    @example(seed=2, nodes=5, count=2, alpha=0.01, tau=1.0)
    @example(seed=3, nodes=204, count=12, alpha=0.01, tau=0.1)
    @example(seed=4, nodes=252, count=3, alpha=3.0, tau=0.2)
    @example(seed=5, nodes=257, count=1, alpha=0.0, tau=0.3)
    @example(seed=6, nodes=300, count=5, alpha=0.37, tau=0.1)
    def test_equals_the_oracle_byte_for_byte(self, seed, nodes, count, alpha, tau):
        rng = np.random.default_rng(seed)
        # weights across 12 decades, with zeros
        beta = 10.0 ** rng.uniform(-6.0, 6.0, (count, nodes)) * rng.uniform(0.0, 1.0, (count, nodes))
        beta[rng.random((count, nodes)) < 0.2] = 0.0
        got = _system_matrix(beta, alpha, tau)
        assert got.shape == (count, nodes, nodes)
        for k in range(count):
            want = np.eye(nodes) + tau * internal_system(alpha, beta[k])
            assert got[k].tobytes() == want.tobytes()
        # a run's buffer, written by earlier steps of more contours, gives the same bits
        buffer = np.zeros((count + 1) * nodes * nodes)
        _system_matrix(rng.uniform(0.0, 9.0, (count + 1, nodes)), alpha, tau, buffer)
        assert _system_matrix(beta, alpha, tau, buffer).tobytes() == got.tobytes()

    def test_entries_are_the_structural_nonzeros(self):
        for n in range(3, 41):
            idx = np.arange(n)
            d1 = np.zeros((n, n), dtype=np.int64)
            d1[idx, idx] = -1
            d1[idx, (idx + 1) % n] += 1
            d2 = np.zeros((n, n), dtype=np.int64)
            d2[idx, idx] = -2
            d2[idx, (idx + 1) % n] += 1
            d2[idx, (idx - 1) % n] += 1
            dense = np.eye(n, dtype=np.int64) + d1.T @ d1 + d2.T @ d2
            assert np.array_equal(difference_operators(n).entries, np.flatnonzero(dense)), n

    def test_plan_is_cached_and_read_only(self):
        ops = difference_operators(37)
        assert difference_operators(37) is ops
        for array in ops:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            ops.coef[0, 0] = 1.0


class TestBalloon:
    def test_regular_polygon_points_outward(self):
        theta = 2 * np.pi * np.arange(8) / 8
        contour = Contour(np.stack([16 + 5 * np.cos(theta), 16 + 5 * np.sin(theta)], axis=1))
        forces = balloon_force(contour, np.ones((32, 32)))
        radial = contour.nodes - np.array([16.0, 16.0])
        radial /= np.hypot(radial[:, 0], radial[:, 1])[:, None]
        assert np.allclose(np.hypot(forces[:, 0], forces[:, 1]), 1.0, atol=1e-12)
        assert (np.sum(forces * radial, axis=1) > 0.99).all()

    def test_zero_weight_zero_force(self, rng):
        contour = Contour(random_star_polygon(rng))
        assert np.abs(balloon_force(contour, np.zeros((32, 32)))).max() == 0.0

    def test_negative_weight_shrinks_circle(self):
        theta = 2 * np.pi * np.arange(12) / 12
        nodes = np.stack([16 + 6 * np.cos(theta), 16 + 6 * np.sin(theta)], axis=1)
        contour = Contour(nodes)
        forces = balloon_force(contour, np.full((32, 32), -1.0))
        stepped = nodes + 0.5 * forces
        r_before = np.hypot(*(nodes - 16.0).T).mean()
        r_after = np.hypot(*(stepped - 16.0).T).mean()
        assert r_after < r_before

    def test_coincident_neighbors_zero_force(self):
        nodes = np.array([[4.0, 4.0], [6.0, 4.0], [4.0, 4.0], [5.0, 6.0]])
        # node 3's neighbors (indices 2 and 0) coincide: zero tangent there
        forces = balloon_force(Contour(nodes), np.ones((16, 16)))
        assert np.allclose(forces[3], 0.0)


class TestEvolveStep:
    def test_pure_smoothing_shrinks_perimeter(self, rng):
        contour = Contour(random_star_polygon(rng))
        params = uniform_params(32, 32, alpha=0.5)
        stepped = step_one(contour, zero_force(32, 32), params, SnakeConfig(time_step=0.2))
        assert perimeter(stepped) < perimeter(contour.nodes)

    def test_no_weights_pure_translation(self):
        vectors = np.zeros((32, 32, 2))
        vectors[..., 0] = 0.75
        vectors[..., 1] = -0.25
        force = ForceField(vectors, np.zeros((32, 32)))
        contour = square_contour(4.0, center=(16.0, 16.0))
        params = uniform_params(32, 32)
        stepped = step_one(contour, force, params, SnakeConfig(time_step=0.1))
        assert np.allclose(stepped, contour.nodes + 0.1 * np.array([0.75, -0.25]),
                           atol=1e-12)

    def test_step_moves_nodes_toward_disk_boundary(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        dist = mask_to_dt(mask)
        force = lcdvf(dist, clip_norm=2.0)
        theta = 2 * np.pi * np.arange(40) / 40
        contour = Contour(np.stack([32 + 9 * np.cos(theta), 32 + 9 * np.sin(theta)], axis=1))
        params = uniform_params(64, 64)
        stepped = step_one(contour, force, params, SnakeConfig())
        before = bilinear_sample_reference(dist, contour.nodes)
        after = bilinear_sample_reference(dist, stepped)
        assert (after < before).all()

    def test_clamps_to_bounds(self):
        vectors = np.full((16, 16, 2), 100.0)
        force = ForceField(vectors, np.zeros((16, 16)))
        contour = square_contour(4.0, center=(8.0, 8.0))
        stepped = step_one(contour, force, uniform_params(16, 16), SnakeConfig(time_step=1.0))
        assert stepped.max() <= 15.0

    def test_final_clamp_keeps_the_former_clip_bits(self):
        # the step's final clamp, pinned against the np.clip it replaced:
        # that clip has an array upper bound, so it turns -0.0 into +0.0
        height, width = 5, 7
        values = np.array([-0.0, 0.0, -1e-300, -2.5, 3.0, 6.0, 4.0, 6.5, 1e300, -np.inf])
        for count in (1, 3, 8, 33):
            nodes = np.resize(values, (2, count, 2))
            nodes[0, :, 1] = np.resize(values[::-1], count)
            want = np.clip(nodes, 0.0, [width - 1.0, height - 1.0])
            assert clamp_to_frame(nodes.copy(), height, width).tobytes() == want.tobytes()
            clamp_to_frame(nodes, height, width, out=nodes)
            assert nodes.tobytes() == want.tobytes()

        # a step that pushes every node past the top-left corner lands on +0.0
        force = ForceField(np.full((16, 16, 2), -100.0), np.zeros((16, 16)))
        stepped = step_one(square_contour(4.0, center=(8.0, 8.0)), force,
                           uniform_params(16, 16), SnakeConfig(time_step=1.0))
        assert stepped.tobytes() == np.zeros_like(stepped).tobytes()

    def test_strided_force_view_steps_like_its_copy(self, rng):
        # the force components are read as flat lookups; a view with
        # strides of its own must reach the same elements as a copy
        frames = rng.uniform(-2.0, 2.0, size=(3, 40, 60, 2))
        view = frames[:, 1::2, ::3]
        assert not view.flags.c_contiguous
        height, width = view.shape[1:3]
        params = ParameterSet(alpha=0.1, beta=rng.uniform(0.0, 0.5, (height, width)),
                              kappa=rng.uniform(-0.5, 0.5, (height, width)))
        nodes = np.stack([random_star_polygon(rng, center=(10.0, 9.0), r_hi=8.0, n_lo=9, n_hi=9)
                          for _ in range(4)])
        slots = np.array([2, 0, 1, 2])
        got = step_stack(nodes, view, params, SnakeConfig(), slots)
        want = step_stack(nodes, np.ascontiguousarray(view), params, SnakeConfig(), slots)
        assert got.tobytes() == want.tobytes()

    def test_resampling_preserves_node_count(self, rng):
        contour = Contour(random_star_polygon(rng))
        cfg = SnakeConfig(resample_each_step=True)
        stepped = step_one(contour, zero_force(32, 32), uniform_params(32, 32, alpha=0.1), cfg)
        assert len(stepped) == len(contour)


class TestEvolve:
    def test_zero_iterations_returns_initial(self, rng):
        contour = Contour(random_star_polygon(rng))
        final, trace = evolve_one(contour, zero_force(32, 32), uniform_params(32, 32),
                                  SnakeConfig(iterations=0))
        assert np.array_equal(final.nodes, contour.nodes)
        assert len(trace.contours) == 1

    def test_trace_length_and_node_count(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask, mask_to_dt(mask)), 60, 64, 64)
        cfg = SnakeConfig(iterations=23)
        final, trace = evolve_one(start, force, ParameterSet.uniform(64, 64, kappa=0.2), cfg)
        assert len(trace.contours) == 24
        assert len(final) == 60
        assert trace.displacements[0] == 0.0
        want = displacements_reference(trace.contours)
        assert trace.displacements.tobytes() == want.tobytes()

    def test_deterministic(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask, mask_to_dt(mask)), 60, 64, 64)
        params = ParameterSet.uniform(64, 64, kappa=0.2)
        a_final, a_trace = evolve_one(start, force, params, SnakeConfig())
        b_final, b_trace = evolve_one(start, force, params, SnakeConfig())
        assert np.array_equal(a_final.nodes, b_final.nodes)
        assert np.array_equal(a_trace.energies, b_trace.energies)

    def test_disk_converges_with_defaults(self):
        # inscribed-circle start, stock solver settings
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask, mask_to_dt(mask)), 60, 64, 64)
        final, _ = evolve_one(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
                              SnakeConfig())
        from contourflow.metrics import iou
        assert iou(rasterize(final, 64, 64), mask) >= 0.95

    def test_u_shape_converges_from_circumscribed(self):
        mask = u_shape_mask(64, 64, (32.0, 32.0), 19.0, 16.0, 10.0, 2.0, 12.0)
        force = lcdvf(mask_to_dt(mask), np.inf)
        start = circle_to_contour(circumscribed_circle(mask), 60, 64, 64)
        final, _ = evolve_one(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
                              SnakeConfig())
        from contourflow.metrics import iou
        assert iou(rasterize(final, 64, 64), mask) >= 0.90

    def test_trace_is_an_evolution_trace(self, rng):
        contour = Contour(random_star_polygon(rng))
        _, trace = evolve_one(contour, zero_force(32, 32), uniform_params(32, 32),
                              SnakeConfig(iterations=3))
        assert isinstance(trace, EvolutionTrace)
        assert trace.energies.shape == (4,)
        assert trace.displacements.shape == (4,)

    def test_energies_are_computed_only_when_read(self, monkeypatch):
        import contourflow.snake as snake_module

        calls = []
        original = snake_module.contour_energies

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(snake_module, "contour_energies", counting)
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask, mask_to_dt(mask)), 60, 64, 64)
        params = ParameterSet.uniform(64, 64, kappa=0.2)
        final, trace = evolve_one(start, force, params, SnakeConfig(iterations=7))
        assert calls == []
        energies = trace.energies
        assert len(calls) == 1  # one stacked evaluation of all 8 contours
        assert trace.contours[-1] is final
        for contour, energy in zip(trace.contours, energies):
            assert energy == energy_eval(contour, force.potential, params)


def _evolve_outcome(traced_contours):
    """The node arrays of the contours an evolution traces, or the message
    it raised."""
    try:
        return [c.nodes for c in traced_contours()]
    except EvolveError as exc:
        return str(exc)


class TestSolverMatchesReference:
    """``evolve`` looks up each node's corners once per step and builds its
    difference operators once per run; the former per-call loop, kept as
    ``oracles.evolve_reference``, must give the very same floats."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(1, 24),
           width=st.integers(1, 24), nodes=st.integers(3, 120),
           iterations=st.integers(1, 6), resample=st.booleans(),
           alpha=st.floats(0.0, 1.0), tau=st.floats(0.05, 1.0))
    @example(seed=0, height=1, width=17, nodes=12, iterations=3, resample=False,
             alpha=0.1, tau=0.5)
    @example(seed=1, height=19, width=1, nodes=5, iterations=3, resample=True,
             alpha=0.0, tau=0.3)
    @example(seed=2, height=24, width=24, nodes=120, iterations=6, resample=True,
             alpha=0.2, tau=0.2)
    @example(seed=3, height=20, width=16, nodes=3, iterations=6, resample=False,
             alpha=0.0, tau=1.0)
    def test_traced_contours_are_bit_identical(self, seed, height, width, nodes,
                                               iterations, resample, alpha, tau):
        rng = np.random.default_rng(seed)
        force = ForceField(rng.uniform(-2.0, 2.0, size=(height, width, 2)),
                           np.zeros((height, width)))
        beta = rng.uniform(0.0, 1.0, size=(height, width))
        beta[rng.random((height, width)) < 0.2] = 0.0
        params = ParameterSet(alpha=alpha, beta=beta,
                              kappa=rng.uniform(-1.0, 1.0, size=(height, width)))
        # a star around a point of the frame; radii past the frame put
        # nodes on the border once the start is clamped
        center = (rng.uniform(0.0, width - 1.0), rng.uniform(0.0, height - 1.0))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=nodes))
        angles += np.linspace(0.0, 1e-3, nodes)
        radii = rng.uniform(1.0, 0.75 * max(height, width) + 1.0, size=nodes)
        start = Contour(np.stack([center[0] + radii * np.cos(angles),
                                  center[1] + radii * np.sin(angles)], axis=1))
        config = SnakeConfig(iterations=iterations, time_step=tau,
                             resample_each_step=resample)

        clamped = start.clamped(width, height)
        assert np.array_equal(step_one(clamped, force, params, config),
                              evolve_step_reference(clamped, force, params, config))
        got = _evolve_outcome(lambda: evolve_one(start, force, params, config)[1].contours)
        want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
        if isinstance(want, str):
            assert got == want
        else:
            assert len(got) == len(want) == iterations + 1
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_evolve_calls_evolve_step_once_per_iteration(self, monkeypatch):
        import contourflow.snake as snake_module

        calls = []
        original = snake_module.evolve_step

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(snake_module, "evolve_step", counting)
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask, mask_to_dt(mask)), 60, 64, 64)
        evolve_one(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
                   SnakeConfig(iterations=13))
        assert len(calls) == 13
        for nodes, vectors, *_ in calls:  # a stack of one, the force read through a view
            assert nodes.shape == (1, 60, 2)
            assert vectors.shape == (1, 64, 64, 2) and vectors.base is force.vectors


def _group_case(seed, count, nodes, height=24, width=32, alpha=0.3, shared=False,
                beta=None):
    """``count`` star starts around random points, one random force field
    each (or one that all share), random per-pixel kappa and random
    per-pixel beta >= 0 (or the constant ``beta``)."""
    rng = np.random.default_rng(seed)
    fields = rng.uniform(-2.0, 2.0, size=(1 if shared else count, height, width, 2))
    beta_map = rng.uniform(0.0, 1.0, size=(height, width))
    beta_map[rng.random((height, width)) < 0.2] = 0.0
    params = ParameterSet(alpha=alpha,
                          beta=beta_map if beta is None else np.full((height, width), beta),
                          kappa=rng.uniform(-1.0, 1.0, size=(height, width)))
    starts = []
    for _ in range(count):
        center = rng.uniform(4.0, 20.0, size=2)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=nodes))
        angles += np.linspace(0.0, 1e-3, nodes)
        radii = rng.uniform(2.0, 9.0, size=nodes)
        starts.append(Contour(np.stack([center[0] + radii * np.cos(angles),
                                        center[1] + radii * np.sin(angles)], axis=1)))
    forces = [ForceField(fields[0 if shared else k], np.zeros((height, width)))
              for k in range(count)]
    return starts, fields, forces, params


def _collapse_case(shared, beta=None):
    """Six circles under a deflating balloon that collapses the small ones
    first, at distinct steps, with one random force field each (or one that
    all share), under random per-pixel beta (or the constant ``beta``)."""
    rng = np.random.default_rng(5)
    height = width = 48
    fields = rng.uniform(-0.3, 0.3, size=(1 if shared else 6, height, width, 2))
    beta_map = rng.uniform(0.0, 0.2, (height, width))
    params = ParameterSet(alpha=0.05,
                          beta=beta_map if beta is None else np.full((height, width), beta),
                          kappa=rng.uniform(-1.5, -0.5, (height, width)))
    radii = [3.0, 20.0, 5.0, 8.0, 4.0, 19.0]
    starts = [circle_to_contour(Circle((24.0, 24.0), r), 40, width, height) for r in radii]
    forces = [ForceField(fields[0 if shared else k], np.zeros((height, width)))
              for k in range(len(radii))]
    return starts, fields, forces, params


def _path_outcome(path):
    """The node arrays of a path's contours, or the message of the
    ``EvolveError`` it ends in."""
    return str(path.error) if path.error else [c.nodes for c in path.contours.values()]


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestEvolveGroup:
    """``evolve`` steps K contours as one stack; each path is the one
    ``oracles.evolve_reference`` traces alone, to the bit, or ends in the
    message it raises."""

    @pytest.mark.parametrize("count", [1, 2, 9])
    @pytest.mark.parametrize("nodes", [3, 60, 100])
    @pytest.mark.parametrize("variant", ["plain", "alpha0", "resample", "shared",
                                         "beta_tenth", "beta_third"])
    def test_final_contours_equal_reference(self, count, nodes, variant):
        # a constant beta of 0.1 blends back exactly at most nodes, so most
        # steps of a group back-substitute one factored system where the
        # probe holds; 1/3 often does not
        starts, fields, forces, params = _group_case(
            seed=1000 * count + nodes, count=count, nodes=nodes,
            alpha=0.0 if variant == "alpha0" else 0.3, shared=variant == "shared",
            beta={"beta_tenth": 0.1, "beta_third": 1.0 / 3.0}.get(variant))
        config = SnakeConfig(iterations=8, time_step=0.2,
                             resample_each_step=variant == "resample")
        paths = evolve(starts, fields, params, config)
        assert len(paths) == count
        for start, force, path in zip(starts, forces, paths):
            want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
            _assert_same_outcome(_path_outcome(path), want)
            _assert_same_outcome(_evolve_outcome(
                lambda: evolve_one(start, force, params, config)[1].contours), want)

    @pytest.mark.parametrize("shared", [False, True])
    def test_items_collapsing_at_different_iterations(self, monkeypatch, shared):
        """A deflating balloon collapses the small starts first; each leaves
        the stack at its own step, its path holding the contours before it,
        and the others still match."""
        import contourflow.snake as snake_module

        calls = []
        original = snake_module.evolve_step

        def counting(nodes, *args):
            calls.append(len(nodes))
            return original(nodes, *args)

        starts, fields, forces, params = _collapse_case(shared)
        config = SnakeConfig(iterations=60, time_step=0.1)
        monkeypatch.setattr(snake_module, "evolve_step", counting)
        paths = evolve(starts, fields, params, config)
        monkeypatch.undo()

        steps = []
        for start, force, path in zip(starts, forces, paths):
            want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
            _assert_same_outcome(_path_outcome(path), want)
            _assert_same_outcome(_evolve_outcome(
                lambda: evolve_one(start, force, params, config)[1].contours), want)
            found = re.search(r"collapsed or reversed at iteration (\d+)", str(want))
            steps.append(int(found.group(1)) if found else config.iterations + 1)
            if found:  # the start and every step before the collapse, as a shorter run traces
                shorter = replace(config, iterations=steps[-1] - 1)
                _assert_same_outcome([c.nodes for c in path.contours.values()],
                                     _evolve_outcome(lambda: evolve_reference(
                                         start, force, params, shorter)))
        collapsed = [step for step in steps if step <= config.iterations]
        assert len(set(collapsed)) == len(collapsed) >= 3 and len(collapsed) < len(steps)
        # one call per iteration, each on the contours still running
        assert calls == [sum(step > i for step in steps) for i in range(config.iterations)]

    def test_all_collapsed_stops_stepping(self, monkeypatch):
        import contourflow.snake as snake_module

        calls = []
        original = snake_module.evolve_step

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(snake_module, "evolve_step", counting)
        force = ForceField(np.full((16, 16, 2), 100.0), np.zeros((16, 16)))
        starts = [square_contour(4.0, center=(8.0, 8.0)), square_contour(6.0, center=(7.0, 9.0))]
        paths = evolve(starts, force.vectors[None], uniform_params(16, 16),
                       SnakeConfig(iterations=10, time_step=1.0))
        assert len(calls) == 1
        for path in paths:
            assert isinstance(path.error, EvolveError)
            assert str(path.error).startswith("contour collapsed or reversed at iteration 1 ")
            assert len(path.contours) == 1

    def test_zero_iterations_returns_clamped_starts(self, rng):
        starts = [Contour(random_star_polygon(rng, r_hi=20.0, n_lo=7, n_hi=7))
                  for _ in range(3)]
        paths = evolve(starts, np.zeros((3, 32, 32, 2)), uniform_params(32, 32),
                       SnakeConfig(iterations=0))
        for start, path in zip(starts, paths):
            assert path.error is None and len(path.contours) == 1
            assert np.array_equal(path.contours[0].nodes, start.clamped(32, 32).nodes)

    def test_rejects_mismatched_parameter_maps(self, rng):
        with pytest.raises(ValueError, match="do not match"):
            evolve([Contour(random_star_polygon(rng))], np.zeros((1, 32, 32, 2)),
                   uniform_params(16, 16), SnakeConfig())

    def test_rejects_a_stack_of_another_count(self, rng):
        starts = [Contour(random_star_polygon(rng)) for _ in range(3)]
        with pytest.raises(ValueError, match="2 force fields for 3 contours"):
            evolve(starts, np.zeros((2, 32, 32, 2)), uniform_params(32, 32), SnakeConfig())


class TestSharedSystem:
    """A step whose K contours all sample a constant beta map's one value
    solves one (n, n) matrix: getrf's factors of it, back-substituted by
    getrs, where ``_factors_alike`` finds that alike; every other step
    solves the (K, n, n) stack. The spies count getrs calls with the
    shapes of the stacked solve they replace."""

    def test_gate_refuses_a_blas_whose_back_substitution_differs(self, monkeypatch, one_thread):
        if blas.lu_factor(np.eye(3)) is None:
            pytest.skip("no getrf and getrs resolve in this NumPy build")
        # a lone contour's two columns are alike under every kernel tried;
        # a two-thread pool is refused whatever the bits
        assert snake_module._factors_alike.__wrapped__(60, 1, 1)
        assert not snake_module._factors_alike.__wrapped__(60, 1, 2)
        solve = blas.lu_solve

        def skewed(factors, rhs):  # one last-bit change in the last column
            solve(factors, rhs)
            rhs.reshape(-1, len(rhs.T))[-1] = np.nextafter(rhs.reshape(-1, len(rhs.T))[-1], 0.0)

        monkeypatch.setattr(blas, "lu_solve", skewed)
        assert not snake_module._factors_alike.__wrapped__(60, 1, 1)
        assert not snake_module._factors_alike.__wrapped__(60, 12, 1)

    def test_no_shared_solve_where_the_pool_size_cannot_be_read(self, monkeypatch):
        assert snake_module._factors_alike(60, 9, None) is False
        monkeypatch.setattr(blas, "pool_size", lambda: None)
        config = SnakeConfig(iterations=8, time_step=0.2)
        starts, fields, _, params = _group_case(seed=2026, count=9, nodes=60, beta=0.1)
        paths, calls = self._solves(monkeypatch, starts, fields, params, config)
        assert calls == [((9, 60, 60), (9, 60, 2), "solve")] * config.iterations
        assert all(path.error is None for path in paths)

    def test_no_getrf_a_constant_map_group_solves_the_stack(self, monkeypatch, one_thread):
        """Where getrf does not resolve, the probe is False, so a group of
        nine under a constant map solves its stack at every step, and each
        path is its lone reference's to the bit."""
        lookup = blas._function
        monkeypatch.setattr(blas, "_function", lambda verb: None if verb == "getrf"
                            else lookup(verb))
        monkeypatch.setattr(snake_module, "_factors_alike",
                            functools.cache(snake_module._factors_alike.__wrapped__))
        assert blas.lu_factor(np.eye(3)) is None and blas.pool_size() == 1
        config = SnakeConfig(iterations=8, time_step=0.2)
        starts, fields, forces, params = _group_case(seed=2026, count=9, nodes=60, beta=0.1)
        calls = self._spy_on_solve(monkeypatch)
        paths = evolve(starts, fields, params, config)
        assert calls == [((9, 60, 60), (9, 60, 2), "solve")] * config.iterations
        for start, force, path in zip(starts, forces, paths):
            assert path.error is None
            want = evolve_reference(start, force, params, config)
            assert _bits(c.nodes for c in path.contours.values()) == _bits(c.nodes for c in want)

    @staticmethod
    def _spy_on_solve(monkeypatch):
        """The list that the (matrix, right-hand side) shapes of every
        following solve made by ``evolve_step`` itself go to, with "solve"
        for ``snake._solve`` (``np.linalg.solve``'s gufunc) and "getrs" for
        ``blas.lu_solve``, whose shapes are those of the stacked solve it
        replaces, (K, n, n) and (K, n, 2). The cached factors are dropped
        first, so each system is new."""
        calls = []
        solve, back_substitute = snake_module._solve, blas.lu_solve

        def spy(a, b):
            if sys._getframe(1).f_code is evolve_step.__code__:
                calls.append((a.shape, b.shape, "solve"))
            return solve(a, b)

        def spy_getrs(factors, rhs):
            if sys._getframe(1).f_code is evolve_step.__code__:
                count, _, n = rhs.shape
                calls.append(((count, n, n), (count, n, 2), "getrs"))
            return back_substitute(factors, rhs)

        snake_module._factored_system.cache_clear()
        monkeypatch.setattr(snake_module, "_solve", spy)
        monkeypatch.setattr(blas, "lu_solve", spy_getrs)
        return calls

    def _solves(self, monkeypatch, starts, fields, params, config):
        """``evolve``'s paths and the shapes of the solves its steps made."""
        calls = self._spy_on_solve(monkeypatch)
        paths = evolve(starts, fields, params, config)
        monkeypatch.undo()
        return paths, calls

    @staticmethod
    def _expected(paths, params, config, n):
        """The solves of each step: getrs when the beta map is constant,
        every weight sampled at the step's input nodes equals it and the
        factored probe holds; else the stack, by ``snake._solve``."""
        want = []
        constant = (params.beta == params.beta.flat[0]).all()
        for step in range(config.iterations):
            running = [path for path in paths if step in path.contours]
            count = len(running)
            rows = np.stack([bilinear_sample_reference(params.beta, path.contours[step].nodes)
                             for path in running])
            factored = snake_module._factors_alike(n, count, blas.pool_size())
            one = constant and (rows == params.beta.flat[0]).all()
            want.append(((count, n, n), (count, n, 2), "getrs" if one and factored else "solve"))
        return want

    @pytest.mark.parametrize("beta, count", [(0.1, 9), (None, 9), (0.1, 1)])
    def test_shared_path_runs_only_on_equal_systems(self, monkeypatch, beta, count):
        """A constant 0.1 blends back exactly except at some coordinates
        strictly between 0 and 0.5, so most steps of the 0.1 runs solve one
        matrix wherever the probe holds; a beta map never does."""
        config = SnakeConfig(iterations=8, time_step=0.2)
        starts, fields, _, params = _group_case(seed=2026, count=count, nodes=60, beta=beta)
        paths, calls = self._solves(monkeypatch, starts, fields, params, config)
        assert all(path.error is None for path in paths)
        assert calls == self._expected(paths, params, config, 60)
        factored = snake_module._factors_alike(60, count, blas.pool_size())
        # a constant beta repeats its system; a beta map moves with the nodes
        backsolved = any(method == "getrs" for _, _, method in calls)
        assert backsolved == (factored and beta is not None)

    @pytest.mark.parametrize("count", [1, 9])
    def test_a_constant_map_off_the_blend_keeps_one_factored_system(self, monkeypatch, count):
        """A constant 1.3 blends back to 1.3 at fewer nodes than 0.1: the
        steps whose weights all equal it solve one matrix, and getrf factors
        it once, into one cache entry; every path is the reference's."""
        config = SnakeConfig(iterations=10, time_step=0.2)
        starts, fields, forces, params = _group_case(seed=4, count=count, nodes=100, beta=1.3)
        paths, calls = self._solves(monkeypatch, starts, fields, params, config)
        assert calls == self._expected(paths, params, config, 100)
        entries = snake_module._factored_system.cache_info().currsize
        factored = snake_module._factors_alike(100, count, blas.pool_size())
        assert entries == int(factored and any(m == "getrs" for _, _, m in calls))
        for start, force, path in zip(starts, forces, paths):
            want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
            _assert_same_outcome(_path_outcome(path), want)

    def test_a_varying_map_solves_the_stack_where_its_rows_coincide(self, monkeypatch):
        """Under a varying beta map, K contours with the same nodes sample
        equal rows, yet their systems are solved as a stack whatever the
        probe: only a constant map's systems are one matrix."""
        monkeypatch.setattr(snake_module, "_factors_alike", lambda *_: True)
        starts, fields, forces, params = _group_case(seed=5, count=1, nodes=30)
        nodes = np.repeat(starts[0].clamped(32, 24).nodes[None], 4, axis=0)
        calls = self._spy_on_solve(monkeypatch)
        stepped = step_stack(nodes, fields, params, SnakeConfig())
        assert calls == [((4, 30, 30), (4, 30, 2), "solve")]
        want = evolve_step_reference(starts[0].clamped(32, 24), forces[0], params, SnakeConfig())
        for got in stepped:
            assert got.tobytes() == want.tobytes()

    def test_group_collapsing_to_one_contour(self, monkeypatch):
        """Radii 3, 20, 5 and 4: the small three collapse at distinct steps;
        the last one left steps alone on the stacked path. Every path equals
        the reference."""
        starts, fields, forces, params = _collapse_case(shared=False, beta=0.1)
        pick = [0, 1, 2, 4]
        starts, fields = [starts[k] for k in pick], fields[pick]
        config = SnakeConfig(iterations=60, time_step=0.1)
        paths, calls = self._solves(monkeypatch, starts, fields, params, config)
        running = [a[0] for a, _, _ in calls]
        assert sorted(set(running), reverse=True) == [4, 3, 2, 1]
        assert calls == self._expected(paths, params, config, 40)
        assert sum(path.error is None for path in paths) == 1
        for start, k, path in zip(starts, pick, paths):
            want = _evolve_outcome(lambda: evolve_reference(start, forces[k], params, config))
            _assert_same_outcome(_path_outcome(path), want)

    @pytest.mark.parametrize("gate", [True, False])
    @pytest.mark.parametrize("resample", [False, True])
    def test_step_returns_a_c_contiguous_stack(self, monkeypatch, gate, resample):
        # a strided result would make the next step's corner lookup copy
        # and every kept contour hold a view; the probe is forced, so both
        # solves run whatever the BLAS, the factored one where getrf resolves
        factored = gate and blas.lu_factor(np.eye(3)) is not None
        monkeypatch.setattr(snake_module, "_factors_alike", lambda *_: factored)
        calls = self._spy_on_solve(monkeypatch)
        for count in (1, 5):
            starts, fields, _, params = _group_case(seed=9, count=count, nodes=30, beta=0.1)
            nodes = np.stack([start.clamped(32, 24).nodes for start in starts])
            for _ in range(2):  # the second step repeats the first one's system
                stepped = step_stack(nodes, fields, params,
                                     SnakeConfig(resample_each_step=resample))
                assert stepped.shape == nodes.shape and stepped.flags.c_contiguous
        # the start nodes sample 0.1 exactly, so where the probe holds every
        # solve is back-substituted from the first
        method = "getrs" if factored else "solve"
        assert [(a[0], m) for a, _, m in calls] == [
            (1, method), (1, method), (5, method), (5, method)]


class TestStepPlan:
    """``evolve`` builds its steps' constants once per run (``StepPlan``)
    and every node it steps or holds is finite and lies in the frame; over
    K 1-12 and n 3-200, shared and own force fields, the frame and a box,
    constant and varying beta, with and without resampling, each path is
    ``oracles.evolve_reference``'s byte for byte, or ends in its message,
    every held node lies in the frame, and the boxed paths are the
    frame's."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12),
           nodes=st.integers(3, 200), shared=st.booleans(), boxed=st.booleans(),
           beta=st.sampled_from([None, 0.1]), resample=st.booleans(),
           iterations=st.integers(1, 5))
    @example(seed=0, count=12, nodes=200, shared=False, boxed=True, beta=None, resample=True,
             iterations=5)
    @example(seed=1, count=12, nodes=3, shared=True, boxed=True, beta=0.1, resample=False,
             iterations=5)
    @example(seed=2, count=1, nodes=60, shared=True, boxed=False, beta=0.1, resample=False,
             iterations=5)
    def test_paths_equal_the_reference(self, seed, count, nodes, shared, boxed, beta,
                                       resample, iterations):
        starts, fields, forces, params = _group_case(seed, count, nodes, height=40, width=48,
                                                     shared=shared, beta=beta)
        config = SnakeConfig(iterations=iterations, time_step=0.2, resample_each_step=resample)
        paths = evolve(starts, fields, params, config)
        for start, force, path in zip(starts, forces, paths):
            want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
            if isinstance(want, str):
                assert str(path.error) == want
            else:
                assert path.error is None
                assert _bits(c.nodes for c in path.contours.values()) == _bits(want)
            held = np.stack([c.nodes for c in path.contours.values()])
            assert (held >= 0.0).all() and (held <= (47.0, 39.0)).all()  # (u, v) in the frame
        if boxed:
            held = np.stack([c.nodes for path in paths for c in path.contours.values()])
            box = Box(*corner_box(held, 40, 48), 40, 48)
            rows, cols = box[:2]
            cropped = ParameterSet(params.alpha, params.beta[rows, cols],
                                   params.kappa[rows, cols])
            for got, want in zip(evolve(starts, fields[:, rows, cols], cropped, config, box=box),
                                 paths):
                assert str(got.error) == str(want.error)
                assert (_bits(c.nodes for c in got.contours.values())
                        == _bits(c.nodes for c in want.contours.values()))

    @pytest.mark.parametrize("axis", [0, 1], ids=["right", "bottom"])
    def test_a_resampled_node_past_the_frame_is_clamped(self, monkeypatch, axis):
        """Resampling can leave a node an ulp past the frame, so a resampling
        step clamps again. A planted resampler, in ``evolve`` and in the
        reference alike, moves the node furthest along ``axis`` one ulp past
        the frame's right or bottom edge: every held step's node furthest
        along it must lie on the edge, and every path must still be the
        reference's byte for byte."""
        edge = (31.0, 23.0)[axis]  # the 32 x 24 frame's last column or row
        resample = snake_module.resample_closed

        def past_the_edge(nodes, count):
            out = resample(nodes, count)
            out[out[:, axis].argmax(), axis] = np.nextafter(edge, np.inf)
            return out

        monkeypatch.setattr(snake_module, "resample_closed", past_the_edge)
        monkeypatch.setattr(oracles, "resample_closed", past_the_edge)
        starts, fields, forces, params = _group_case(seed=11, count=3, nodes=40)
        config = SnakeConfig(iterations=6, time_step=0.2, resample_each_step=True)
        paths = evolve(starts, fields, params, config)
        for start, force, path in zip(starts, forces, paths):
            want = evolve_reference(start, force, params, config)
            assert path.error is None and len(path.contours) == len(want)
            assert [path.contours[step].nodes[:, axis].max() for step in range(1, 7)] == [edge] * 6
            assert _bits(c.nodes for c in path.contours.values()) == _bits(c.nodes for c in want)


class TestEvolveKeep:
    """``evolve(..., keep=S)`` holds the clamped start and the steps in S that
    each contour completed, each bit-identical to the full path's contour
    at that step, and ends in the full path's error."""

    @staticmethod
    def _assert_keeps(starts, fields, params, config, keep):
        full = evolve(starts, fields, params, config)
        kept = evolve(starts, fields, params, config, keep)
        assert len(kept) == len(full)
        for whole, part in zip(full, kept):
            completed = max(whole.contours)
            assert list(part.contours) == sorted({0} | {s for s in keep if s <= completed})
            for step, contour in part.contours.items():
                assert contour.nodes.tobytes() == whole.contours[step].nodes.tobytes()
            assert str(part.error) == str(whole.error)

    @pytest.mark.parametrize("keep", [{8}, {3}, {1, 5, 8}, {2, 8, 40}, set()])
    @pytest.mark.parametrize("variant", ["own", "shared", "resample"])
    def test_group_paths(self, variant, keep):
        starts, fields, _, params = _group_case(seed=77, count=5, nodes=30,
                                                shared=variant == "shared")
        config = SnakeConfig(iterations=8, time_step=0.2,
                             resample_each_step=variant == "resample")
        self._assert_keeps(starts, fields, params, config, keep)

    @pytest.mark.parametrize("keep", [{60}, {1, 10, 30, 60}, set(range(0, 61, 3))])
    @pytest.mark.parametrize("shared", [False, True])
    def test_contours_collapsing_at_distinct_steps(self, shared, keep):
        starts, fields, _, params = _collapse_case(shared)
        config = SnakeConfig(iterations=60, time_step=0.1)
        paths = evolve(starts, fields, params, config)
        assert sum(path.error is not None for path in paths) >= 3
        self._assert_keeps(starts, fields, params, config, keep)

    @pytest.mark.parametrize("keep", [{0}, {0, 60}])
    def test_keep_with_the_start(self, keep):
        starts, fields, _, params = _collapse_case(shared=False)
        config = SnakeConfig(iterations=60, time_step=0.1)
        self._assert_keeps(starts, fields, params, config, keep)


class TestHeldContours:
    """Every contour a path holds is a ``Contour`` of positive area on an
    array of its own, not a view into the solver's node stack."""

    @staticmethod
    def _assert_own_contours(paths):
        for path in paths:
            for contour in path.contours.values():
                assert isinstance(contour, Contour) and contour.area > 0.0
                assert contour.nodes.base is None

    def test_lone_run_keeping_every_step(self):
        starts, fields, _, params = _group_case(seed=3, count=1, nodes=30)
        [path] = evolve(starts, fields, params, SnakeConfig(iterations=8, time_step=0.2))
        assert path.error is None and list(path.contours) == list(range(9))
        self._assert_own_contours([path])

    @pytest.mark.parametrize("shared", [False, True])
    def test_group_with_collapses_and_a_keep_set(self, shared):
        starts, fields, _, params = _collapse_case(shared)
        paths = evolve(starts, fields, params, SnakeConfig(iterations=60, time_step=0.1),
                       {1, 10, 30, 60})
        assert sum(path.error is not None for path in paths) >= 3
        assert sum(len(path.contours) for path in paths) > len(paths)
        self._assert_own_contours(paths)


def _bits(arrays):
    """The shape and bytes of each array: ``np.array_equal`` takes -0.0 for
    +0.0, so it cannot see a step that flips the sign of a zero."""
    return [(a.shape, a.tobytes()) for a in arrays]


class TestFactoredSolve:
    """On a one-thread pool, getrf's factors back-substituted by getrs give
    ``np.linalg.solve``'s bits: there its ``gesv`` is those two calls."""

    @pytest.fixture(autouse=True)
    def _lapack(self, one_thread):
        if blas.lu_factor(np.eye(3)) is None:
            pytest.skip("no getrf and getrs resolve in this NumPy build")

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(3, 200), count=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
           pattern=st.lists(st.sampled_from([0.0, 0.1, 0.37, 1.0, 50.0]), min_size=1,
                            max_size=5),
           alpha=st.sampled_from([0.0, 0.01, 0.3]), tau=st.floats(0.05, 2.0))
    @example(n=100, count=1, seed=0, pattern=[1.0], alpha=0.01, tau=0.1)
    @example(n=120, count=12, seed=1, pattern=[0.0, 50.0], alpha=0.0, tau=1.0)
    def test_back_substitution_gives_the_solve_bits(self, n, count, seed, pattern, alpha,
                                                     tau):
        """Weights tiled from a short pattern of zeros and large values make
        the elimination swap rows; 2 or 2K right-hand sides."""
        lhs = _system_matrix(np.resize(np.array(pattern), (1, n)), alpha, tau)[0]
        rhs = np.random.default_rng(seed).uniform(0.0, 256.0, (n, 2 * count))
        columns = np.ascontiguousarray(rhs.T)
        blas.lu_solve(blas.lu_factor(lhs), columns)
        assert columns.T.tobytes() == np.linalg.solve(lhs, rhs).tobytes()

    def test_alternating_weights_swap_rows(self):
        lhs = _system_matrix(np.resize([0.0, 50.0], (1, 60)), 0.01, 0.1)[0]
        _, pivots = blas.lu_factor(lhs)
        assert (pivots != np.arange(1, 61)).sum() > 20

    def test_lu_factor_leaves_its_matrix_and_solve_its_factors(self):
        lhs = _system_matrix(np.full((1, 30), 0.1), 0.01, 0.1)[0]
        kept = lhs.copy()
        factors = blas.lu_factor(lhs)
        saved = [array.copy() for array in factors]
        blas.lu_solve(factors, np.ones((4, 30)))
        assert lhs.tobytes() == kept.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(factors, saved))

    @pytest.mark.parametrize("matrix", [np.eye(3, dtype=np.float32), np.ones((3, 4)),
                                        np.ones(9)], ids=["float32", "not_square", "flat"])
    def test_lu_factor_refuses_what_getrf_cannot_take(self, matrix):
        with pytest.raises(ValueError, match="expected a square float64 matrix"):
            blas.lu_factor(matrix)

    @pytest.mark.parametrize("rhs", [
        np.ones((2, 5), dtype=np.float32), np.ones((5, 2)).T, np.ones((2, 4)),
        np.broadcast_to(np.ones(5), (2, 5))], ids=["float32", "strided", "short_rows",
                                                    "read_only"])
    def test_lu_solve_refuses_what_getrs_cannot_take(self, rhs):
        """getrs writes through the raw pointer of ``rhs``: each of these
        would have it read or write out of place."""
        factors = blas.lu_factor(np.eye(5) * 2.0)
        with pytest.raises(ValueError, match="expected a writeable C-contiguous float64"):
            blas.lu_solve(factors, rhs)


    def test_threads_sharing_the_cached_factors_keep_every_bit(self):
        """Threads stepping contours whose systems repeat share the cached
        slots; a race there can only repeat a factorization, so every path
        equals the one its case gives alone."""
        import threading
        cases = [_group_case(seed=seed, count=count, nodes=40, beta=0.1)
                 for seed, count in ((1, 1), (2, 3), (3, 1), (4, 5), (5, 1), (6, 2))]
        config = SnakeConfig(iterations=12, time_step=0.2)
        want = [[_path_outcome(path) for path in evolve(*case[:2], case[3], config)]
                for case in cases]
        got, interval = [[] for _ in cases], sys.getswitchinterval()

        def work(index):
            for _ in range(3):
                snake_module._factored_system.cache_clear()
                starts, fields, _, params = cases[index]
                got[index].append([_path_outcome(path)
                                   for path in evolve(starts, fields, params, config)])

        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(cases))]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs, paths in zip(got, want):
            assert len(runs) == 3
            for run in runs:
                for a, b in zip(run, paths):
                    _assert_same_outcome(a, b)


class TestSingularSystem:
    """A planted singular system reaches both of ``evolve_step``'s singular
    branches, ``snake._solve``'s ``LinAlgError`` under a varying beta map
    and getrf's zero pivot under a constant one, with one message;
    ``evolve`` turns it into every running path's error."""

    MESSAGE = "internal error: singular evolution system (Singular matrix)"

    @pytest.fixture
    def singular(self, monkeypatch):
        def zeros(beta, alpha, tau, out=None):  # (K, n, n)
            return np.zeros(beta.shape + beta.shape[1:])

        monkeypatch.setattr(snake_module, "_system_matrix", zeros)
        snake_module._factored_system.cache_clear()
        factored, lu_factor = [], blas.lu_factor

        def spy(matrix):  # the factorizations of the step's cached system
            if sys._getframe(1).f_code is snake_module._factored_system.__wrapped__.__code__:
                factored.append(matrix.shape)
            return lu_factor(matrix)

        monkeypatch.setattr(blas, "lu_factor", spy)
        return factored

    def test_both_branches_give_one_message(self, singular, one_thread):
        messages = []
        for beta in (None, 0.1):
            starts, fields, _, params = _group_case(seed=4, count=1, nodes=20, beta=beta)
            nodes = starts[0].clamped(32, 24).nodes[None]
            with pytest.raises(EvolveError) as raised:
                step_stack(nodes, fields, params, SnakeConfig())
            messages.append(str(raised.value))
        assert messages == [self.MESSAGE] * 2
        if snake_module._factors_alike(20, 1, 1):
            assert singular == [(20, 20)]  # the constant map's step reached getrf

    @pytest.mark.parametrize("count", [1, 3])
    def test_evolve_ends_every_running_path(self, singular, count):
        starts, fields, _, params = _group_case(seed=4, count=count, nodes=20)
        paths = evolve(starts, fields, params, SnakeConfig(iterations=5))
        for path in paths:
            assert list(path.contours) == [0]
            assert str(path.error) == f"evolution failed at iteration 1: {self.MESSAGE}"


class TestBoxedArrays:
    """``evolve``, ``evolve_step`` and ``contour_energies`` on fields and
    maps that cover only a box of the frame give the frame's bits while
    every corner stays in the box, and ``LeftBox`` the first time one does
    not."""

    @staticmethod
    def _case(seed, count):
        starts, fields, _, params = _group_case(seed=seed, count=count, nodes=40,
                                                height=40, width=48)
        rng = np.random.default_rng(seed)
        potential = rng.uniform(0.0, 4.0, (40, 48))
        return starts, fields, params, potential

    @staticmethod
    def _crop(box, fields, params, potential):
        rows, cols = box[:2]
        return (fields[:, rows, cols],
                ParameterSet(params.alpha, params.beta[rows, cols], params.kappa[rows, cols]),
                potential[rows, cols])

    @pytest.mark.parametrize("seed, count", [(1, 1), (2, 4), (3, 6)])
    def test_paths_and_energies_equal_the_frame_ones(self, seed, count):
        starts, fields, params, potential = self._case(seed, count)
        config = SnakeConfig(iterations=12, time_step=0.2)
        want = evolve(starts, fields, params, config)
        held = [c.nodes for path in want for c in path.contours.values()]
        rows, cols = corner_box(np.stack(held), 40, 48)
        box = Box(rows, cols, 40, 48)
        assert box.shape < (40, 48)
        got = evolve(starts, *self._crop(box, fields, params, potential)[:2], config, box=box)
        for a, b in zip(got, want):
            _assert_same_outcome(_path_outcome(a), _path_outcome(b))
            contours = list(b.contours.values())
            energies = contour_energies(contours, potential, params)
            _, boxed, cropped = self._crop(box, fields, params, potential)
            assert contour_energies(contours, cropped, boxed, box).tobytes() == energies.tobytes()

    def test_leaving_the_box_raises_with_the_step(self):
        """A box that holds the corners of the start and the first three steps."""
        starts, fields, params, potential = self._case(2, 4)
        config = SnakeConfig(iterations=12, time_step=0.2)
        paths = evolve(starts, fields, params, config)
        assert all(path.error is None for path in paths)
        held = [np.stack([path.contours[step].nodes for path in paths]) for step in range(13)]
        box = Box(*corner_box(np.concatenate(held[:4]), 40, 48), 40, 48)
        left = [step for step in range(13) if not all(
            inner.start <= span.start and span.stop <= inner.stop
            for span, inner in zip(corner_box(held[step], 40, 48), box))]
        assert left and left[0] > 3
        with pytest.raises(LeftBox) as raised:
            evolve(starts, *self._crop(box, fields, params, potential)[:2], config, box=box)
        assert raised.value.iteration == left[0]


class TestStepTraps:
    """The cases where the step's lookup could part from the former one: a
    signed zero in the start, nodes on the last column and row, grids one
    pixel wide or high and re-slotting after a collapse. Each path equals
    ``oracles.evolve_reference`` byte for byte."""

    @staticmethod
    def _case(height, width, seed=3):
        rng = np.random.default_rng(seed)
        force = ForceField(rng.uniform(-1.0, 1.0, (height, width, 2)), np.zeros((height, width)))
        params = ParameterSet(alpha=0.2, beta=rng.uniform(0.0, 0.5, (height, width)),
                              kappa=rng.uniform(-0.5, 0.5, (height, width)))
        return force, params

    @staticmethod
    def _assert_matches_reference(start, force, params, config):
        clamped = start.clamped(force.potential.shape[1], force.potential.shape[0])
        got_step = step_one(clamped, force, params, config)
        assert _bits([got_step]) == _bits([evolve_step_reference(clamped, force, params,
                                                                 config)])
        [path] = evolve([start], force.vectors[None], params, config)
        want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
        if isinstance(want, str):
            assert str(path.error) == want
        else:
            assert path.error is None
            assert _bits(c.nodes for c in path.contours.values()) == _bits(want)

    def test_start_with_negative_zeros(self):
        # the start's scalar-bound np.clip keeps -0.0; the corner clamp gives +0.0
        force, params = self._case(16, 16)
        nodes = np.array([[-0.0, 3.0], [6.0, -0.0], [9.0, 7.0], [-0.0, 8.0], [2.5, 12.0]])
        start = Contour(nodes)
        clamped = start.clamped(16, 16)
        assert np.signbit(clamped.nodes[clamped.nodes == 0.0]).all()
        self._assert_matches_reference(start, force, params, SnakeConfig(iterations=6))

    def test_nodes_on_the_last_column_and_row(self):
        force, params = self._case(12, 17)
        start = Contour(np.array([[4.0, 2.0], [16.0, 2.0], [16.0, 11.0], [9.5, 11.0],
                                  [4.0, 11.0], [3.0, 6.5]]))
        self._assert_matches_reference(start, force, params, SnakeConfig(iterations=6))
        # and pushed past them, so every step clamps onto them again
        pushed = ForceField(np.full((12, 17, 2), 3.0), np.zeros((12, 17)))
        self._assert_matches_reference(start, pushed, params,
                                       SnakeConfig(iterations=4, time_step=0.5))

    @pytest.mark.parametrize("height, width", [(1, 9), (1, 1), (11, 1)])
    def test_grids_one_pixel_wide_or_high(self, height, width):
        force, params = self._case(height, width)
        theta = 2.0 * np.pi * np.arange(12) / 12
        start = Contour(np.stack([width / 2.0 + 4.0 * np.cos(theta),
                                  height / 2.0 + 4.0 * np.sin(theta)], axis=1))
        self._assert_matches_reference(start, force, params, SnakeConfig(iterations=3))

    def test_twelve_own_fields_reslotted_after_collapses(self):
        # a deflating balloon collapses the small circles mid-run; the others
        # keep reading their own fields from the re-slotted stack
        rng = np.random.default_rng(12)
        height = width = 48
        fields = rng.uniform(-0.3, 0.3, size=(12, height, width, 2))
        params = ParameterSet(alpha=0.05, beta=rng.uniform(0.0, 0.2, (height, width)),
                              kappa=rng.uniform(-1.5, -0.5, (height, width)))
        radii = [3.0, 20.0, 5.0, 8.0, 4.0, 19.0, 15.0, 3.5, 12.0, 6.0, 17.0, 10.0]
        starts = [circle_to_contour(Circle((24.0, 24.0), r), 40, width, height) for r in radii]
        config = SnakeConfig(iterations=40, time_step=0.1)
        paths = evolve(starts, fields, params, config)
        assert 3 <= sum(path.error is not None for path in paths) < len(paths)
        for start, field, path in zip(starts, fields, paths):
            force = ForceField(field, np.zeros((height, width)))
            want = _evolve_outcome(lambda: evolve_reference(start, force, params, config))
            if isinstance(want, str):
                assert str(path.error) == want
            else:
                assert path.error is None
                assert _bits(c.nodes for c in path.contours.values()) == _bits(want)


class TestCollapseGuard:
    def test_deflating_disk_aborts_at_the_reversal(self):
        # a strong deflating balloon folds the contour through itself; the
        # step that reverses it must stop the run rather than flip the
        # outward normal and carry on
        mask = disk_mask(64, 64, (32, 32), 20)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(circumscribed_circle(mask), 60, 64, 64)
        params = ParameterSet.uniform(64, 64, kappa=-5.0)
        with pytest.raises(EvolveError, match=r"reversed at iteration 47 \(signed area -"):
            evolve_one(start, force, params, SnakeConfig(iterations=200))

    def test_degenerate_step_aborts(self):
        # every node is pushed into the same corner: zero area at step 1
        force = ForceField(np.full((16, 16, 2), 100.0), np.zeros((16, 16)))
        start = square_contour(4.0, center=(8.0, 8.0))
        with pytest.raises(EvolveError, match="collapsed or reversed at iteration 1 "):
            evolve_one(start, force, uniform_params(16, 16), SnakeConfig(time_step=1.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), kappa=st.floats(-5.0, 5.0),
           circumscribed=st.booleans())
    def test_raises_with_iteration_or_keeps_invariants(self, seed, kappa, circumscribed):
        rng = np.random.default_rng(seed)
        size = 40
        mask = random_blob_mask(rng, size, size)
        force = lcdvf(mask_to_dt(mask), 2.0)
        circle = (circumscribed_circle(mask) if circumscribed
                  else inscribed_circle(mask, mask_to_dt(mask)))
        start = circle_to_contour(circle, 30, size, size)
        params = ParameterSet.uniform(size, size, kappa=kappa)
        config = SnakeConfig(iterations=60)
        try:
            _, trace = evolve_one(start, force, params, config)
        except EvolveError as exc:
            found = re.search(r"at iteration (\d+)", str(exc))
            assert found and 1 <= int(found.group(1)) <= config.iterations
            return
        assert len(trace.contours) == config.iterations + 1
        for contour in trace.contours:
            assert contour.area >= DEGENERATE_AREA
            assert np.isfinite(contour.nodes).all()
            assert (contour.nodes >= 0.0).all()
            assert (contour.nodes[:, 0] <= size - 1.0).all()
            assert (contour.nodes[:, 1] <= size - 1.0).all()


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SnakeConfig(iterations=-1)
        with pytest.raises(ValueError):
            SnakeConfig(time_step=0.0)

    def test_parameter_set_validation(self):
        with pytest.raises(ValueError):
            ParameterSet(alpha=-0.1, beta=np.zeros((4, 4)), kappa=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ParameterSet(alpha=0.1, beta=np.full((4, 4), -1.0), kappa=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            ParameterSet(alpha=0.1, beta=np.zeros((4, 4)), kappa=np.zeros((5, 4)))

    def test_evolve_rejects_mismatched_parameter_maps(self, rng):
        contour = Contour(random_star_polygon(rng))
        with pytest.raises(ValueError, match="do not match"):
            evolve_one(contour, zero_force(32, 32), uniform_params(16, 16), SnakeConfig())
