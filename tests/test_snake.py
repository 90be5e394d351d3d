import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contourflow.autoinit import circle_to_contour, circumscribed_circle, inscribed_circle
from contourflow.edt import mask_to_dt
from contourflow.fields import DEGENERATE_AREA, Contour, rasterize
from contourflow.flow import ForceField, lcdvf
from contourflow.shapes import disk_mask, random_blob_mask, u_shape_mask
from contourflow.snake import (EvolutionTrace, EvolveError, ParameterSet, SnakeConfig,
                               energy_eval, evolve, evolve_step)

from oracles import (assemble_internal_system, balloon_force, bilinear_sample_reference,
                     evolve_reference, evolve_step_reference, fd_gradient,
                     rasterize_reference)
from conftest import random_star_polygon


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
        stepped = evolve_step(contour, zero_force(32, 32), params,
                              SnakeConfig(time_step=0.2))
        assert stepped.perimeter < contour.perimeter

    def test_no_weights_pure_translation(self):
        vectors = np.zeros((32, 32, 2))
        vectors[..., 0] = 0.75
        vectors[..., 1] = -0.25
        force = ForceField(vectors, np.zeros((32, 32)))
        contour = square_contour(4.0, center=(16.0, 16.0))
        params = uniform_params(32, 32)
        stepped = evolve_step(contour, force, params, SnakeConfig(time_step=0.1))
        assert np.allclose(stepped.nodes, contour.nodes + 0.1 * np.array([0.75, -0.25]),
                           atol=1e-12)

    def test_step_moves_nodes_toward_disk_boundary(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        dist = mask_to_dt(mask)
        force = lcdvf(dist, clip_norm=2.0)
        theta = 2 * np.pi * np.arange(40) / 40
        contour = Contour(np.stack([32 + 9 * np.cos(theta), 32 + 9 * np.sin(theta)], axis=1))
        params = uniform_params(64, 64)
        stepped = evolve_step(contour, force, params, SnakeConfig())
        before = bilinear_sample_reference(dist, contour.nodes)
        after = bilinear_sample_reference(dist, stepped.nodes)
        assert (after < before).all()

    def test_clamps_to_bounds(self):
        vectors = np.full((16, 16, 2), 100.0)
        force = ForceField(vectors, np.zeros((16, 16)))
        contour = square_contour(4.0, center=(8.0, 8.0))
        stepped = evolve_step(contour, force, uniform_params(16, 16),
                              SnakeConfig(time_step=1.0))
        assert stepped.nodes.max() <= 15.0

    def test_resampling_preserves_node_count(self, rng):
        contour = Contour(random_star_polygon(rng))
        cfg = SnakeConfig(resample_each_step=True)
        stepped = evolve_step(contour, zero_force(32, 32),
                              uniform_params(32, 32, alpha=0.1), cfg)
        assert len(stepped) == len(contour)


class TestEvolve:
    def test_zero_iterations_returns_initial(self, rng):
        contour = Contour(random_star_polygon(rng))
        final, trace = evolve(contour, zero_force(32, 32), uniform_params(32, 32),
                              SnakeConfig(iterations=0))
        assert np.array_equal(final.nodes, contour.nodes)
        assert len(trace) == 1

    def test_trace_length_and_node_count(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask), 60, 64, 64)
        cfg = SnakeConfig(iterations=23)
        final, trace = evolve(start, force, ParameterSet.uniform(64, 64, kappa=0.2), cfg)
        assert len(trace) == 24
        assert len(final) == 60
        assert trace.displacements[0] == 0.0

    def test_deterministic(self):
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask), 60, 64, 64)
        params = ParameterSet.uniform(64, 64, kappa=0.2)
        a_final, a_trace = evolve(start, force, params, SnakeConfig())
        b_final, b_trace = evolve(start, force, params, SnakeConfig())
        assert np.array_equal(a_final.nodes, b_final.nodes)
        assert np.array_equal(a_trace.energies, b_trace.energies)

    def test_disk_converges_with_defaults(self):
        # inscribed-circle start, stock solver settings
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask), 60, 64, 64)
        final, _ = evolve(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
                          SnakeConfig())
        from contourflow.metrics import iou
        assert iou(rasterize(final, 64, 64), mask) >= 0.95

    def test_u_shape_converges_from_circumscribed(self):
        mask = u_shape_mask(64, 64, (32.0, 32.0), 19.0, 16.0, 10.0, 2.0, 12.0)
        force = lcdvf(mask_to_dt(mask), np.inf)
        start = circle_to_contour(circumscribed_circle(mask), 60, 64, 64)
        final, _ = evolve(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
                          SnakeConfig())
        from contourflow.metrics import iou
        assert iou(rasterize(final, 64, 64), mask) >= 0.90

    def test_trace_is_an_evolution_trace(self, rng):
        contour = Contour(random_star_polygon(rng))
        _, trace = evolve(contour, zero_force(32, 32), uniform_params(32, 32),
                          SnakeConfig(iterations=3))
        assert isinstance(trace, EvolutionTrace)
        assert trace.energies.shape == (4,)
        assert trace.displacements.shape == (4,)

    def test_energies_are_computed_only_when_read(self, monkeypatch):
        import contourflow.snake as snake_module

        calls = []
        original = snake_module.energy_eval

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(snake_module, "energy_eval", counting)
        mask = disk_mask(64, 64, (32.0, 32.0), 18.0)
        force = lcdvf(mask_to_dt(mask), 2.0)
        start = circle_to_contour(inscribed_circle(mask), 60, 64, 64)
        params = ParameterSet.uniform(64, 64, kappa=0.2)
        final, trace = evolve(start, force, params, SnakeConfig(iterations=7))
        assert calls == []
        energies = trace.energies
        assert len(calls) == 8
        assert trace.contours[-1] is final
        for contour, energy in zip(trace.contours, energies):
            assert energy == original(contour, force.potential, params)


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
        config = SnakeConfig(iterations=iterations, time_step=tau, node_count=nodes,
                             resample_each_step=resample)

        clamped = start.clamped(width, height)
        assert np.array_equal(evolve_step(clamped, force, params, config).nodes,
                              evolve_step_reference(clamped, force, params, config))
        got = _evolve_outcome(lambda: evolve(start, force, params, config)[1].contours)
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
        start = circle_to_contour(inscribed_circle(mask), 60, 64, 64)
        evolve(start, force, ParameterSet.uniform(64, 64, kappa=0.2),
               SnakeConfig(iterations=13))
        assert len(calls) == 13


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
            evolve(start, force, params, SnakeConfig(iterations=200))

    def test_degenerate_step_aborts(self):
        # every node is pushed into the same corner: zero area at step 1
        force = ForceField(np.full((16, 16, 2), 100.0), np.zeros((16, 16)))
        start = square_contour(4.0, center=(8.0, 8.0))
        with pytest.raises(EvolveError, match="collapsed or reversed at iteration 1 "):
            evolve(start, force, uniform_params(16, 16), SnakeConfig(time_step=1.0))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), kappa=st.floats(-5.0, 5.0),
           circumscribed=st.booleans())
    def test_raises_with_iteration_or_keeps_invariants(self, seed, kappa, circumscribed):
        rng = np.random.default_rng(seed)
        size = 40
        mask = random_blob_mask(rng, size, size)
        force = lcdvf(mask_to_dt(mask), 2.0)
        circle = (circumscribed_circle if circumscribed else inscribed_circle)(mask)
        start = circle_to_contour(circle, 30, size, size)
        params = ParameterSet.uniform(size, size, kappa=kappa)
        config = SnakeConfig(iterations=60, node_count=30)
        try:
            _, trace = evolve(start, force, params, config)
        except EvolveError as exc:
            found = re.search(r"at iteration (\d+)", str(exc))
            assert found and 1 <= int(found.group(1)) <= config.iterations
            return
        assert len(trace) == config.iterations + 1
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
        with pytest.raises(ValueError):
            SnakeConfig(node_count=2)

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
            evolve(contour, zero_force(32, 32), uniform_params(16, 16), SnakeConfig())
