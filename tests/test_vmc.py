import itertools
import json
import math

import numpy as np
import pytest

from helpers import random_symmetric_instance, window_preactivations
from qtsp import nqs
from qtsp.encoding import tours_to_sigma
from qtsp.errors import InvalidTourError
from qtsp.harness import midpoint_vmc_config
from qtsp.instance import Instance, brute_force_optimum, linear_instance, tour_length
from qtsp.sampler import SamplerConfig, init_chains, run_chains
from qtsp.vmc import (
    AdamState,
    VmcConfig,
    adam_update,
    build_ansatz,
    estimate_gradient,
    local_energies,
    train,
)


def all_tours(n):
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)


class TestLocalEnergy:
    def test_batched_guard(self):
        with pytest.raises(InvalidTourError):
            local_energies(linear_instance(3), np.array([[1, 2, 3], [1, 1, 2]]))


class TestEstimateEnergy:
    def test_uniform_sampler_mean_matches_enumeration(self):
        """Constant psi samples tours uniformly; the mean local energy must sit
        within three standard errors of the enumerated average (20/3 at N=4)."""
        inst = linear_instance(4)
        exact = np.mean([tour_length(inst, t) for t in all_tours(4)])
        assert exact == pytest.approx(20.0 / 3.0, abs=1e-12)
        cfg = SamplerConfig(n_chains=8, n_swaps=7, max_swap_len=4, fix_first=False,
                            sample_size=10_000, seed=31)
        sample = run_chains(init_chains(inst, cfg), lambda t: np.zeros(len(t)), cfg)
        energies = local_energies(inst, sample.configs)
        mean, std = energies.mean(), energies.std(ddof=1)
        assert abs(mean - exact) < 3 * std / math.sqrt(sample.configs.shape[0])


class TestEstimateGradient:
    def test_constant_energy_gives_zero(self):
        o = (np.random.default_rng(0).normal(size=(8, 6))
             + 1j * np.random.default_rng(1).normal(size=(8, 6)))
        g = estimate_gradient(np.full(8, 3.0), o)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_duplicated_config_gives_zero(self):
        o = np.tile(np.array([[1.0 + 2j, -0.5j]]), (6, 1))
        g = estimate_gradient(np.full(6, 9.0), o)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            estimate_gradient(np.ones(3), np.ones((4, 2), dtype=complex))

    @pytest.mark.parametrize("kind", ["cnn", "rbm"])
    def test_exact_distribution_matches_finite_differences(self, kind):
        """Gradient identity under the exact Born distribution over all 24
        tours at N=4, against central differences of the enumerated <H>."""
        inst = linear_instance(4)
        tours = all_tours(4)
        energies = np.array([tour_length(inst, t) for t in tours])

        if kind == "cnn":
            shape = (2, 3)
            params = nqs.init_params("cnn", shape, 0.15, 0)
            pre = window_preactivations(params, tours)
            assert min(np.abs(pre.real).min(), np.abs(pre.imag).min()) > 1e-3

            def log_psi_all(flat):
                p = nqs.CnnParams.from_flat(flat, *shape)
                return np.asarray(nqs.cnn_log_psi(p, tours.astype(float)))

            o_matrix = nqs.cnn_log_derivatives(params, tours.astype(float))
        else:
            shape = (16, 6)
            params = nqs.init_params("rbm", shape, 0.1, 9)
            sigmas = tours_to_sigma(tours)

            def log_psi_all(flat):
                p = nqs.RbmParams.from_flat(flat, *shape)
                return np.asarray(nqs.rbm_log_psi(p, sigmas))

            o_matrix = nqs.rbm_log_derivatives(params, sigmas)

        def exact_h(flat):
            w = np.exp(2 * np.real(log_psi_all(flat)))
            w /= w.sum()
            return float(w @ energies)

        flat = params.to_flat()
        weights = np.exp(2 * np.real(log_psi_all(flat)))
        weights /= weights.sum()
        grad = estimate_gradient(energies, o_matrix, weights=weights)

        step = 1e-5
        fd = np.empty(flat.size)
        for k in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[k] += step
            minus[k] -= step
            fd[k] = (exact_h(plus) - exact_h(minus)) / (2 * step)
        np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-8)


class TestAdam:
    def cfg(self, lr=0.05):
        sampler = SamplerConfig(n_chains=1, n_swaps=1, max_swap_len=1, fix_first=False,
                                sample_size=2, seed=0)
        return VmcConfig(representation="qudit", sampler=sampler, n_channels=1,
                         kernel_size=1, learning_rate=lr)

    def test_zero_gradient_keeps_params(self):
        state = AdamState.zeros(4)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        for _ in range(5):
            state, params = adam_update(state, params, np.zeros(4), self.cfg())
        np.testing.assert_array_equal(params, [1.0, -2.0, 0.5, 3.0])

    def test_zero_learning_rate_keeps_params_bit_exact(self):
        state = AdamState.zeros(3)
        params = np.array([0.25, -1.5, 2.0])
        state, updated = adam_update(state, params, np.array([3.0, -2.0, 0.1]), self.cfg(lr=0.0))
        np.testing.assert_array_equal(updated, params)

    def test_first_step_is_signed_learning_rate(self):
        cfg = self.cfg(lr=0.05)
        state = AdamState.zeros(2)
        grad = np.array([4.0, -0.3])  # |g| >> eps
        _, updated = adam_update(state, np.zeros(2), grad, cfg)
        np.testing.assert_allclose(updated, [-0.05, 0.05], rtol=1e-6)

    def test_step_size_bounded_under_constant_gradient(self):
        cfg = self.cfg(lr=0.01)
        state = AdamState.zeros(1)
        params = np.zeros(1)
        for _ in range(2):
            prev = params.copy()
            state, params = adam_update(state, params, np.array([0.7]), cfg)
            assert abs(params[0] - prev[0]) <= cfg.learning_rate * (1 + 1e-9)

    def test_non_finite_gradient_reports_step(self):
        state = AdamState(first_moment=np.zeros(1), second_moment=np.zeros(1), step_count=6)
        with pytest.raises(ValueError, match="step 7"):
            adam_update(state, np.zeros(1), np.array([math.nan]), self.cfg())

    def test_second_moment_nonnegative(self):
        state = AdamState.zeros(3)
        _, _ = adam_update(state, np.zeros(3), np.array([1.0, -2.0, 0.0]), self.cfg())
        rng = np.random.default_rng(0)
        for _ in range(10):
            state, _ = adam_update(state, np.zeros(3), rng.normal(size=3), self.cfg())
        assert np.all(state.second_moment >= 0)


class TestTrain:
    def test_reaches_planted_optimum_at_five_cities(self):
        inst = linear_instance(5)
        cfg = midpoint_vmc_config(5, "qudit", seed=0, max_steps=2000)
        record = train(inst, cfg, target_energy=8.0)
        assert record.termination_reason == "target-reached"
        assert record.best_energy == 8.0

    def test_constant_energy_prunes_at_exactly_300(self):
        # all pairwise distances equal: every tour has the same length, so
        # the best energy never improves after the first sample
        dist = np.ones((4, 4)) - np.eye(4)
        inst = Instance(dist=dist)
        cfg = midpoint_vmc_config(4, "qudit", seed=5, max_steps=1000)
        record = train(inst, cfg)
        assert record.termination_reason == "no-improvement"
        assert record.n_steps == 300

    def test_wall_clock_prune(self):
        from dataclasses import replace
        cfg = replace(midpoint_vmc_config(6, "qudit", seed=5, max_steps=1000),
                      prune_wall_clock_s=0.0)
        record = train(linear_instance(6), cfg)
        assert record.termination_reason == "time-limit"

    def test_max_steps_reason(self):
        from dataclasses import replace
        cfg = replace(midpoint_vmc_config(5, "qudit", seed=2, max_steps=5),
                      prune_no_improve_steps=1000)
        record = train(linear_instance(5), cfg)  # no target
        assert record.termination_reason == "max-steps"
        assert record.n_steps == 5

    def test_deterministic_apart_from_wall_clock(self):
        inst = linear_instance(7)
        cfg = midpoint_vmc_config(7, "qudit", seed=11, max_steps=40)
        a = train(inst, cfg, target_energy=12.0)
        b = train(inst, cfg, target_energy=12.0)
        assert a.termination_reason == b.termination_reason
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.best_tour, b.best_tour)
        for x, y in zip(a.steps, b.steps):
            assert x.energy_mean == y.energy_mean
            assert x.energy_std == y.energy_std
            assert x.acceptance_rate == y.acceptance_rate
            assert x.best_energy == y.best_energy

    def test_best_energy_monotone_and_bounded(self):
        inst = random_symmetric_instance(7, 4)
        cfg = midpoint_vmc_config(7, "qudit", seed=3, max_steps=60)
        record = train(inst, cfg)
        best = [s.best_energy for s in record.steps]
        assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
        _, optimum = brute_force_optimum(inst)
        assert record.best_energy >= optimum - 1e-9

    def test_best_tour_matches_best_energy(self):
        inst = linear_instance(6)
        cfg = midpoint_vmc_config(6, "qudit", seed=8, max_steps=30)
        record = train(inst, cfg)
        assert tour_length(inst, record.best_tour) == record.best_energy
        for stats in record.steps:
            assert tour_length(inst, stats.best_tour) == stats.best_energy

    def test_jsonl_sink_is_parseable_line_by_line(self):
        lines = []
        cfg = midpoint_vmc_config(5, "qudit", seed=1, max_steps=20)
        record = train(linear_instance(5), cfg, target_energy=8.0,
                       sink=lambda d: lines.append(json.dumps(d)))
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "header"
        assert parsed[0]["config"]["sampler"]["seed"] == 1
        assert all(p["type"] == "step" for p in parsed[1:-1])
        assert parsed[-1]["type"] == "footer"
        assert parsed[-1]["reason"] == record.termination_reason
        assert parsed[-1]["best_energy"] == record.best_energy
        assert len(parsed) == record.n_steps + 2

    def test_qubit_representation_trains(self):
        inst = linear_instance(4)
        cfg = midpoint_vmc_config(4, "qubit", seed=0, max_steps=3000)
        record = train(inst, cfg, target_energy=6.0)
        assert record.termination_reason == "target-reached"
        assert record.best_energy == 6.0

    @pytest.mark.parametrize("representation", ["qudit", "qubit"])
    def test_never_builds_log_derivative_matrix(self, representation, monkeypatch):
        from dataclasses import replace

        def forbidden(*args):
            raise AssertionError("train built the (S, 2P) log-derivative matrix")

        monkeypatch.setattr(nqs, "rbm_log_derivatives", forbidden)
        monkeypatch.setattr(nqs, "cnn_log_derivatives", forbidden)
        cfg = replace(midpoint_vmc_config(5, representation, seed=4, max_steps=5),
                      prune_no_improve_steps=1000)
        record = train(linear_instance(5), cfg)
        assert record.n_steps == 5


class TestBuildAnsatz:
    def test_qudit_shapes(self):
        cfg = midpoint_vmc_config(6, "qudit", seed=0, max_steps=1)
        ansatz = build_ansatz(cfg, 6)
        assert ansatz.params.kernel_size == cfg.kernel_size
        assert ansatz.params.n_channels == cfg.n_channels

    def test_qubit_shapes(self):
        cfg = midpoint_vmc_config(6, "qubit", seed=0, max_steps=1)
        ansatz = build_ansatz(cfg, 6)
        assert ansatz.params.n_visible == 36
        assert ansatz.params.n_hidden == cfg.n_hidden

    def test_init_seed_reproducible(self):
        cfg = midpoint_vmc_config(5, "qudit", seed=7, max_steps=1)
        a = build_ansatz(cfg, 5)
        b = build_ansatz(cfg, 5)
        assert np.array_equal(a.params.w, b.params.w)

    def test_flat_round_trip_through_ansatz(self):
        cfg = midpoint_vmc_config(5, "qudit", seed=7, max_steps=1)
        ansatz = build_ansatz(cfg, 5)
        flat = ansatz.get_flat()
        ansatz.set_flat(flat * 2)
        np.testing.assert_array_equal(ansatz.get_flat(), flat * 2)

    @pytest.mark.parametrize("representation,shape", [
        ("qudit", {"n_hidden": 7}), ("qudit", {"kernel_size": 0}),
        ("qubit", {"n_channels": 2}), ("qubit", {"n_hidden": 0}),
    ], ids=["qudit-with-hidden", "qudit-without-kernel", "qubit-with-channels",
            "qubit-without-hidden"])
    def test_config_takes_exactly_its_own_network_shape(self, representation, shape):
        from dataclasses import replace
        with pytest.raises(ValueError, match="belongs to the|needs"):
            replace(midpoint_vmc_config(4, representation, seed=0, max_steps=1), **shape)

    def test_kernel_guard(self):
        from dataclasses import replace
        cfg = replace(midpoint_vmc_config(4, "qudit", seed=0, max_steps=1), kernel_size=9)
        with pytest.raises(ValueError):
            build_ansatz(cfg, 4)
