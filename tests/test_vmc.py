import itertools
import json
import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import (
    pinned_born_law,
    random_symmetric_instance,
    traced_peak,
    window_preactivations,
)
from qtsp import nqs
from qtsp.encoding import tours_to_sigma
from qtsp.errors import InvalidTourError
from qtsp.harness import default_target, midpoint_vmc_config
from qtsp.instance import (
    Instance,
    brute_force_optimum,
    linear_instance,
    planted_optimum,
    tour_length,
    tour_lengths,
)
from qtsp.sampler import SamplerConfig, init_chains, run_chains
from qtsp.vmc import (
    AdamState,
    RunRecord,
    VmcConfig,
    adam_update,
    estimate_gradient,
    init_network,
    local_energies,
    train,
)


def all_tours(n):
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)


class TestLocalEnergy:
    def test_batched_guard(self):
        with pytest.raises(InvalidTourError):
            local_energies(linear_instance(3), np.array([[1, 2, 3], [1, 1, 2]]))

    def test_rows_of_another_width_are_invalid(self):
        with pytest.raises(InvalidTourError):
            local_energies(linear_instance(4), np.array([[1, 2, 3], [3, 2, 1]]))


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

    @pytest.mark.parametrize("grad, lr", [(1e200, 0.05), (1e10, 1e308)],
                             ids=["squared-gradient", "learning-rate"])
    def test_overflowing_update_reports_step(self, grad, lr):
        """A finite gradient whose update overflows (g * g, or lr * m_hat
        over sqrt(v_hat)) raises naming the step, and warns about nothing."""
        state = AdamState(first_moment=np.zeros(2), second_moment=np.zeros(2), step_count=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite update at Adam step 3"):
                adam_update(state, np.zeros(2), np.array([grad, 0.5]), self.cfg(lr=lr))

    def test_second_moment_nonnegative(self):
        state = AdamState.zeros(3)
        _, _ = adam_update(state, np.zeros(3), np.array([1.0, -2.0, 0.0]), self.cfg())
        rng = np.random.default_rng(0)
        for _ in range(10):
            state, _ = adam_update(state, np.zeros(3), rng.normal(size=3), self.cfg())
        assert np.all(state.second_moment >= 0)

    @staticmethod
    def _draw(rng, p):
        state = AdamState(first_moment=rng.normal(size=p), second_moment=rng.uniform(size=p),
                          step_count=int(rng.integers(0, 50)))
        return state, rng.normal(size=p), 10.0 ** rng.uniform(-9, 3) * rng.normal(size=p)

    def test_leaves_inputs_and_gives_the_textbook_bits(self):
        rng = np.random.default_rng(5)
        cfg = self.cfg(lr=0.013)
        b1, b2 = 0.9, 0.999
        for p in (1, 7, 300):
            state, params, grad = self._draw(rng, p)
            inputs = [x.copy() for x in (state.first_moment, state.second_moment, params, grad)]
            new_state, updated = adam_update(state, params, grad, cfg)
            for before, after in zip(inputs, (state.first_moment, state.second_moment, params, grad)):
                assert before.tobytes() == after.tobytes()
            t = state.step_count + 1
            m = b1 * state.first_moment + (1 - b1) * grad
            v = b2 * state.second_moment + (1 - b2) * grad * grad
            step = cfg.learning_rate * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + 1e-8)
            assert new_state.step_count == t
            assert new_state.first_moment.tobytes() == m.tobytes()
            assert new_state.second_moment.tobytes() == v.tobytes()
            assert updated.tobytes() == (params - step).tobytes()

    def test_peak_within_four_parameter_arrays(self):
        """The two moments, the new parameters and one scratch array, at
        the qubit N=12 midpoint size (P = 7,248)."""
        p = 7248
        state, params, grad = self._draw(np.random.default_rng(6), p)
        assert traced_peak(adam_update, state, params, grad, self.cfg()) < 4.25 * p * 8


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_even_swap_count_reaches_optimum_off_start_parity(self, seed):
        """The midpoint's two swaps per proposal, from a greedy start whose
        parity coset holds no optimal tour: only proposals with an odd swap
        count reach the optimum."""
        inst = random_symmetric_instance(6, 0)
        cfg = midpoint_vmc_config(6, "qudit", seed=seed, max_steps=400)
        assert cfg.sampler.n_swaps == 2
        record = train(inst, cfg, target_energy=default_target(inst))
        assert record.termination_reason == "target-reached"
        assert record.best_energy == pytest.approx(brute_force_optimum(inst)[1], abs=1e-9)

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

    def test_step_lines_carry_the_chains_acceptance_range(self, monkeypatch):
        """acceptance_min and acceptance_max are the lowest and highest of the
        chains' own rates in the step's pass, so they bracket acceptance_rate;
        under a constant amplitude every chain accepts every proposal."""
        def step_lines():
            lines = []
            train(linear_instance(6), midpoint_vmc_config(6, "qudit", seed=3, max_steps=20),
                  sink=lines.append)
            return [line for line in lines if line["type"] == "step"]

        steps = step_lines()
        assert all(s["acceptance_min"] <= s["acceptance_rate"] <= s["acceptance_max"]
                   for s in steps)
        assert any(s["acceptance_min"] < s["acceptance_max"] for s in steps)
        monkeypatch.setattr(nqs, "cnn_log_psi_unchecked", lambda params, tours: np.zeros(len(tours)))
        assert all(s["acceptance_min"] == s["acceptance_rate"] == s["acceptance_max"] == 1.0
                   for s in step_lines())

    def test_record_is_the_same_with_or_without_a_sink(self):
        """train emits every line through one path; its return value and
        RunRecord.footer do not depend on whether anyone reads them."""
        def without_clocks(record):
            return (record.termination_reason, record.best_energy, record.best_tour.tolist(),
                    record.time_to_target_s,
                    [(s.step, s.energy_mean, s.energy_std, s.acceptance_rate, s.best_energy,
                      s.best_tour.tolist()) for s in record.steps])

        cfg = midpoint_vmc_config(5, "qudit", seed=1, max_steps=20)
        lines = []
        streamed = train(linear_instance(5), cfg, sink=lines.append)
        silent = train(linear_instance(5), cfg, sink=None)
        assert without_clocks(silent) == without_clocks(streamed)
        footer = silent.footer()
        assert list(footer) == list(lines[-1])
        assert {**footer, "total_time_s": None} == {**lines[-1], "total_time_s": None}
        # each step line is its StepStats, field for field, in field order
        expected = [{"type": "step", **vars(s), "best_tour": s.best_tour.tolist()}
                    for s in streamed.steps]
        step_lines = [line for line in lines if line["type"] == "step"]
        assert step_lines == expected
        assert [list(line) for line in step_lines] == [list(line) for line in expected]

    @pytest.mark.parametrize("target, reason", [(8.0, "target-reached"), (None, "max-steps")])
    def test_record_reads_its_end_off_its_last_step(self, target, reason):
        cfg = replace(midpoint_vmc_config(5, "qudit", seed=1, max_steps=20),
                      prune_no_improve_steps=1000)
        record = train(linear_instance(5), cfg, target_energy=target)
        last = record.steps[-1]
        assert record.termination_reason == reason
        assert record.best_energy == last.best_energy
        assert record.best_tour is last.best_tour
        assert record.time_to_target_s == (last.wall_clock_s if target is not None else None)

    def test_record_with_no_step_has_a_null_end(self):
        record = RunRecord([], "error", 0.0)
        assert (record.best_energy, record.best_tour, record.time_to_target_s) == (
            math.inf, None, None)
        footer = record.footer()
        assert (footer["best_energy"], footer["best_tour"], footer["time_to_target_s"]) == (
            None, None, None)
        assert (footer["reason"], footer["n_steps"]) == ("error", 0)

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

    @pytest.mark.parametrize("representation", ["qudit", "qubit"])
    def test_never_sorts(self, representation, monkeypatch):
        """Each step's sample is checked by counting labels, so training
        never calls numpy's sort."""
        def forbidden(*args, **kwargs):
            raise AssertionError("train called np.sort")

        monkeypatch.setattr(np, "sort", forbidden)
        cfg = midpoint_vmc_config(8, representation, seed=1, max_steps=3)
        assert train(linear_instance(8), cfg).n_steps == 3

    def test_qubit_training_never_builds_the_spin_batch(self, monkeypatch):
        """The spin network reads tours: neither the (S, N^2) spin batch nor
        the spin-input hidden layer is built, and the column cache holds
        the current parameters only."""
        from dataclasses import replace

        from qtsp import encoding

        def forbidden(*args):
            raise AssertionError("train built a spin batch")

        monkeypatch.setattr(encoding, "tours_to_sigma", forbidden)
        monkeypatch.setattr(nqs, "_rbm_theta", forbidden)
        nqs._rbm_columns.cache_clear()
        cfg = replace(midpoint_vmc_config(6, "qubit", seed=2, max_steps=10),
                      prune_no_improve_steps=1000)
        assert train(linear_instance(6), cfg).n_steps == 10
        assert nqs._rbm_columns.cache_info().currsize == 1

    def test_unrolled_cnn_cache_keeps_only_current_params(self):
        """train makes new parameters at every step, so older circulants are
        never read again and the cache holds one entry."""
        from dataclasses import replace

        nqs._cnn_unrolled.cache_clear()
        cfg = replace(midpoint_vmc_config(6, "qudit", seed=2, max_steps=10),
                      prune_no_improve_steps=1000)
        assert train(linear_instance(6), cfg).n_steps == 10
        assert nqs._cnn_unrolled.cache_info().currsize == 1


def optimal_probability_after_exact_sampling(n, representation, seed, learning_rate=None,
                                             steps=100):
    """Train the midpoint ansatz on i.i.d. draws from its exact |psi|^2 over
    the pinned tours, through the production gradient and Adam with no
    Markov chain; returns the exact probability of the optimal tours."""
    inst = linear_instance(n)
    cfg = midpoint_vmc_config(n, representation, seed=seed, max_steps=steps)
    if learning_rate is not None:
        cfg = replace(cfg, learning_rate=learning_rate)
    params, log_psi, energy_gradient = init_network(cfg, n)
    theta = params.to_flat()
    adam = AdamState.zeros(theta.size)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        tours, p = pinned_born_law(partial(log_psi, params), n)
        sample = tours[rng.choice(len(tours), size=cfg.sampler.sample_size, p=p)]
        grad = energy_gradient(params, sample, local_energies(inst, sample))
        adam, theta = adam_update(adam, theta, grad, cfg)
        params = type(params).from_flat(theta, *params.shape)
    tours, p = pinned_born_law(partial(log_psi, params), n)
    return p[tour_lengths(inst, tours) == planted_optimum(n)].sum()


class TestLearningControl:
    """Both representations learn, and the optimiser is what does it: on
    exact samples at the midpoint rate, P(optimal tour) after 100 steps
    read 1.000 (qubit) and 0.76-0.99 (qudit) over seeds 1-8 at N = 6, 7,
    against 0.12-0.15 / 0.043-0.048 at learning rate 0, near the uniform
    0.133 / 0.044. ACCEPTANCE 2 passes at learning rate 0, so it cannot
    show this."""

    FLOOR = {"qubit": 0.99, "qudit": 0.5}

    @pytest.mark.parametrize("representation", ["qubit", "qudit"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_exact_samples_learn_the_optimum(self, n, representation):
        for seed in (1, 2, 3):
            learned = optimal_probability_after_exact_sampling(n, representation, seed)
            frozen = optimal_probability_after_exact_sampling(n, representation, seed,
                                                              learning_rate=0.0)
            assert learned >= self.FLOOR[representation] and frozen <= 0.2, (seed, learned, frozen)


class TestBuildAnsatz:
    """The network a run starts from: vmc.init_network and the NETWORKS table."""

    def test_qudit_shapes(self):
        cfg = midpoint_vmc_config(6, "qudit", seed=0, max_steps=1)
        params, _, _ = init_network(cfg, 6)
        assert params.kernel_size == cfg.kernel_size
        assert params.n_channels == cfg.n_channels

    def test_qubit_shapes(self):
        cfg = midpoint_vmc_config(6, "qubit", seed=0, max_steps=1)
        params, _, _ = init_network(cfg, 6)
        assert params.n_visible == 36
        assert params.n_hidden == cfg.n_hidden

    def test_init_seed_reproducible(self):
        cfg = midpoint_vmc_config(5, "qudit", seed=7, max_steps=1)
        a, _, _ = init_network(cfg, 5)
        b, _, _ = init_network(cfg, 5)
        assert np.array_equal(a.w, b.w)

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
            init_network(cfg, 4)

    def test_the_sampler_reads_no_labels_on_the_qubit_path(self, monkeypatch):
        """Proposals are swaps of init_chains' tours, so the spin network the
        sampler calls is the unchecked form; the public entry still reads."""
        cfg = midpoint_vmc_config(6, "qubit", seed=1, max_steps=1)
        params, log_psi, _ = init_network(cfg, 6)
        chains = init_chains(linear_instance(6), cfg.sampler)

        def no_reading(*args):
            raise AssertionError("the sampler read tour labels")

        monkeypatch.setattr(nqs, "read_labels", no_reading)
        sample = run_chains(chains, partial(log_psi, params), cfg.sampler)
        assert sample.configs.shape == (cfg.sampler.sample_size, 6)
        with pytest.raises(AssertionError, match="read tour labels"):
            nqs.rbm_tour_log_psi(params, sample.configs)

    @pytest.mark.parametrize("representation", ["qubit", "qudit"])
    def test_training_reads_labels_once_per_step(self, representation, monkeypatch):
        """local_energies reads each step's sample; the sampler and the
        energy gradient that train calls read none."""
        from qtsp import instance
        real, reads = instance.read_labels, []

        def counting(*args, **kwargs):
            reads.append(None)
            return real(*args, **kwargs)

        for module in (instance, nqs):
            monkeypatch.setattr(module, "read_labels", counting)
        cfg = replace(midpoint_vmc_config(5, representation, seed=1, max_steps=3),
                      prune_no_improve_steps=1000)
        assert train(linear_instance(5), cfg).n_steps == 3
        assert len(reads) == 3


class TestArrayContainers:
    """The containers that hold arrays compare by identity and hash, as
    Instance, Chains and the parameter containers do: field-wise == would
    ask an array for one truth value, and a record's clock fields differ
    between two same-seed runs anyway."""

    def test_compare_by_identity_and_hash(self):
        cfg = midpoint_vmc_config(5, "qudit", seed=1, max_steps=2)
        records = [train(linear_instance(5), cfg) for _ in range(2)]
        params, log_psi, _ = init_network(cfg, 5)
        samples = [run_chains(init_chains(linear_instance(5), cfg.sampler),
                              partial(log_psi, params), cfg.sampler) for _ in range(2)]
        pairs = [(AdamState.zeros(2), AdamState.zeros(2)), samples, records,
                 (records[0].steps[0], records[1].steps[0])]
        for a, b in pairs:
            assert a == a and a != b
            assert hash(a) == hash(a) and len({a, b}) == 2
