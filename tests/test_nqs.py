import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import finite_difference, kink_free_cnn_params, traced_peak, window_preactivations
from qtsp import nqs
from qtsp.encoding import tours_to_sigma
from qtsp.errors import InvalidTourError
from qtsp.vmc import estimate_gradient

mp.mp.dps = 50


def random_spins(n, rng):
    return np.where(rng.random(n) < 0.5, 1.0, -1.0)


def mpmath_rbm_log_psi(params, sigma):
    """High-precision direct evaluation of the product formula."""
    def c(z):
        return mp.mpc(z.real, z.imag)

    psi = mp.e ** sum(c(a) * s for a, s in zip(params.a, sigma))
    for l in range(params.n_hidden):
        theta = c(params.b[l]) + sum(c(w) * s for w, s in zip(params.w[l], sigma))
        psi *= 2 * mp.cosh(theta)
    return complex(mp.log(psi))


def loop_cnn_log_psi(params, config):
    """Position-by-position evaluation, independent of the vectorized path."""
    n = len(config)
    total = complex(params.dense_b)
    for f in range(params.n_channels):
        pooled = 0j
        for i in range(n):
            pre = complex(params.b[f])
            for k in range(params.kernel_size):
                pre += complex(params.w[k, f]) * config[(i + k) % n]
            pooled += max(pre.real, 0.0) + 1j * max(pre.imag, 0.0)
        total += complex(params.dense_w[f]) * pooled
    return total


class TestRbmLogPsi:
    def test_zero_params(self):
        params = nqs.init_params("rbm", (4, 3), 0.0, 0)
        sigma = np.array([1.0, -1.0, 1.0, 1.0])
        assert nqs.rbm_log_psi(params, sigma) == pytest.approx(3 * np.log(2))

    def test_visible_bias_only(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        params = nqs.RbmParams(a=a, b=np.zeros(2), w=np.zeros((2, 5)))
        sigma = random_spins(5, rng)
        expected = a @ sigma + 2 * np.log(2)
        assert nqs.rbm_log_psi(params, sigma) == pytest.approx(expected, abs=1e-12)

    def test_matches_high_precision_product_formula(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = nqs.init_params("rbm", (4, 3), 0.1, seed)
            sigma = random_spins(4, rng)
            value = nqs.rbm_log_psi(params, sigma)
            direct = mpmath_rbm_log_psi(params, sigma)
            assert abs(value - direct) < 1e-12

    def test_overflow_safe_at_large_arguments(self):
        b = np.array([500.0 + 0.3j, -500.0 + 1.0j])
        params = nqs.RbmParams(a=np.zeros(3), b=b, w=np.zeros((2, 3)))
        value = nqs.rbm_log_psi(params, np.ones(3))
        assert np.isfinite(value.real) and np.isfinite(value.imag)
        # log(2 cosh z) -> |Re z| + log(1 + e^(-2|Re z|)) term by term
        assert value.real == pytest.approx(1000.0, abs=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        params = nqs.init_params("rbm", (6, 4), 0.2, 5)
        sigmas = np.stack([random_spins(6, rng) for _ in range(10)])
        batch = nqs.rbm_log_psi(params, sigmas)
        single = np.array([nqs.rbm_log_psi(params, sigma) for sigma in sigmas])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        params = nqs.init_params("rbm", (4, 2), 0.1, 0)
        with pytest.raises(ValueError, match=r"expected \(B, 4\) spin batch"):
            nqs.rbm_log_psi(params, np.ones(5))

    @pytest.mark.parametrize("evaluate, message", [
        (nqs.rbm_log_psi, r"expected \(B, 4\) spin batch"),
        (nqs.rbm_log_derivatives, r"expected \(B, 4\) spin batch"),
    ], ids=["log_psi", "log_derivatives"])
    def test_dimension_mismatch_every_entry_point(self, evaluate, message):
        """Five spins for a four-spin network."""
        params = nqs.init_params("rbm", (4, 2), 0.1, 0)
        with pytest.raises(ValueError, match=message):
            evaluate(params, np.ones((2, 5)))

    @pytest.mark.parametrize("spins", [
        np.array(["1", "-1", "1", "1"]),
        np.array([True, False, True, True]),
        np.array([1.0, None, 1.0, -1.0], dtype=object),
        np.array([1.0, -1.0, 1.0, 1.0], dtype=complex),
    ], ids=["str", "bool", "object-none", "complex"])
    @pytest.mark.parametrize("evaluate", [
        nqs.rbm_log_psi,
        lambda params, sigma: nqs.rbm_log_derivatives(params, sigma[None]),
        nqs.rbm_grad_log_psi,
    ], ids=["log_psi", "log_derivatives", "grad_log_psi"])
    def test_spins_of_no_integer_or_float_dtype_are_refused(self, evaluate, spins):
        """"1" and True are no spins, None is no number and 1+0j warns on a
        cast: each is refused by the shape check's ValueError, before any
        cast and with no warning (warnings fail the test run)."""
        params = nqs.init_params("rbm", (4, 2), 0.1, 0)
        with pytest.raises(ValueError, match=r"expected \(B, 4\) spin batch"):
            evaluate(params, spins)

    def test_deterministic(self):
        params = nqs.init_params("rbm", (4, 2), 0.3, 9)
        sigma = np.array([1.0, 1.0, -1.0, 1.0])
        assert nqs.rbm_log_psi(params, sigma) == nqs.rbm_log_psi(params, sigma)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), visible=st.integers(1, 16), hidden=st.integers(1, 8),
           batch=st.integers(1, 8), scale=st.sampled_from([0.0, 0.02, 1.0]),
           seed=st.integers(0, 2**32 - 1), spins=st.booleans())
    def test_real_products_match_complex_formula(self, data, visible, hidden, batch, scale, seed,
                                                 spins):
        """theta and log psi from real products of the real batch agree with
        the complex formula, within 1e-12 of the summed terms' magnitude."""
        params = nqs.init_params("rbm", (visible, hidden), scale, seed)
        if spins:
            sigmas = random_spins((batch, visible), np.random.default_rng(seed))
        else:
            sigmas = data.draw(arrays(np.float64, (batch, visible),
                                      elements=st.floats(-4.0, 4.0)), label="sigmas")
        theta = sigmas.astype(complex) @ params.w.T + params.b
        log_psi = sigmas.astype(complex) @ params.a + nqs.log_2cosh(theta).sum(axis=1)
        theta_size = np.abs(sigmas) @ np.abs(params.w).T + np.abs(params.b)
        log_psi_size = np.abs(sigmas) @ np.abs(params.a) + theta_size.sum(axis=1)

        got_sigmas, got_theta = nqs._rbm_theta(params, sigmas)
        assert np.array_equal(got_sigmas, sigmas)
        assert np.all(np.abs(got_theta - theta) <= 1e-12 * np.maximum(1.0, theta_size))
        got = nqs.rbm_log_psi(params, sigmas)
        assert np.all(np.abs(got - log_psi) <= 1e-12 * np.maximum(1.0, log_psi_size))
        single = nqs.rbm_log_psi(params, sigmas[0])
        assert isinstance(single, complex)
        assert abs(single - log_psi[0]) <= 1e-12 * max(1.0, log_psi_size[0])

    def test_log_2cosh_matches_the_textbook_steps_bit_for_bit(self):
        """One scratch array and in-place ufuncs give the bits of the
        allocate-per-step formula, on random and on special values."""
        special = [0.0, -0.0, 1e-300, -5e-324, 1.0, -1.0, 700.0, -700.0, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(4)
        z = np.concatenate([np.array([complex(x, y) for x in special for y in special]),
                            3 * rng.normal(size=484) + 3j * rng.normal(size=484)]).reshape(-1, 11)
        with np.errstate(all="ignore"):
            flip = np.where(z.real < 0, -1.0, 1.0)
            s = z * flip
            expected = (s + np.log1p(np.exp(-2.0 * s))).tobytes()
            given = z.copy()
            assert nqs.log_2cosh(given).tobytes() == expected
            assert given.tobytes() == z.tobytes()
            assert nqs.log_2cosh(given, out=given) is given
        assert given.tobytes() == expected


class TestRbmTours:
    """The tour kernels read the up columns of the one-hot spins."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), batch=st.integers(1, 64), hidden=st.integers(1, 24),
           scale=st.sampled_from([0.0, 0.02, 1.0]), seed=st.integers(0, 2**32 - 1))
    @example(n=12, batch=64, hidden=24, scale=0.02, seed=0)
    def test_log_psi_matches_the_spin_batch(self, n, batch, hidden, scale, seed):
        """Within 1e-12 of the summed terms' magnitude."""
        rng = np.random.default_rng(seed)
        params = nqs.init_params("rbm", (n * n, hidden), scale, seed)
        tours = np.stack([rng.permutation(np.arange(1, n + 1)) for _ in range(batch)])
        size = np.abs(params.a).sum() + (np.abs(params.w).sum(axis=1) + np.abs(params.b)).sum()
        got = nqs._rbm_tour_log_psi(params, tours)
        assert got.shape == (batch,)
        np.testing.assert_allclose(got, nqs.rbm_log_psi(params, tours_to_sigma(tours)),
                                   rtol=0, atol=1e-12 * max(1.0, size))

    @pytest.mark.parametrize("n_visible", [2, 5, 8, 10])
    def test_a_network_of_no_square_size_takes_no_tours(self, n_visible):
        """Tours as wide as the network's rounded-down root still raise
        InvalidTourError, not numpy's reshape error."""
        params = nqs.init_params("rbm", (n_visible, 2), 0.1, 0)
        width = math.isqrt(n_visible)
        tours = np.array([np.arange(1, width + 1), np.arange(width, 0, -1)])
        with pytest.raises(InvalidTourError):
            nqs._rbm_tour_log_psi(params, tours)
        with pytest.raises(InvalidTourError):
            nqs._rbm_tour_energy_gradient(params, tours, np.arange(2.0))

    def test_a_single_config_entry_refuses_a_batch(self):
        params = nqs.init_params("rbm", (4, 2), 0.1, 0)
        with pytest.raises(ValueError, match="expected a single configuration"):
            nqs.rbm_grad_log_psi(params, np.ones((2, 4)))


def rbm_blocks(row, m, h):
    """(a, b, w) parts of a flat RBM row, each [Re, Im], laid out by hand:
    every block raveled, the two parts of each entry side by side."""
    a, b, w = np.split(row, np.cumsum([2 * m, 2 * h]))
    return (a[0::2], a[1::2]), (b[0::2], b[1::2]), (w[0::2].reshape(h, m), w[1::2].reshape(h, m))


def cnn_blocks(row, k, f):
    """(w, b, dense_w, dense_b) parts of a flat CNN row, each [Re, Im]."""
    w, b, dw, db = np.split(row, np.cumsum([2 * k * f, 2 * f, 2 * f]))
    return (w[0::2].reshape(k, f), w[1::2].reshape(k, f)), (b[0::2], b[1::2]), (dw[0::2], dw[1::2]), tuple(db)


class TestRbmGrad:
    def test_zero_params(self):
        params = nqs.init_params("rbm", (4, 3), 0.0, 0)
        sigma = np.array([1.0, -1.0, -1.0, 1.0])
        a, b, w = rbm_blocks(nqs.rbm_grad_log_psi(params, sigma).to_flat(), 4, 3)
        assert np.array_equal(a[0], sigma) and np.array_equal(a[1], 1j * sigma)
        assert np.array_equal(b[0], np.zeros(3)) and np.array_equal(b[1], np.zeros(3))
        assert np.array_equal(w[0], np.zeros((3, 4))) and np.array_equal(w[1], np.zeros((3, 4)))

    def test_visible_gradient_is_always_sigma(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            params = nqs.init_params("rbm", (5, 3), 0.5, seed)
            sigma = random_spins(5, rng)
            a, _, _ = rbm_blocks(nqs.rbm_grad_log_psi(params, sigma).to_flat(), 5, 3)
            assert np.array_equal(a[0], sigma) and np.array_equal(a[1], 1j * sigma)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            params = nqs.init_params("rbm", (9, 5), 0.15, seed)
            sigma = random_spins(9, rng)
            grad = nqs.rbm_grad_log_psi(params, sigma).to_flat()
            fd = finite_difference(
                lambda f: nqs.rbm_log_psi(nqs.RbmParams.from_flat(f, 9, 5), sigma),
                params.to_flat(),
            )
            np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-8)


class TestCnnLogPsi:
    def test_zero_params_returns_dense_bias(self):
        params = nqs.CnnParams(w=np.zeros((2, 3)), b=np.zeros(3), dense_w=np.zeros(3),
                               dense_b=0.25 + 0.5j)
        assert nqs.cnn_log_psi(params, np.array([1, 3, 2, 4])) == 0.25 + 0.5j

    def test_unit_bias_single_channel(self):
        params = nqs.CnnParams(w=np.zeros((2, 1)), b=np.array([1.0 + 0j]),
                               dense_w=np.array([1.0 + 0j]), dense_b=0.0)
        for n in ([1, 2, 3, 4], [2, 1, 4, 3, 5]):
            assert nqs.cnn_log_psi(params, np.array(n)) == len(n) * (1 + 0j)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            params = nqs.init_params("cnn", (2, 3), 0.3, seed)
            config = rng.permutation(np.arange(1, 5))
            value = nqs.cnn_log_psi(params, config)
            assert abs(value - loop_cnn_log_psi(params, config)) < 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        for n_cities in (4, 7):
            for trial in range(10):
                params = nqs.init_params("cnn", (min(3, n_cities), 4), 0.3, trial)
                config = rng.permutation(np.arange(1, n_cities + 1))
                base = nqs.cnn_log_psi(params, config)
                for k in range(1, n_cities):
                    shifted = np.roll(config, -k)
                    assert abs(nqs.cnn_log_psi(params, shifted) - base) < 1e-12

    def test_batch_matches_single(self):
        params = nqs.init_params("cnn", (3, 2), 0.4, 2)
        rng = np.random.default_rng(5)
        configs = np.stack([rng.permutation(np.arange(1, 7)) for _ in range(6)])
        batch = nqs.cnn_log_psi(params, configs)
        single = np.array([nqs.cnn_log_psi(params, config) for config in configs])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_params_are_read_only_copies(self):
        """Both kinds copy every block, even one already complex128 or a
        view of from_flat's input, and refuse writes: the evaluations cache
        derived forms per object."""
        for cls in (nqs.CnnParams, nqs.RbmParams):
            blocks = {name: np.zeros(shape, dtype=complex)
                      for name, shape in cls.block_shapes(2, 3).items()}
            flat = np.zeros(2 * sum(block.size for block in blocks.values()))
            for params, source in ((cls(**blocks), list(blocks.values())),
                                   (cls.from_flat(flat, 2, 3), [flat])):
                for array in source:
                    array[...] = 1.0
                for name in blocks:
                    assert not getattr(params, name).any()
                    with pytest.raises(ValueError):
                        getattr(params, name)[...] = 1.0

    def test_kernel_larger_than_ring(self):
        params = nqs.init_params("cnn", (5, 2), 0.1, 0)
        with pytest.raises(ValueError, match="kernel size 5 exceeds configuration length 3"):
            nqs.cnn_log_psi(params, np.array([1, 2, 3]))

    @pytest.mark.parametrize("evaluate", [
        nqs.cnn_log_psi,
        nqs.cnn_log_derivatives,
        lambda params, configs: nqs._cnn_energy_gradient(params, configs, np.arange(len(configs))),
    ], ids=["log_psi", "log_derivatives", "energy_gradient"])
    def test_kernel_larger_than_ring_every_entry_point(self, evaluate):
        params = nqs.init_params("cnn", (5, 2), 0.1, 0)
        with pytest.raises(ValueError, match="kernel size 5 exceeds configuration length 3"):
            evaluate(params, np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), data=st.data(), batch=st.integers(1, 8),
           channels=st.integers(1, 6), scale=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_circulant_matches_window_form(self, n, data, batch, channels, scale, seed):
        """The scattered circulant gives every position's pre-activations
        [Re | Im], as the windows times the filter do."""
        kernel = data.draw(st.integers(1, n), label="kernel")
        rng = np.random.default_rng(seed)
        params = nqs.init_params("cnn", (kernel, channels), scale, seed)
        levels = np.stack([rng.permutation(np.arange(1, n + 1)) for _ in range(batch)]).astype(float)
        conv, bias, _ = nqs._cnn_unrolled(params, n)
        pre = window_preactivations(params, levels)
        np.testing.assert_allclose((levels @ conv + bias).reshape(batch, n, 2 * channels),
                                   np.concatenate([pre.real, pre.imag], axis=-1), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), batch=st.integers(1, 8), kernel=st.integers(1, 12),
           channels=st.integers(1, 6), scale=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_random_shapes_match_loop_oracle(self, n, batch, kernel, channels, scale, seed):
        rng = np.random.default_rng(seed)
        params = nqs.init_params("cnn", (min(kernel, n), channels), scale, seed)
        configs = np.stack([rng.permutation(np.arange(1, n + 1)) for _ in range(batch)])
        values = nqs.cnn_log_psi(params, configs)
        for value, config in zip(values, configs):
            ref = loop_cnn_log_psi(params, config)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


class TestCnnGrad:
    def test_zero_params(self):
        params = nqs.CnnParams(w=np.zeros((2, 2)), b=np.zeros(2), dense_w=np.zeros(2),
                               dense_b=0.0)
        row = nqs.cnn_grad_log_psi(params, np.array([1, 2, 3, 4])).to_flat()
        w, b, dense_w, dense_b = cnn_blocks(row, 2, 2)
        assert dense_b == (1.0, 1j)
        assert np.array_equal(w[0], np.zeros((2, 2)))
        assert np.array_equal(b[1], np.zeros(2))
        # zero pre-activations sit on the kink: subgradient 0, pooled sum 0
        assert np.array_equal(dense_w[0], np.zeros(2))

    def test_dense_weight_gradient_is_pooled_activation(self):
        params = nqs.init_params("cnn", (2, 3), 0.3, 4)
        config = np.array([2, 4, 1, 3], dtype=float)
        pre = window_preactivations(params, config[None, :])[0]
        pooled = (np.maximum(pre.real, 0.0) + 1j * np.maximum(pre.imag, 0.0)).sum(axis=0)
        _, _, dense_w, _ = cnn_blocks(nqs.cnn_grad_log_psi(params, config).to_flat(), 2, 3)
        np.testing.assert_allclose(dense_w[0], pooled, atol=1e-14)
        np.testing.assert_allclose(dense_w[1], 1j * pooled, atol=1e-14)

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            config = rng.permutation(np.arange(1, 5))
            params = kink_free_cnn_params((2, 3), 0.4, config, start_seed=trial * 50)
            grad = nqs.cnn_grad_log_psi(params, config).to_flat()
            fd = finite_difference(
                lambda f: nqs.cnn_log_psi(nqs.CnnParams.from_flat(f, 2, 3), config),
                params.to_flat(),
            )
            np.testing.assert_allclose(fd, grad, rtol=1e-5, atol=1e-8)

    def test_batched_derivatives_match_single(self):
        params = nqs.init_params("cnn", (2, 2), 0.3, 11)
        rng = np.random.default_rng(9)
        configs = np.stack([rng.permutation(np.arange(1, 6)) for _ in range(5)])
        o = nqs.cnn_log_derivatives(params, configs.astype(float))
        for row, config in zip(o, configs):
            np.testing.assert_array_equal(row, nqs.cnn_grad_log_psi(params, config.astype(float)).to_flat())


def _random_energies(rng, batch, constant):
    if constant:
        return np.full(batch, rng.uniform(0.0, 100.0))
    return rng.uniform(0.0, 100.0) + rng.uniform(0.0, 10.0) * rng.standard_normal(batch)


def _assert_matches_oracle(grad, oracle, energies, o_matrix, constant):
    """Agreement within 1e-12 max(1, |g|_inf), plus the oracle's own rounding.

    The oracle centres E with a weighted mean, whose error of about
    eps |E|_inf reaches g through sums of |O| entries; where the exact
    gradient cancels to ~0 (a K=1 filter on permutations gives every
    configuration the same O) that rounding alone exceeds 1e-12.
    """
    assert grad.shape == oracle.shape
    rounding = 1e-14 * float(np.abs(energies).max()) * float(np.abs(o_matrix).max())
    np.testing.assert_allclose(
        grad, oracle, rtol=0, atol=1e-12 * max(1.0, float(np.abs(oracle).max())) + rounding)
    if constant:
        assert np.all(grad == 0.0)


class TestEnergyGradient:
    """The contracted gradients against estimate_gradient over the explicit
    (B, 2P) log-derivative matrix."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), batch=st.integers(2, 64), hidden=st.integers(1, 24),
           scale=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1), constant=st.booleans())
    @example(n=6, batch=64, hidden=12, scale=0.1, seed=0, constant=False)
    @example(n=12, batch=512, hidden=24, scale=0.02, seed=1, constant=False)
    @example(n=12, batch=33, hidden=5, scale=0.5, seed=2, constant=True)
    def test_rbm_matches_oracle(self, n, batch, hidden, scale, seed, constant):
        rng = np.random.default_rng(seed)
        params = nqs.init_params("rbm", (n * n, hidden), scale, seed)
        tours = np.stack([rng.permutation(np.arange(1, n + 1)) for _ in range(batch)])
        energies = _random_energies(rng, batch, constant)
        o_matrix = nqs.rbm_log_derivatives(params, tours_to_sigma(tours))
        _assert_matches_oracle(nqs._rbm_tour_energy_gradient(params, tours, energies),
                               estimate_gradient(energies, o_matrix), energies, o_matrix, constant)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), batch=st.integers(2, 64), kernel=st.integers(1, 12),
           channels=st.integers(1, 8), scale=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), constant=st.booleans())
    @example(n=6, batch=64, kernel=3, channels=4, scale=0.3, seed=0, constant=False)
    @example(n=12, batch=512, kernel=6, channels=8, scale=0.02, seed=1, constant=False)
    @example(n=12, batch=33, kernel=12, channels=3, scale=0.5, seed=2, constant=True)
    @example(n=48, batch=64, kernel=4, channels=4, scale=0.3, seed=3, constant=False)
    def test_cnn_matches_oracle(self, n, batch, kernel, channels, scale, seed, constant):
        rng = np.random.default_rng(seed)
        params = nqs.init_params("cnn", (min(kernel, n), channels), scale, seed)
        configs = np.stack([rng.permutation(np.arange(1, n + 1))
                            for _ in range(batch)]).astype(float)
        energies = _random_energies(rng, batch, constant)
        o_matrix = nqs.cnn_log_derivatives(params, configs)
        _assert_matches_oracle(nqs._cnn_energy_gradient(params, configs, energies),
                               estimate_gradient(energies, o_matrix), energies, o_matrix, constant)

    def test_shape_guards(self):
        rbm = nqs.init_params("rbm", (4, 2), 0.1, 0)
        cnn = nqs.init_params("cnn", (2, 2), 0.1, 0)
        configs = np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            nqs._rbm_tour_energy_gradient(rbm, configs, np.ones(4))
        with pytest.raises(ValueError):
            nqs._rbm_tour_energy_gradient(rbm, configs[:1], np.ones(1))
        with pytest.raises(ValueError):
            nqs._cnn_energy_gradient(cnn, configs, np.ones(2))
        with pytest.raises(ValueError):
            nqs._cnn_energy_gradient(cnn, configs[0], np.ones(2))


class TestGradientMemory:
    """The covariance gradients hold no complex or second copy of the
    sample batch, and the spin network's holds no spin batch at all
    (N=12, B=512, midpoint shapes)."""

    n, batch = 12, 512

    def _tours(self, rng, n=None):
        n = n or self.n
        return np.stack([rng.permutation(np.arange(1, n + 1)) for _ in range(self.batch)])

    def test_rbm_peak_below_the_spin_batch(self):
        rng = np.random.default_rng(0)
        params = nqs.init_params("rbm", (self.n ** 2, 2 * self.n), 0.05, 0)
        tours = self._tours(rng)
        energies = rng.uniform(0.0, 100.0, self.batch)
        assert (traced_peak(nqs._rbm_tour_energy_gradient, params, tours, energies)
                < tours_to_sigma(tours).nbytes)

    def test_rbm_log_psi_peak_within_two_and_a_half_thetas(self):
        """log(2 cosh theta) works in its result and one scratch array."""
        rng = np.random.default_rng(0)
        params = nqs.init_params("rbm", (self.n ** 2, 2 * self.n), 0.05, 0)
        sigmas = tours_to_sigma(self._tours(rng))
        theta = self.batch * params.n_hidden * 16                  # (B, H) complex128 bytes
        assert traced_peak(nqs.rbm_log_psi, params, sigmas) <= 2.5 * theta

    def test_cnn_peak_below_two_and_a_half_preactivation_arrays(self):
        rng = np.random.default_rng(0)
        kernel, channels = 3, 4
        params = nqs.init_params("cnn", (kernel, channels), 0.3, 0)
        configs = self._tours(rng).astype(float)
        energies = rng.uniform(0.0, 100.0, self.batch)
        preactivations = self.batch * self.n * 2 * channels * 8   # (B, N * 2F) float64 bytes
        assert traced_peak(nqs._cnn_energy_gradient, params, configs, energies) < 2.5 * preactivations

    @pytest.mark.parametrize("n", [12, 48])
    def test_cnn_peak_below_half_a_preactivation_array(self, n):
        """The convolutional gradient goes position by position: no
        (B, N * 2F) pre-activation or (B, N, K+1) window array."""
        rng = np.random.default_rng(0)
        kernel, channels = 3, 4
        params = nqs.init_params("cnn", (kernel, channels), 0.3, 0)
        configs = self._tours(rng, n).astype(float)
        energies = rng.uniform(0.0, 100.0, self.batch)
        preactivations = self.batch * n * 2 * channels * 8        # (B, N * 2F) float64 bytes
        assert traced_peak(nqs._cnn_energy_gradient, params, configs, energies) < preactivations / 2


class TestInitParams:
    def test_zero_scale(self):
        params = nqs.init_params("rbm", (4, 2), 0.0, 3)
        assert not params.a.any() and not params.b.any() and not params.w.any()

    def test_same_seed_identical(self):
        a = nqs.init_params("cnn", (3, 4), 0.05, 123)
        b = nqs.init_params("cnn", (3, 4), 0.05, 123)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        assert np.array_equal(a.dense_w, b.dense_w) and a.dense_b == b.dense_b

    def test_different_seed_differs(self):
        a = nqs.init_params("rbm", (4, 2), 0.05, 1)
        b = nqs.init_params("rbm", (4, 2), 0.05, 2)
        assert not np.array_equal(a.w, b.w)

    def test_component_standard_deviation(self):
        params = nqs.init_params("rbm", (100, 50), 0.01, 0)
        draws = np.concatenate([params.w.real.ravel(), params.w.imag.ravel()])
        assert draws.size >= 10_000
        assert abs(draws.std() - 0.01) / 0.01 < 0.05

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            nqs.init_params("mlp", (2, 2), 0.1, 0)

    def test_negative_scale(self):
        with pytest.raises(ValueError, match="scale must be non-negative"):
            nqs.init_params("rbm", (2, 2), -0.1, 0)


def assert_same_params(restored, params):
    """Same kind, same blocks, and the same flat vector bit for bit."""
    assert type(restored) is type(params)
    for name, value in vars(params).items():
        assert np.array_equal(getattr(restored, name), value)
    assert restored.to_flat().tobytes() == params.to_flat().tobytes()


# parameter draws over random shapes; scale 0 gives signed zeros
random_shapes = dict(rows=st.integers(1, 7), cols=st.integers(1, 7),
                     scale=st.sampled_from([0.0, 0.02, 1.0]), seed=st.integers(0, 2**32 - 1))

class TestFlatLayout:
    @settings(max_examples=40, deadline=None)
    @given(**random_shapes)
    @example(rows=5, cols=3, scale=0.2, seed=6)
    def test_rbm_round_trip(self, rows, cols, scale, seed):
        params = nqs.init_params("rbm", (rows, cols), scale, seed)
        assert_same_params(nqs.RbmParams.from_flat(params.to_flat(), rows, cols), params)

    @settings(max_examples=40, deadline=None)
    @given(**random_shapes)
    @example(rows=3, cols=2, scale=0.2, seed=6)
    def test_cnn_round_trip(self, rows, cols, scale, seed):
        params = nqs.init_params("cnn", (rows, cols), scale, seed)
        assert_same_params(nqs.CnnParams.from_flat(params.to_flat(), rows, cols), params)

    def test_block_order(self):
        rbm = nqs.RbmParams(a=[1, 2j], b=[3], w=[[4, 5]])
        np.testing.assert_array_equal(rbm.to_flat(), [1, 0, 0, 2, 3, 0, 4, 0, 5, 0])
        cnn = nqs.CnnParams(w=[[1j], [2]], b=[3], dense_w=[4], dense_b=5 + 6j)
        np.testing.assert_array_equal(cnn.to_flat(), [0, 1, 2, 0, 3, 0, 4, 0, 5, 6])

    @pytest.mark.parametrize("cls,name,shape", [
        (nqs.RbmParams, "w", (2, 3)),        # transposed
        (nqs.RbmParams, "w", (6,)),
        (nqs.RbmParams, "a", ()),
        (nqs.CnnParams, "w", (2, 2)),        # two channels, three biases
        (nqs.CnnParams, "w", (6,)),
        (nqs.CnnParams, "dense_b", (2,)),
    ], ids=["rbm-w-transposed", "rbm-w-1d", "rbm-a-0d", "cnn-w-mismatched", "cnn-w-1d",
            "cnn-dense_b-2"])
    def test_inconsistent_block_shapes_are_rejected(self, cls, name, shape):
        blocks = {n: np.zeros(s) for n, s in cls.block_shapes(2, 3).items()}
        blocks[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"inconsistent {cls.kind} block shapes"):
            cls(**blocks)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            nqs.RbmParams.from_flat(np.zeros(7), 4, 2)

