"""Shared test utilities: random instances, random tours, small oracles."""

import itertools

import numpy as np

from qtsp import nqs
from qtsp.instance import Instance


def random_symmetric_instance(n: int, seed: int, scale: float = 1.0) -> Instance:
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, scale, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return Instance(dist=d)


def random_tour(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(1, n + 1)).astype(np.int64)


def exhaustive_optimum(instance: Instance) -> float:
    """Independent brute force: scan all N! ordered tours, no symmetry tricks."""
    n = instance.n_cities
    best = np.inf
    for perm in itertools.permutations(range(1, n + 1)):
        order = np.array(perm)
        nxt = np.roll(order, -1)
        best = min(best, float(instance.dist[order - 1, nxt - 1].sum()))
    return best


def finite_difference(fn, flat, step=1e-5):
    """Central differences of a complex-valued fn over a real vector."""
    out = np.empty(flat.size, dtype=complex)
    for k in range(flat.size):
        plus = flat.copy()
        plus[k] += step
        minus = flat.copy()
        minus[k] -= step
        out[k] = (fn(plus) - fn(minus)) / (2 * step)
    return out


def window_preactivations(params, configs):
    """(B, N, F) complex pre-activations of the periodic convolution, each
    position's window read off with np.roll, independent of qtsp.nqs."""
    configs = np.asarray(configs, dtype=float)
    windows = np.stack([np.roll(configs, -j, axis=1) for j in range(params.kernel_size)], axis=-1)
    return windows @ params.w + params.b


def kink_free_cnn_params(shape, scale, configs, margin=5e-3, start_seed=0):
    """First seeded parameter draw whose pre-activations stay clear of the
    rectifier kink on every given configuration."""
    configs = np.atleast_2d(np.asarray(configs, dtype=float))
    for seed in range(start_seed, start_seed + 1000):
        params = nqs.init_params("cnn", shape, scale, seed)
        pre = window_preactivations(params, configs)
        if min(np.abs(pre.real).min(), np.abs(pre.imag).min()) > margin:
            return params
    raise AssertionError("no kink-free parameter draw found")
