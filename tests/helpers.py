"""Shared test utilities: random instances, random tours, small oracles."""

import itertools
import json
import tracemalloc

import numpy as np

from qtsp import nqs
from qtsp.instance import Instance


def random_symmetric_instance(n: int, seed: int, scale: float = 1.0) -> Instance:
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.1, scale, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return Instance(dist=d)


def _six_near_1e200() -> np.ndarray:
    d = np.triu(np.random.default_rng(0).uniform(0.5e200, 1e200, size=(6, 6)), 1)
    return d + d.T


# distance matrices whose tour lengths, or the squared spread of a sample of
# them, overflow a float; Instance refuses both
OVERFLOWING_DISTANCES = {
    "five-at-1e308": 1e308 * (1.0 - np.eye(5)),
    "six-near-1e200": _six_near_1e200(),
}


def write_instance_file(path, dist: np.ndarray):
    """An instance file of these distances, written without Instance's checks."""
    path.write_text(json.dumps({"n_cities": len(dist), "coords": None, "dist": dist.tolist()}))
    return path


def random_tour(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(1, n + 1)).astype(np.int64)


def exhaustive_optimum(instance: Instance) -> tuple[np.ndarray, float]:
    """Independent brute force: scan all N! ordered tours one at a time, no
    symmetry tricks; the first shortest tour in lexicographic order and its
    length, summed leg by leg as the per-permutation loop once did."""
    n = instance.n_cities
    best_tour, best = None, np.inf
    for perm in itertools.permutations(range(1, n + 1)):
        order = np.array(perm, dtype=np.int64)
        nxt = np.roll(order, -1)
        length = float(instance.dist[order - 1, nxt - 1].sum())
        if length < best:
            best_tour, best = order, length
    return best_tour, best


def pinned_born_law(log_psi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N-1)! tours with city 1 first, in lexicographic order, and their
    exact Born probabilities |psi|^2 / sum |psi|^2 under log_psi, which maps
    a (B, N) tour batch to its (B,) complex log psi."""
    tours = np.array([(1, *rest) for rest in itertools.permutations(range(2, n + 1))],
                     dtype=np.int64)
    log_weight = 2.0 * np.real(log_psi(tours))
    weight = np.exp(log_weight - log_weight.max())
    return tours, weight / weight.sum()


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


def traced_peak(fn, *args) -> int:
    """Bytes of the tracemalloc peak of fn(*args), after one call that
    fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
