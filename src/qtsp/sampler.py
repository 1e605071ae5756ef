"""Metropolis-Hastings sampling over valid tours. Proposals swap tour positions
(1..n_swaps swaps, each within a cyclic distance), so chains never leave the
permutation manifold and the encoding penalties never enter the dynamics;
acceptance follows min(1, |psi(n')/psi(n)|^2) on cached log-amplitudes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .instance import Instance, farthest_city_tour

LogPsiFn = Callable[[np.ndarray], np.ndarray]  # (B, N) int tours -> (B,) complex log psi

_BLOCK_STEPS = 64  # steps of uniforms a chain draws at a time (see _advance)


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int
    n_swaps: int
    max_swap_len: int
    fix_first: bool
    sample_size: int
    seed: int

    def __post_init__(self):
        for name in ("n_chains", "n_swaps", "max_swap_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.sample_size < 1 or self.sample_size % self.n_chains:
            raise ValueError("sample_size must be a positive multiple of n_chains")


@dataclass(eq=False)
class Chains:
    """C Markov chains as one batch, stepped in place. chains[i] is the one-row
    batch of views of row i, which reads as one chain through the properties."""

    tours: np.ndarray                # (C, N) int, each chain's tour
    log_psi: np.ndarray              # (C,) complex, the cached log psi of the tours
    accepted: np.ndarray             # (C,) int, steps accepted
    proposed: np.ndarray             # (C,) int, steps proposed
    rngs: list[np.random.Generator]  # each chain's private stream

    def __len__(self) -> int:
        return len(self.rngs)

    def __getitem__(self, i: int) -> Chains:
        i = range(len(self))[i]  # IndexError past the end also ends iteration
        return Chains(*(field[i:i + 1] for field in vars(self).values()))

    current = property(lambda self: self.tours.squeeze(0).copy())  # later steps leave it alone
    log_psi_current = property(lambda self: self.log_psi.item(),
                               lambda self, value: self.log_psi.fill(value))
    n_accepted = property(lambda self: self.accepted.item())
    n_proposed = property(lambda self: self.proposed.item())
    rng = property(lambda self: self.rngs[0])


@dataclass(frozen=True)
class Sample:
    """Recorded configurations of one sampling pass, merged by chain index."""

    configs: np.ndarray   # (S, N) int
    acceptance_rate: float
    n_proposed: int
    n_accepted: int
    chain_acceptance: np.ndarray  # (C,) each chain's acceptance rate in the pass


def _proposal_tables(n: int, max_swap_len: int, fix_first: bool):
    """Positions eligible as the first pick; each position's partners in the
    cyclic swap range, padded with itself to one (n, width) array; their counts."""
    reach = min(max_swap_len, n - 1)
    banned = {0} if fix_first else set()
    rows = [sorted({(p + d) % n for d in range(-reach, reach + 1)} - {p} - banned)
            for p in range(n)]
    width = max(1, max(map(len, rows)))
    partners = np.array([r + [p] * (width - len(r)) for p, r in enumerate(rows)])
    return np.arange(int(fix_first), n), partners, np.array([len(r) for r in rows])


@lru_cache(maxsize=128)
def _order_scaffold(n: int, max_swap_len: int, fix_first: bool, n_swaps: int):
    """_proposal_order's fixed arrays, built once: the tables, the floats that
    scale its uniforms, the swap indices and the (1, n) identity gather."""
    first, partners, counts = _proposal_tables(n, max_swap_len, fix_first)
    arrays = (first, partners, counts.astype(float), np.array(float(first.shape[0])),
              np.array(float(n_swaps)), np.arange(n_swaps, dtype=float),
              np.arange(n)[None])
    for array in arrays:
        array.flags.writeable = False  # every caller shares them
    return arrays


def _proposal_order(u: np.ndarray, n: int, cfg: SamplerConfig) -> np.ndarray:
    """Gather indices (..., n) of the proposals drawn by uniforms of shape
    (..., 2 * n_swaps + 2), one row per chain-step from the chain's own
    stream: the proposal of a tour is tour[order].

    Swap k takes its first position from column 2k and its partner from
    column 2k + 1, floor(u * m) picking one of m choices; the next column
    draws how many of the swaps are made, uniformly from 1..n_swaps, and
    the last column is the accept decision's. A swap past that count, and
    a position without partners (only N=2 with fix_first), swaps with
    itself. A count of one is always possible, so every tour is reachable.
    """
    lead, u = u.shape[:-1], u.reshape(-1, u.shape[-1])
    first, partners, counts, n_first, n_swaps, swap_index, identity = _order_scaffold(
        n, cfg.max_swap_len, cfg.fix_first, cfg.n_swaps)
    row_start = np.arange(0, u.shape[0] * n, n)[:, None]
    p = first[(u[:, 0:-2:2] * n_first).astype(np.int64)]
    q = partners[p, (u[:, 1:-2:2] * counts[p]).astype(np.int64)]
    np.copyto(q, p, where=u[:, -2:-1] * n_swaps < swap_index)
    flat = identity.repeat(u.shape[0], axis=0).reshape(-1)
    for pk, qk in zip((p + row_start).T, (q + row_start).T):
        flat[pk], flat[qk] = flat[qk], flat[pk]
    return flat.reshape(*lead, n)


def init_chains(instance: Instance, cfg: SamplerConfig) -> Chains:
    """Start each chain on a greedy farthest-city tour, with log psi 0: from
    city 1 with fix_first (whose proposals never move position 1), else
    from a city drawn from the chain's stream, the numbered child of
    SeedSequence(cfg.seed) at its index."""
    n = instance.n_cities
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)
    rngs = [np.random.default_rng(ss) for ss in streams]
    starts = [1 if cfg.fix_first else int(rng.integers(1, n + 1)) for rng in rngs]
    tours = {start: farthest_city_tour(instance, start) for start in set(starts)}
    return Chains(np.stack([tours[start] for start in starts]), np.zeros(cfg.n_chains, complex),
                  *np.zeros((2, cfg.n_chains), dtype=np.int64), rngs)


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN log psi, and inf - inf, are rejected
def _advance(chains: Chains, log_psi: LogPsiFn, cfg: SamplerConfig, n_steps: int,
             record_from: int, refresh: bool = False) -> np.ndarray:
    """Step the chains n_steps times in place from their cached log psi (or,
    with refresh, from a new evaluation of their tours); return the
    (C, n_steps - record_from, N) tours after the steps from record_from on.
    Each chain draws its uniforms _BLOCK_STEPS steps at a time into its rows
    of one (C, block, 2 * n_swaps + 2) array: Generator.random gives the same
    numbers drawn whole or in blocks, so the scratch is O(C * _BLOCK_STEPS * N)
    and the block size never changes a trajectory."""
    tours, current, accepted = chains.tours, chains.log_psi, chains.accepted
    n_chains, n = tours.shape
    row_start = np.arange(0, n_chains * n, n)[:, None]
    configs = np.empty((n_chains, n_steps - record_from, n), dtype=tours.dtype)
    if refresh:
        current[:] = log_psi(tours)
    for block in range(0, n_steps, _BLOCK_STEPS):
        u = np.empty((n_chains, min(_BLOCK_STEPS, n_steps - block), 2 * cfg.n_swaps + 2))
        for rng, rows in zip(chains.rngs, u):
            rng.random(out=rows)
        flat_order = _proposal_order(u, n, cfg)
        flat_order += row_start[:, None]
        # accept iff 1 - u <= |psi_new/psi|^2, 1 - u in (0, 1]: NaN and -inf never pass
        thresholds = 0.5 * np.log1p(-u[..., -1])
        for k in range(u.shape[1]):
            proposals = tours.take(flat_order[:, k])
            values = log_psi(proposals)
            ok = values.real - current.real >= thresholds[:, k]
            np.copyto(tours, proposals, where=ok[:, None])
            np.copyto(current, values, where=ok)
            accepted += ok
            if block + k >= record_from:
                configs[:, block + k - record_from] = tours
    chains.proposed += n_steps
    return configs


def mh_step(state: Chains, log_psi: LogPsiFn, cfg: SamplerConfig) -> Chains:
    """One step of run_chains' routine from the cached log psi, in place; returns state."""
    _advance(state, log_psi, cfg, n_steps=1, record_from=1)
    return state


def run_chains(chains: Chains, log_psi: LogPsiFn, cfg: SamplerConfig) -> Sample:
    """Refresh the cached log psi, discard a warm-up of 10 * N steps per chain,
    then record the next sample_size // n_chains, chain-major: configs.reshape(
    n_chains, -1, N)[c] is chain c's trajectory, the same as stepping it alone."""
    n_chains, n = chains.tours.shape
    n_steps, before = 10 * n + cfg.sample_size // n_chains, chains.accepted.copy()
    configs = _advance(chains, log_psi, cfg, n_steps, 10 * n, refresh=True)
    accepted = chains.accepted - before
    n_proposed, n_accepted = n_chains * n_steps, int(accepted.sum())
    return Sample(configs.reshape(-1, n), n_accepted / n_proposed, n_proposed, n_accepted,
                  accepted / n_steps)
