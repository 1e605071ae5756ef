"""Metropolis-Hastings sampling over valid tours.

Proposals swap the occupations of two tour positions (a number of swaps
per proposal drawn uniformly from 1..n_swaps, the second position at most
a given cyclic distance from the first), so chains never leave the
permutation manifold and the encoding penalties never enter the dynamics.
Acceptance follows min(1, |psi(n')/psi(n)|^2) on cached log-amplitudes.

The amplitude evaluator is a callable mapping a (B, N) int array of tours
to a (B,) complex array of log psi values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .instance import Instance, farthest_city_tour

LogPsiFn = Callable[[np.ndarray], np.ndarray]

# steps of uniforms a chain draws at a time: bounds a pass's scratch to
# O(C * 64 * N); any block size gives the same trajectories
_BLOCK_STEPS = 64


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int
    n_swaps: int
    max_swap_len: int
    fix_first: bool
    sample_size: int
    seed: int

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")
        if self.n_swaps < 1:
            raise ValueError("n_swaps must be positive")
        if self.max_swap_len < 1:
            raise ValueError("max_swap_len must be at least 1")
        if self.sample_size < 1 or self.sample_size % self.n_chains:
            raise ValueError("sample_size must be a positive multiple of n_chains")


@dataclass
class ChainState:
    """One Markov chain: its current tour, the cached log-amplitude of that
    tour, a private RNG stream and acceptance counters."""

    current: np.ndarray
    log_psi_current: complex
    rng: np.random.Generator
    n_accepted: int = 0
    n_proposed: int = 0


@dataclass(frozen=True)
class Sample:
    """Recorded configurations of one sampling pass, merged by chain index."""

    configs: np.ndarray   # (S, N) int
    acceptance_rate: float
    n_proposed: int
    n_accepted: int


@lru_cache(maxsize=128)
def _proposal_tables(n: int, max_swap_len: int, fix_first: bool):
    """Positions eligible as the first pick; every position's eligible
    partners within the cyclic swap range as one (n, width) array, each row
    padded with the position itself; and the (n,) partner counts."""
    reach = min(max_swap_len, n - 1)
    banned = {0} if fix_first else set()
    rows = [sorted({(p + d) % n for d in range(-reach, reach + 1)} - {p} - banned)
            for p in range(n)]
    width = max(1, max(map(len, rows)))
    partners = np.array([r + [p] * (width - len(r)) for p, r in enumerate(rows)])
    return np.arange(int(fix_first), n), partners, np.array([len(r) for r in rows])


def _proposal_order(u: np.ndarray, n: int, cfg: SamplerConfig) -> np.ndarray:
    """Gather indices (..., n) of the proposals drawn by uniforms of shape
    (..., 2 * n_swaps + 2), one row per chain-step from the chain's own
    stream: the proposal of a tour is tour[order].

    Swap k takes its first position from column 2k and its partner from
    column 2k + 1, floor(u * m) picking one of m choices; the next column
    draws how many of the swaps are made, uniformly from 1..n_swaps, and
    the last column is the accept decision's. A swap past that count, and
    a position without partners (only N=2 with fix_first), swaps with
    itself. Each swap is a transposition and a count of one is always
    possible, so every tour is reachable from any start.
    """
    first, partners, counts = _proposal_tables(n, cfg.max_swap_len, cfg.fix_first)
    lead, u = u.shape[:-1], u.reshape(-1, u.shape[-1])
    p = first[(u[:, 0:-2:2] * first.shape[0]).astype(np.int64)]
    q = partners[p, (u[:, 1:-2:2] * counts[p]).astype(np.int64)]
    np.copyto(q, p, where=u[:, -2:-1] * cfg.n_swaps < np.arange(cfg.n_swaps))
    order = np.tile(np.arange(n), (u.shape[0], 1))
    row_start = np.arange(0, order.size, n)[:, None]
    flat, p, q = order.reshape(-1), p + row_start, q + row_start
    for pk, qk in zip(p.T, q.T):
        flat[pk], flat[qk] = flat[qk], flat[pk]
    return order.reshape(*lead, n)


def _accept(current, new, u):
    """Metropolis decisions 1 - u <= |psi_new/psi_current|^2 on cached log-amplitudes:
    1 - u is in (0, 1], so a ratio >= 1 always passes; NaN and -inf proposals never do."""
    with np.errstate(invalid="ignore"):  # inf - inf where both amplitudes vanish
        return np.real(new) - np.real(current) >= 0.5 * np.log1p(-u)


def init_chains(instance: Instance, cfg: SamplerConfig) -> list[ChainState]:
    """Start each chain on a greedy farthest-city tour.

    With fix_first the start city is 1 for every chain (and position 1 is
    frozen by the proposal rule); otherwise each chain draws its own start
    city from its RNG stream. Streams are the numbered children of
    SeedSequence(cfg.seed), one per chain index. Each distinct start city's
    tour is built once and every chain gets its own copy. The cached log psi
    starts at 0; run_chains refreshes it at the start of each pass.
    """
    n = instance.n_cities
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_chains)
    rngs = [np.random.default_rng(ss) for ss in streams]
    starts = [1 if cfg.fix_first else int(rng.integers(1, n + 1)) for rng in rngs]
    tours = {start: farthest_city_tour(instance, start) for start in set(starts)}
    return [ChainState(current=tours[start].copy(), log_psi_current=0.0, rng=rng)
            for start, rng in zip(starts, rngs)]


def _advance(chains: list[ChainState], log_psi: LogPsiFn, cfg: SamplerConfig,
             n_steps: int, record_from: int) -> Sample:
    """Step the chains n_steps times as rows of one (C, N) array, starting
    from their cached log psi, and write tours, log psi and counters back.

    Each chain draws its uniforms from its own stream, _BLOCK_STEPS steps at
    a time. Generator.random gives the same numbers drawn whole or in
    blocks, so the block size never changes a trajectory; it bounds the
    scratch to O(C * _BLOCK_STEPS * N). The Sample records each chain's
    tours after the steps from record_from on, chain-major, and counts every
    step.
    """
    tours = np.stack([c.current for c in chains])
    current = np.array([c.log_psi_current for c in chains], dtype=np.complex128)
    n_chains, n = tours.shape
    row_start = n * np.arange(n_chains)[:, None, None]
    accepted = np.zeros(n_chains, dtype=np.int64)
    configs = np.empty((n_chains, n_steps - record_from, n), dtype=tours.dtype)
    for block in range(0, n_steps, _BLOCK_STEPS):
        u = np.stack([c.rng.random((min(_BLOCK_STEPS, n_steps - block), 2 * cfg.n_swaps + 2))
                      for c in chains])
        flat_order = _proposal_order(u, n, cfg)
        flat_order += row_start
        for k in range(u.shape[1]):
            proposals = tours.reshape(-1)[flat_order[:, k]]
            values = np.asarray(log_psi(proposals))
            ok = _accept(current, values, u[:, k, -1])
            np.copyto(tours, proposals, where=ok[:, None])
            np.copyto(current, values, where=ok)
            accepted += ok
            if block + k >= record_from:
                configs[:, block + k - record_from] = tours

    for chain, tour, value, n_acc in zip(chains, tours, current, accepted):
        chain.current, chain.log_psi_current = tour, complex(value)
        chain.n_proposed += n_steps
        chain.n_accepted += int(n_acc)
    n_proposed, n_accepted = n_chains * n_steps, int(accepted.sum())
    return Sample(configs.reshape(-1, n), n_accepted / n_proposed, n_proposed, n_accepted)


def mh_step(state: ChainState, log_psi: LogPsiFn, cfg: SamplerConfig) -> ChainState:
    """One Metropolis-Hastings update in place from the chain's cached log
    psi, the one-chain, one-step case of run_chains; returns the state."""
    _advance([state], log_psi, cfg, n_steps=1, record_from=1)
    return state


def run_chains(chains: list[ChainState], log_psi: LogPsiFn, cfg: SamplerConfig) -> Sample:
    """Advance all chains and record cfg.sample_size configurations.

    Each chain discards a warm-up of 10 * N steps, then records its next
    sample_size // n_chains steps, chain-major: configs.reshape(n_chains,
    -1, N)[c] is chain c's trajectory. Cached amplitudes are refreshed at
    the start so the pass is consistent with the current evaluator
    snapshot. The chains step as rows of one array, with one evaluator call
    per step, and their trajectories equal stepping each alone with mh_step.
    """
    for chain, value in zip(chains, np.asarray(log_psi(np.stack([c.current for c in chains])))):
        chain.log_psi_current = complex(value)
    warmup = 10 * chains[0].current.shape[0]
    return _advance(chains, log_psi, cfg, warmup + cfg.sample_size // len(chains), warmup)
