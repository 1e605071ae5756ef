import hashlib
import math
import warnings
from collections import Counter, defaultdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import pinned_born_law, traced_peak
from qtsp import nqs
from qtsp.instance import linear_instance
from qtsp.sampler import (
    _BLOCK_STEPS,
    SamplerConfig,
    _proposal_order,
    _proposal_tables,
    init_chains,
    mh_step,
    run_chains,
)


def constant_psi(tours):
    return np.zeros(len(tours))


def amplitude_only_at(tour, elsewhere):
    """log psi 0 on one tour and `elsewhere` (-inf or NaN) on every other."""
    return lambda t: np.where((t == tour).all(axis=1), 0.0, elsewhere)


def linear_psi(n):
    """A fixed random linear evaluator over tours of n cities."""
    w = np.random.default_rng(n).normal(size=n)
    return lambda t: 0.3 * (t @ w) + 0.1j * t[:, 0]


def make_cfg(**overrides):
    base = dict(n_chains=4, n_swaps=1, max_swap_len=4, fix_first=False,
                sample_size=16, seed=0)
    base.update(overrides)
    return SamplerConfig(**base)


class TestConfigValidation:
    def test_rejects_zero_chains(self):
        with pytest.raises(ValueError):
            make_cfg(n_chains=0)

    def test_rejects_zero_swap_len(self):
        with pytest.raises(ValueError):
            make_cfg(max_swap_len=0)

    def test_rejects_sample_smaller_than_chains(self):
        with pytest.raises(ValueError):
            make_cfg(n_chains=8, sample_size=4)

    @pytest.mark.parametrize("n_chains, sample_size", [(8, 60), (3, 10)])
    def test_rejects_sample_not_multiple_of_chains(self, n_chains, sample_size):
        # every chain records the same number of rows
        with pytest.raises(ValueError):
            make_cfg(n_chains=n_chains, sample_size=sample_size)


class TestInitChains:
    def test_fix_first_starts_at_greedy_tour(self):
        chains = init_chains(linear_instance(4), make_cfg(fix_first=True, n_chains=6, sample_size=6))
        for chain in chains:
            assert np.array_equal(chain.current, [1, 4, 2, 3])

    def test_same_seed_identical(self):
        cfg = make_cfg(seed=42)
        a = init_chains(linear_instance(5), cfg)
        b = init_chains(linear_instance(5), cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.current, y.current)

    def test_chains_draw_independent_start_cities(self):
        cfg = make_cfg(n_chains=16, sample_size=16, seed=3)
        chains = init_chains(linear_instance(8), cfg)
        starts = {int(c.current[0]) for c in chains}
        assert len(starts) > 1


def proposals(chain, cfg, count):
    """(before, after) tours of `count` constant-amplitude mh_steps, each of
    which accepts its proposal."""
    for _ in range(count):
        before = chain.current
        mh_step(chain, constant_psi, cfg)
        yield before, chain.current


class TestProposeSwap:
    def test_preserves_permutations(self):
        cfg = make_cfg(n_swaps=3, max_swap_len=2)
        chain = init_chains(linear_instance(6), cfg)[0]
        for _, proposal in proposals(chain, cfg, 200):
            assert sorted(proposal) == list(range(1, 7))

    def test_every_pair_reachable(self):
        cfg = make_cfg(n_swaps=1, max_swap_len=4, fix_first=False)
        chain = init_chains(linear_instance(4), cfg)[0]
        seen = {tuple(np.flatnonzero(after != before))
                for before, after in proposals(chain, cfg, 500)}
        assert seen == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_fix_first_never_touches_slot_one(self):
        cfg = make_cfg(n_swaps=4, max_swap_len=5, fix_first=True, n_chains=1, sample_size=1)
        chain = init_chains(linear_instance(5), cfg)[0]
        for _, proposal in proposals(chain, cfg, 300):
            assert proposal[0] == 1

    def test_swap_distance_respected(self):
        cfg = make_cfg(n_swaps=1, max_swap_len=1, fix_first=False)
        chain = init_chains(linear_instance(6), cfg)[0]
        for before, after in proposals(chain, cfg, 200):
            p, q = np.flatnonzero(after != before)
            assert min((q - p) % 6, (p - q) % 6) == 1

    def test_largest_uniform_stays_in_range(self):
        """floor(u * m) < m at the largest uniform below 1, for every count
        a table can hold; it picks the last first position and the last
        partner."""
        u_max = np.nextafter(1.0, 0.0)
        m = np.arange(1, 100_000)
        assert ((u_max * m).astype(np.int64) < m).all()
        for n in range(2, 13):
            for max_swap_len in range(1, n + 1):
                for fix_first in (False, True):
                    cfg = make_cfg(max_swap_len=max_swap_len, fix_first=fix_first)
                    first, partners, counts = _proposal_tables(n, max_swap_len, fix_first)
                    p = first[-1]
                    q = partners[p, max(counts[p] - 1, 0)]
                    expected = np.arange(n)
                    expected[[p, q]] = expected[[q, p]]
                    assert np.array_equal(_proposal_order(np.full(4, u_max), n, cfg), expected)


class FilledUniforms:
    """Stands in for a chain's Generator: every uniform it draws is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


def chains_drawing(value, log_psi_current):
    """Chains at N=5, one per cached log psi, whose every uniform is `value`."""
    cfg = make_cfg(n_chains=len(log_psi_current), sample_size=len(log_psi_current))
    chains = init_chains(linear_instance(5), cfg)
    chains.rngs[:] = [FilledUniforms(value) for _ in chains.rngs]
    chains.log_psi[:] = log_psi_current
    return chains, cfg


class TestAcceptRule:
    """Edges of the Metropolis rule 1 - u <= |psi_new/psi_current|^2 on the
    accept column u of a chain-step's draw, taken through mh_step."""

    def test_zero_uniform_accepts_a_ratio_of_one(self):
        assert 0.5 * np.log1p(-0.0) == 0.0
        chain, cfg = chains_drawing(0.0, [0.0])
        start = chain.current
        mh_step(chain, constant_psi, cfg)
        assert chain.n_accepted == 1 and not np.array_equal(chain.current, start)
        chains, cfg = chains_drawing(0.0, np.zeros(3))
        mh_step(chains, lambda t: np.full(len(t), 2.5 + 1j), cfg)
        assert (chains.accepted == 1).all() and (chains.log_psi == 2.5 + 1j).all()

    def test_largest_uniform_never_accepts_a_vanishing_proposal(self):
        """At the largest uniform below 1 the threshold is finite, so log psi
        -inf never passes, from a finite or a vanishing current amplitude,
        and the comparison warns about neither."""
        u_max = np.nextafter(1.0, 0.0)
        assert np.isfinite(0.5 * np.log1p(-u_max))
        dead = lambda t: np.full(len(t), -math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain, cfg = chains_drawing(u_max, [0.0])
            mh_step(chain, dead, cfg)
            assert chain.n_accepted == 0 and chain.log_psi_current == 0.0
            chains, cfg = chains_drawing(u_max, [0.0, -math.inf])
            start = chains.tours.copy()
            mh_step(chains, dead, cfg)
            assert not chains.accepted.any() and np.array_equal(chains.tours, start)

    @pytest.mark.parametrize("n, n_swaps, fix_first", [(5, 1, True), (7, 3, False), (2, 2, True)])
    def test_batched_draw_equals_per_row_draw(self, n, n_swaps, fix_first):
        """The (C, total, .) draw of run_chains gives each chain-step the gather
        indices of drawing its row alone, bit for bit."""
        cfg = make_cfg(n_swaps=n_swaps, max_swap_len=2, fix_first=fix_first)
        u = np.random.default_rng(n).random((3, 9, 2 * n_swaps + 2))
        u[0, 0] = 0.0
        u[2, 1] = np.nextafter(1.0, 0.0)
        order = _proposal_order(u, n, cfg)
        assert order.shape == (3, 9, n)
        for c in range(3):
            for s in range(9):
                assert np.array_equal(order[c, s], _proposal_order(u[c, s], n, cfg))


def proposal_distribution(state_tuple, cfg, n):
    """Exact proposal law for n_swaps=1 by enumerating the decision tree."""
    first, partners, counts = _proposal_tables(n, cfg.max_swap_len, cfg.fix_first)
    dist = defaultdict(float)
    for p in first:
        cand = partners[p, :counts[p]]
        for q in cand:
            out = list(state_tuple)
            out[p], out[q] = out[q], out[p]
            dist[tuple(out)] += (1.0 / len(first)) * (1.0 / len(cand))
    return dist


class TestProposalSymmetry:
    def test_exact_symmetry_at_four_cities(self):
        cfg = make_cfg(n_swaps=1, max_swap_len=2, fix_first=False)
        import itertools
        for state in itertools.permutations(range(1, 5)):
            dist = proposal_distribution(state, cfg, 4)
            for target, prob in dist.items():
                back = proposal_distribution(target, cfg, 4)
                assert back[state] == pytest.approx(prob, abs=1e-15)


class TestMhStep:
    def test_zero_delta_always_accepts(self):
        cfg = make_cfg(n_chains=1, sample_size=1)
        chain = init_chains(linear_instance(5), cfg)[0]
        for _ in range(100):
            mh_step(chain, constant_psi, cfg)
        assert chain.n_accepted == chain.n_proposed == 100

    def test_zero_amplitude_always_rejects(self):
        cfg = make_cfg(n_chains=1, sample_size=1)
        dead = lambda t: np.full(len(t), -math.inf)
        chain = init_chains(linear_instance(5), cfg)[0]
        start = chain.current.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked inf - inf RuntimeWarning fails
            for _ in range(50):
                mh_step(chain, dead, cfg)
            chain.log_psi_current = np.complex128(-math.inf)  # both amplitudes vanish
            mh_step(chain, dead, cfg)
        assert chain.n_accepted == 0
        assert np.array_equal(chain.current, start)
        assert_run_chains_rejects_all(-math.inf)

    def test_nan_amplitude_rejects(self):
        cfg = make_cfg(n_chains=1, sample_size=1)
        broken = lambda t: np.full(len(t), math.nan)
        chain = init_chains(linear_instance(4), cfg)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mh_step(chain, broken, cfg)
        assert chain.n_accepted == 0
        assert_run_chains_rejects_all(math.nan)

    @pytest.mark.parametrize("ratio", [-1.0, -0.1])
    def test_rigged_acceptance_frequency(self, ratio):
        cfg = make_cfg(n_chains=1, sample_size=1, seed=7)
        chain = init_chains(linear_instance(5), cfg)[0]
        rig = lambda t: np.full(len(t), ratio, dtype=complex)
        trials = 20_000
        accepted = 0
        for _ in range(trials):
            chain.log_psi_current = 0.0
            before = chain.n_accepted
            mh_step(chain, rig, cfg)
            accepted += chain.n_accepted - before
        p_true = min(1.0, math.exp(2 * ratio))
        se = math.sqrt(p_true * (1 - p_true) / trials)
        assert abs(accepted / trials - p_true) < 3 * se


def assert_run_chains_rejects_all(value):
    """run_chains never leaves the start tour when every proposal has log psi
    `value`: neither from a finite cached amplitude nor from one that is
    `value` itself, and no RuntimeWarning leaks from comparing them."""
    cfg = make_cfg(n_chains=3, sample_size=9, fix_first=True)
    start = init_chains(linear_instance(5), cfg)[0].current.copy()
    for log_psi in (amplitude_only_at(start, value), lambda t: np.full(len(t), value)):
        chains = init_chains(linear_instance(5), cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample = run_chains(chains, log_psi, cfg)
        assert sample.n_accepted == 0 and sample.n_proposed == 3 * (10 * 5 + 3)
        assert (sample.configs == start).all()
        assert all(np.array_equal(c.current, start) for c in chains)


class TestParityOfProposals:
    @pytest.mark.parametrize("n_swaps", [2, 4])
    def test_even_swap_count_reaches_everything(self, n_swaps):
        """Each swap is a transposition, but the count is drawn from
        1..n_swaps, so an even n_swaps still reaches both parity classes:
        all 3! tours with city 1 pinned."""
        inst = linear_instance(4)
        cfg = make_cfg(n_chains=2, n_swaps=n_swaps, max_swap_len=4, fix_first=True,
                       sample_size=2000, seed=5)
        sample = run_chains(init_chains(inst, cfg), constant_psi, cfg)
        assert len({tuple(c) for c in sample.configs}) == 6

    def test_odd_swap_count_reaches_everything(self):
        inst = linear_instance(4)
        cfg = make_cfg(n_chains=2, n_swaps=1, max_swap_len=4, fix_first=True,
                       sample_size=2000, seed=5)
        sample = run_chains(init_chains(inst, cfg), constant_psi, cfg)
        assert len({tuple(c) for c in sample.configs}) == 6


class TestRunChains:
    def test_even_split(self):
        cfg = make_cfg(n_chains=8, sample_size=64, fix_first=True)
        sample = run_chains(init_chains(linear_instance(4), cfg), constant_psi, cfg)
        assert sample.configs.shape == (64, 4)

    def test_all_recorded_configs_valid(self):
        cfg = make_cfg(n_chains=4, n_swaps=3, sample_size=200)
        sample = run_chains(init_chains(linear_instance(6), cfg), constant_psi, cfg)
        expected = np.arange(1, 7)
        assert np.array_equal(np.sort(sample.configs, axis=1),
                              np.broadcast_to(expected, sample.configs.shape))

    def test_deterministic(self):
        cfg = make_cfg(seed=99, sample_size=40)
        a = run_chains(init_chains(linear_instance(5), cfg), constant_psi, cfg)
        b = run_chains(init_chains(linear_instance(5), cfg), constant_psi, cfg)
        assert np.array_equal(a.configs, b.configs)
        assert a.acceptance_rate == b.acceptance_rate

    def test_chains_do_not_alias(self):
        cfg = make_cfg(n_chains=2, sample_size=40, fix_first=True, seed=1)
        chains = init_chains(linear_instance(6), cfg)
        run_chains(chains, constant_psi, cfg)
        assert not np.array_equal(chains[0].current, chains[1].current) or \
            chains[0].rng.random() != chains[1].rng.random()

    @pytest.mark.parametrize("sample_size, n_swaps", [
        pytest.param(9, 2, id="even-split"),
        pytest.param(12, 1, id="four-per-chain-1-swap"),
        pytest.param(12, 3, id="four-per-chain-3-swaps"),
    ])
    def test_batched_equals_sequential_stepping(self, sample_size, n_swaps):
        """run_chains steps the chains as one array; with a row-wise python
        evaluator the trajectories must match stepping each chain alone."""
        inst = linear_instance(4)
        cfg = make_cfg(n_chains=3, n_swaps=n_swaps, max_swap_len=2, sample_size=sample_size,
                       seed=11)
        f = lambda t: np.array([0.1 * float(row @ np.arange(1, 5)) + 0.05j * row[0]
                                for row in t])
        batched_chains = init_chains(inst, cfg)
        batched = run_chains(batched_chains, f, cfg)

        chains = init_chains(inst, cfg)
        values = f(np.stack([c.current for c in chains]))
        configs = []
        for chain, v in zip(chains, values):
            chain.log_psi_current = complex(v)
            for step in range(10 * 4 + sample_size // 3):
                mh_step(chain, f, cfg)
                if step >= 40:
                    configs.append(chain.current.copy())
        assert np.array_equal(batched.configs, np.stack(configs))
        assert batched.n_proposed == sum(c.n_proposed for c in chains)
        assert batched.n_accepted == sum(c.n_accepted for c in chains)
        for a, b in zip(batched_chains, chains):
            assert np.array_equal(a.current, b.current)
            assert a.log_psi_current == b.log_psi_current
            assert (a.n_proposed, a.n_accepted) == (b.n_proposed, b.n_accepted)
            assert a.rng.random() == b.rng.random()  # same stream position

    def test_acceptance_rate_counts_this_pass_only(self):
        cfg = make_cfg(sample_size=20, fix_first=True)
        chains = init_chains(linear_instance(4), cfg)
        first = run_chains(chains, constant_psi, cfg)
        second = run_chains(chains, constant_psi, cfg)
        assert first.n_proposed == second.n_proposed
        assert first.acceptance_rate == second.acceptance_rate == 1.0


class TestChainRows:
    """chains[i] is the one-row batch of views of row i, which mh_step steps
    in place and which reads and sets like one chain."""

    def test_set_log_psi_is_the_rows_own_and_the_next_step_reads_it(self):
        cfg = make_cfg(n_chains=3, sample_size=3)
        chains = init_chains(linear_instance(5), cfg)
        chains[1].log_psi_current = 50.0  # no constant-amplitude proposal passes e^-100
        assert chains.log_psi.tolist() == [0, 50, 0]
        start = chains.tours.copy()
        mh_step(chains[1], constant_psi, cfg)
        assert (chains[1].n_proposed, chains[1].n_accepted) == (1, 0)
        assert chains[1].log_psi_current == 50.0
        assert np.array_equal(chains.tours, start)
        mh_step(chains[0], constant_psi, cfg)
        assert chains[0].n_accepted == 1 and chains[0].log_psi_current == 0.0

    def test_stepping_a_row_leaves_the_other_rows_as_they_were(self):
        cfg = make_cfg(n_chains=3, sample_size=3)
        chains, untouched = (init_chains(linear_instance(6), cfg) for _ in range(2))
        for _ in range(5):
            mh_step(chains[1], constant_psi, cfg)
        assert (chains[1].n_proposed, chains[1].n_accepted) == (5, 5)
        for i in (0, 2, -1):
            assert np.array_equal(chains[i].current, untouched[i].current)
            assert (chains[i].n_proposed, chains[i].n_accepted) == (0, 0)
            assert chains[i].rng.random() == untouched[i].rng.random()

    def test_a_tour_read_before_a_step_stays_as_it_was(self):
        cfg = make_cfg(n_chains=2, sample_size=2)
        chain = init_chains(linear_instance(6), cfg)[0]
        before = chain.current
        kept = before.copy()
        mh_step(chain, constant_psi, cfg)
        assert np.array_equal(before, kept)
        assert not np.array_equal(chain.current, kept)

    def test_pass_acceptance_per_chain(self):
        """Each chain's rate in a pass brackets the pooled rate; under a
        constant amplitude every chain accepts every step."""
        cfg = make_cfg(n_chains=4, sample_size=40, seed=3)
        chains = init_chains(linear_instance(6), cfg)
        sample = run_chains(chains, linear_psi(6), cfg)
        rates = sample.chain_acceptance
        assert rates.min() <= sample.acceptance_rate <= rates.max() and rates.min() < rates.max()
        assert rates * (10 * 6 + 10) == pytest.approx(chains.accepted)
        assert (run_chains(chains, constant_psi, cfg).chain_acceptance == 1.0).all()


def chain_digest(h, chains):
    """Feed each chain's tour, counters, cached log psi and next uniform to h."""
    for c in chains:
        h.update(np.asarray(c.current, dtype=np.int64).tobytes())
        h.update(np.array([c.n_proposed, c.n_accepted], dtype=np.int64).tobytes())
        h.update(np.complex128(c.log_psi_current).tobytes())
        h.update(np.float64(c.rng.random()).tobytes())


class TestPinnedTrajectories:
    """sha256 of tours and counters recorded with the sampler that pre-drew a
    whole pass and stepped mh_step on its own code: the one blocked stepping
    path must reproduce both bit for bit."""

    PASSES = {
        (1, False): "f6ac17be8aec8182558dcab61e50497d5ec2ea49097943e9f775cb638c277f03",
        (1, True): "78343c1c57e366c4840e60450004171a0d8ddeede17c3d858e187ede3781b943",
        (2, False): "add14409047ee95eab0a743b757e2e2d912f5a946437b086db00a704ccf74bc3",
        (2, True): "1d6eb6c5b11c77cacb3ad764e0fea3ad586c5fec60162b0ec49e536af7433919",
        (3, False): "426c531bb9d11828a7b79b909974ac3cfb32af837c8dedfdb6db521bd421069f",
        (3, True): "d58ab99132b17ea02c4f6f7d8741e65c797ef29a93277d3ec225fd86aa11adad",
    }

    @pytest.mark.parametrize("n_swaps, fix_first", sorted(PASSES))
    def test_run_chains_passes(self, n_swaps, fix_first):
        """Two passes of three chains at N=7 under a random CNN: 70 warm-up
        and 40 recorded steps each, so every pass crosses a block boundary."""
        assert 10 * 7 + 40 > _BLOCK_STEPS
        log_psi = partial(nqs.cnn_log_psi, nqs.init_params("cnn", (3, 4), 0.4, 1))
        cfg = SamplerConfig(n_chains=3, n_swaps=n_swaps, max_swap_len=3, fix_first=fix_first,
                            sample_size=120, seed=n_swaps)
        chains = init_chains(linear_instance(7), cfg)
        h = hashlib.sha256()
        for _ in range(2):
            sample = run_chains(chains, log_psi, cfg)
            h.update(sample.configs.astype(np.int64).tobytes())
            h.update(np.array([sample.n_proposed, sample.n_accepted], dtype=np.int64).tobytes())
        chain_digest(h, chains)
        assert h.hexdigest() == self.PASSES[n_swaps, fix_first]

    def test_mh_steps(self):
        log_psi = partial(nqs.cnn_log_psi, nqs.init_params("cnn", (3, 4), 0.4, 2))
        cfg = SamplerConfig(n_chains=1, n_swaps=2, max_swap_len=2, fix_first=False,
                            sample_size=1, seed=5)
        chain = init_chains(linear_instance(6), cfg)[0]
        h = hashlib.sha256()
        for _ in range(200):
            mh_step(chain, log_psi, cfg)
            h.update(np.asarray(chain.current, dtype=np.int64).tobytes())
        chain_digest(h, [chain])
        assert h.hexdigest() == "b33d68d0d2f2aad00a5a511db17a471acbcf5e14a7c892a208c34d265e067fe4"


class TestPassMemory:
    """A pass draws its uniforms a block of steps at a time, so its scratch
    is O(C * block * N), not O(C * (10 N + S / C) * N)."""

    @staticmethod
    def pass_peak(sample_size):
        """Traced peak of one pass at the paper's N=96 with 64 chains."""
        cfg = SamplerConfig(n_chains=64, n_swaps=2, max_swap_len=48, fix_first=True,
                            sample_size=sample_size, seed=1)
        return traced_peak(run_chains, init_chains(linear_instance(96), cfg), constant_psi, cfg)

    def test_pass_at_paper_scale(self):
        assert self.pass_peak(512) < 16e6

    def test_scratch_does_not_grow_with_the_steps_per_chain(self):
        """From S=512 to S=4096 the peak grows by the (S, N) recorded
        configs alone, give or take 64 kB."""
        scratch = [self.pass_peak(s) - s * 96 * 8 for s in (512, 4096)]
        assert scratch[1] - scratch[0] < 64 * 1024

def test_uniform_sampling_with_constant_amplitude():
    """Symmetric proposals plus unit acceptance leave the uniform law
    invariant; counts over the 24 pinned tours at N=5 stay compatible with
    uniformity (chi-square far below the 1% critical value)."""
    from scipy import stats

    inst = linear_instance(5)
    cfg = SamplerConfig(n_chains=16, n_swaps=7, max_swap_len=5, fix_first=True,
                        sample_size=20_000, seed=2024)
    sample = run_chains(init_chains(inst, cfg), constant_psi, cfg)
    counts = Counter(tuple(c) for c in sample.configs)
    assert len(counts) == 24
    expected = cfg.sample_size / 24
    chi2 = sum((counts[k] - expected) ** 2 / expected for k in counts)
    assert chi2 < stats.chi2.ppf(0.99, 23)


BORN_CITIES = 5
BORN_CHAINS = 5_000       # per block; four blocks make 20,000 independent chains
BORN_STEPS = 50           # recorded steps per chain, after the warm-up
BORN_NETWORKS = {         # random networks: the CNN's law is near uniform, the RBM's peaked
    "cnn": lambda: partial(nqs.cnn_log_psi, nqs.init_params("cnn", (3, 4), 0.4, 1)),
    "rbm": lambda: partial(nqs._rbm_tour_log_psi, nqs.init_params("rbm", (25, 10), 0.15, 1)),
}


@pytest.mark.parametrize("n_swaps", [1, 2, 3])
@pytest.mark.parametrize("net", sorted(BORN_NETWORKS))
def test_chains_sample_the_born_law(net, n_swaps):
    """Each chain's last state after a pass follows the exact |psi|^2 over
    the 24 pinned tours at N=5 (Pearson chi-square below the 99% critical
    value). The chains arrive with a cached amplitude from another
    snapshot, which the pass must refresh. Tours expected fewer than five
    times are pooled into one bin, as the chi-square law needs."""
    from scipy import stats

    log_psi = BORN_NETWORKS[net]()
    tours, p = pinned_born_law(log_psi, BORN_CITIES)
    index = {tuple(t): i for i, t in enumerate(tours.tolist())}
    counts = np.zeros(len(tours))
    for block in range(4):
        cfg = SamplerConfig(n_chains=BORN_CHAINS, n_swaps=n_swaps, max_swap_len=2, fix_first=True,
                            sample_size=BORN_CHAINS * BORN_STEPS, seed=block)
        chains = init_chains(linear_instance(BORN_CITIES), cfg)
        for chain in chains:
            chain.log_psi_current = 50.0
        run_chains(chains, log_psi, cfg)
        for chain in chains:
            counts[index[tuple(chain.current.tolist())]] += 1
    expected = counts.sum() * p
    rare = expected < 5
    if rare.any():
        counts = np.append(counts[~rare], counts[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, counts.size - 1), (chi2, rare.sum())


@st.composite
def sampler_configs(draw):
    n = draw(st.integers(2, 12))
    n_chains = draw(st.integers(1, 4))
    cfg = SamplerConfig(
        n_chains=n_chains, n_swaps=draw(st.integers(1, 5)),
        max_swap_len=draw(st.integers(1, n)), fix_first=draw(st.booleans()),
        sample_size=n_chains * draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)))
    return n, cfg


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(sampler_configs())
    def test_run_chains_records_valid_tours(self, case):
        n, cfg = case
        f = linear_psi(n)
        sample = run_chains(init_chains(linear_instance(n), cfg), f, cfg)
        assert sample.configs.shape == (cfg.sample_size, n)
        assert np.array_equal(np.sort(sample.configs, axis=1),
                              np.broadcast_to(np.arange(1, n + 1), sample.configs.shape))
        if cfg.fix_first:
            assert (sample.configs[:, 0] == 1).all()

    @settings(max_examples=80, deadline=None)
    @given(sampler_configs())
    def test_single_swap_moves_two_positions_in_range(self, case):
        n, cfg = case
        cfg = SamplerConfig(n_chains=1, n_swaps=1, max_swap_len=cfg.max_swap_len,
                            fix_first=cfg.fix_first, sample_size=1, seed=cfg.seed)
        chain = init_chains(linear_instance(n), cfg)[0]
        for before, after in proposals(chain, cfg, 20):
            moved = np.flatnonzero(after != before)
            if n == 2 and cfg.fix_first:
                assert moved.size == 0
            else:
                p, q = moved
                assert min((q - p) % n, (p - q) % n) <= cfg.max_swap_len
