"""Variational Monte Carlo training loop.

Each step draws a Metropolis sample from |psi|^2 over valid tours,
estimates the energy (the local energy of a valid tour is its length in
either representation, since sampling never leaves the valid manifold) and
the covariance gradient with respect to the real parameter components,
then applies one Adam update. Runs stop on a target energy, on a
no-improvement window, on a wall-clock budget or at max_steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import nqs
from .instance import Instance, read_tours, tour_lengths
from .sampler import SamplerConfig, init_chains, run_chains

IMPROVEMENT_TOL = 1e-12
TARGET_TOL = 1e-9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_SCALE = 0.02

# The network each representation runs: its qtsp.nqs kind, the VmcConfig fields
# of its shape in init_params order (the other's stay 0), and the private nqs log psi
# and energy gradient kernels that train calls; local_energies reads each sample.
NETWORKS = {
    "qubit": ("rbm", ("n_hidden",), "_rbm_tour_log_psi", "_rbm_tour_energy_gradient"),
    "qudit": ("cnn", ("kernel_size", "n_channels"), "_cnn_log_psi", "_cnn_energy_gradient"),
}

# spawn key reserved for the parameter-init stream; chain streams use the
# plain spawn children (0,), (1,), ... of the sampler seed
_INIT_SPAWN_KEY = 1 << 20


@dataclass(frozen=True)
class VmcConfig:
    """One run's representation, network shape, sampler, Adam rate and stop budgets."""

    representation: str          # "qubit" | "qudit"
    sampler: SamplerConfig
    n_hidden: int = 0            # spin network
    n_channels: int = 0          # convolutional network
    kernel_size: int = 0
    learning_rate: float = 1e-2
    max_steps: int = 2000
    prune_no_improve_steps: int = 300
    prune_wall_clock_s: float = 600.0

    def __post_init__(self):
        if self.representation not in NETWORKS:
            raise ValueError(f"unknown representation {self.representation!r}")
        for rep, (_, names, _, _) in NETWORKS.items():
            for name in names:
                if rep == self.representation and getattr(self, name) < 1:
                    raise ValueError(f"{rep} representation needs {name} >= 1")
                if rep != self.representation and getattr(self, name) != 0:
                    raise ValueError(f"{name} belongs to the {rep} network, "
                                     f"not to the {self.representation} one")
        if self.sampler.sample_size < 2:
            raise ValueError("sample_size must be at least 2: the gradient is a covariance")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.prune_no_improve_steps < 1:
            raise ValueError("prune_no_improve_steps must be positive")
        if not 0 <= self.prune_wall_clock_s < math.inf:
            raise ValueError(f"prune_wall_clock_s must be finite and >= 0, "
                             f"got {self.prune_wall_clock_s}")


@dataclass(frozen=True, eq=False)
class AdamState:
    """Adam's two moment vectors over the flat parameters and its step count."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(first_moment=np.zeros(n), second_moment=np.zeros(n))


@dataclass(frozen=True, eq=False)
class StepStats:
    """One step's line of the run stream: its sample's energies, acceptance and best."""

    step: int
    wall_clock_s: float
    energy_mean: float
    energy_std: float
    acceptance_rate: float
    best_energy: float
    best_tour: np.ndarray
    acceptance_min: float  # the lowest and highest acceptance rate of one chain in the pass
    acceptance_max: float


@dataclass(frozen=True, eq=False)
class RunRecord:
    """A finished run: its steps, and why and when it stopped. Its best
    energy and tour are the last step's (inf and None if no step finished),
    and so is its time to target, set only if the run converged."""

    steps: list[StepStats]
    termination_reason: str
    total_time_s: float

    best_energy = property(lambda self: self.steps[-1].best_energy if self.steps else math.inf)
    best_tour = property(lambda self: self.steps[-1].best_tour if self.steps else None)
    time_to_target_s = property(lambda self: self.steps[-1].wall_clock_s if self.converged else None)

    @property
    def converged(self) -> bool:
        return self.termination_reason == "target-reached"

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def footer(self, error: str | None = None) -> dict:
        """The run stream's last line: how the run ended, with best_energy
        and best_tour null if no step finished, and the message of what
        stopped it if that was an error."""
        return {
            "type": "footer",
            "reason": self.termination_reason,
            "total_time_s": self.total_time_s,
            "n_steps": self.n_steps,
            "best_energy": None if self.best_tour is None else self.best_energy,
            "best_tour": None if self.best_tour is None else self.best_tour.tolist(),
            "time_to_target_s": self.time_to_target_s,
            **({} if error is None else {"error": error}),
        }


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def local_energies(instance: Instance, configs: np.ndarray) -> np.ndarray:
    """Diagonal local energies of a (B, N) batch of valid tours: their
    cyclic lengths.

    Identical in both representations because the constraint terms vanish
    on the valid manifold; a row that is no tour means the sampler leaked
    an invalid state and raises InvalidTourError (instance.read_tours).
    """
    return tour_lengths(instance, read_tours(configs, instance.n_cities))


def estimate_gradient(
    local_energy_values: np.ndarray,
    log_derivatives: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Covariance gradient of <H> over the flat real parameters:

        g_k = 2 Re( E[E_loc conj(O_k)] - E[E_loc] E[conj(O_k)] )

    with O_k = d log psi / d theta_k. Expectations are plain sample means
    unless explicit weights (e.g. an exact Born distribution) are given.
    """
    e = np.asarray(local_energy_values, dtype=float)
    o = np.asarray(log_derivatives)
    if o.ndim != 2 or o.shape[0] != e.shape[0]:
        raise ValueError(f"log-derivative matrix {o.shape} does not match {e.shape[0]} energies")
    if weights is None:
        if e.shape[0] < 2:
            raise ValueError("gradient estimation needs at least two configurations")
        w = np.full(e.shape[0], 1.0 / e.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != e.shape:
            raise ValueError("weights must match the number of configurations")
        w = w / w.sum()
    centered = w * (e - w @ e)
    return 2.0 * np.real(centered @ np.conj(o))


def adam_update(
    state: AdamState, params: np.ndarray, grad: np.ndarray, cfg: VmcConfig
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam step on the flat real parameter vector.

    Leaves its inputs as they are and holds four parameter-sized arrays:
    the two moments, the new parameters and one scratch array. Raises
    ValueError naming the step on a non-finite gradient, and on a finite one
    that overflows the second moment or the parameters."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match params {params.shape}")
    if not np.all(np.isfinite(grad)):
        raise ValueError(f"non-finite gradient at Adam step {state.step_count + 1}")
    t = state.step_count + 1
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        scratch = np.multiply(1 - ADAM_BETA1, grad)
        m = np.multiply(ADAM_BETA1, state.first_moment)
        m += scratch                                        # b1 m + (1 - b1) g
        np.multiply(1 - ADAM_BETA2, grad, out=scratch)
        scratch *= grad
        v = np.multiply(ADAM_BETA2, state.second_moment)
        v += scratch                                        # b2 v + (1 - b2) g g
        new_params = np.divide(v, 1 - ADAM_BETA2 ** t)
        np.sqrt(new_params, out=new_params)
        new_params += ADAM_EPS                              # sqrt(v_hat) + eps
        np.divide(m, 1 - ADAM_BETA1 ** t, out=scratch)
        np.multiply(cfg.learning_rate, scratch, out=scratch)   # lr m_hat
        np.divide(scratch, new_params, out=scratch)
        np.subtract(params, scratch, out=new_params)
    if not (np.all(np.isfinite(new_params)) and np.all(np.isfinite(v))):
        raise ValueError(f"non-finite update at Adam step {t}")
    return AdamState(first_moment=m, second_moment=v, step_count=t), new_params


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def init_network(cfg: VmcConfig, n_cities: int) -> tuple[nqs.NetworkParams, Callable, Callable]:
    """The representation's network: its starting parameters, drawn from the
    init stream of the sampler seed, and the functions NETWORKS names in
    qtsp.nqs at this call. Checks the kernel <= N before any output."""
    kind, shape_fields, log_psi, energy_gradient = NETWORKS[cfg.representation]
    shape = tuple(getattr(cfg, name) for name in shape_fields)
    if kind == "cnn":
        nqs._window_index(n_cities, cfg.kernel_size)
    else:
        shape = (n_cities * n_cities, *shape)  # one spin per (city, slot)
    seed = np.random.SeedSequence(entropy=cfg.sampler.seed, spawn_key=(_INIT_SPAWN_KEY,))
    params = nqs.init_params(kind, shape, INIT_SCALE, int(seed.generate_state(1, np.uint64)[0]))
    return params, getattr(nqs, log_psi), getattr(nqs, energy_gradient)


def train(
    instance: Instance,
    cfg: VmcConfig,
    target_energy: float | None = None,
    sink: Callable[[dict], None] | None = None,
) -> RunRecord:
    """Run the sample/estimate/update loop and collect per-step statistics.

    The optional sink receives one JSON-serializable dict per emitted line
    (header, then one per step, then RunRecord.footer), enabling streaming
    JSONL output that stays parseable mid-run. An exception that escapes
    the loop still gets the footer, with reason "error" and an "error"
    message, and is re-raised.
    """
    from . import __version__

    params, log_psi, energy_gradient = init_network(cfg, instance.n_cities)
    chains = init_chains(instance, cfg.sampler)
    theta = params.to_flat()
    adam = AdamState.zeros(theta.shape[0])
    emit = sink if sink is not None else lambda line: None

    emit({
        "type": "header",
        "version": __version__,
        "n_cities": instance.n_cities,
        "representation": cfg.representation,
        "target_energy": target_energy,
        "config": asdict(cfg),
    })

    steps: list[StepStats] = []
    best = math.inf
    best_tour: np.ndarray | None = None
    last_improve_step = 0
    reason = "max-steps"
    error: str | None = None  # what escaped the loop, if anything did
    t0 = time.perf_counter()

    try:
        for step in range(1, cfg.max_steps + 1):
            sample = run_chains(chains, partial(log_psi, params), cfg.sampler)
            energies = local_energies(instance, sample.configs)
            i_min = int(np.argmin(energies))
            if energies[i_min] < best - IMPROVEMENT_TOL:
                if math.isfinite(best):  # the first sample only sets the baseline
                    last_improve_step = step
                best = float(energies[i_min])
                best_tour = sample.configs[i_min].copy()

            wall = time.perf_counter() - t0
            stats = StepStats(
                step=step,
                wall_clock_s=wall,
                energy_mean=float(energies.mean()),
                energy_std=float(energies.std(ddof=1)),  # VmcConfig guarantees two samples
                acceptance_rate=sample.acceptance_rate,
                best_energy=best,
                best_tour=best_tour,
                acceptance_min=float(sample.chain_acceptance.min()),
                acceptance_max=float(sample.chain_acceptance.max()),
            )
            steps.append(stats)
            emit({"type": "step", **vars(stats), "best_tour": stats.best_tour.tolist()})

            if target_energy is not None and best <= target_energy + TARGET_TOL:
                reason = "target-reached"
                break
            if step - last_improve_step >= cfg.prune_no_improve_steps:
                reason = "no-improvement"
                break
            if wall >= cfg.prune_wall_clock_s:
                reason = "time-limit"
                break
            if step < cfg.max_steps:  # the last step's gradient would go unused
                grad = energy_gradient(params, sample.configs, energies)
                adam, theta = adam_update(adam, theta, grad, cfg)
                params = type(params).from_flat(theta, *params.shape)
    except BaseException as exc:
        reason, error = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:  # every run that wrote a header ends with a footer, whatever stopped it
        record = RunRecord(steps, reason, time.perf_counter() - t0)
        emit(record.footer(error))
    return record
