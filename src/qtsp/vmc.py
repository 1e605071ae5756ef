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
from typing import Callable

import numpy as np

from . import nqs
from .errors import InvalidTourError
from .instance import Instance, are_permutations, tour_lengths
from .sampler import SamplerConfig, init_chains, run_chains

IMPROVEMENT_TOL = 1e-12
TARGET_TOL = 1e-9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_SCALE = 0.02

# the shape fields of each representation's network; the other's stay 0
_NETWORK_FIELDS = {"qubit": ("n_hidden",), "qudit": ("n_channels", "kernel_size")}

# spawn key reserved for the parameter-init stream; chain streams use the
# plain spawn children (0,), (1,), ... of the sampler seed
_INIT_SPAWN_KEY = 1 << 20


@dataclass(frozen=True)
class VmcConfig:
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
        if self.representation not in _NETWORK_FIELDS:
            raise ValueError(f"unknown representation {self.representation!r}")
        for rep, names in _NETWORK_FIELDS.items():
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
        if not self.prune_wall_clock_s >= 0:  # NaN fails every comparison
            raise ValueError(f"prune_wall_clock_s must be >= 0, got {self.prune_wall_clock_s}")


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(first_moment=np.zeros(n), second_moment=np.zeros(n))


@dataclass(frozen=True)
class StepStats:
    step: int
    wall_clock_s: float
    energy_mean: float
    energy_std: float
    acceptance_rate: float
    best_energy: float
    best_tour: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    steps: list[StepStats]
    termination_reason: str
    total_time_s: float
    best_energy: float
    best_tour: np.ndarray
    time_to_target_s: float | None

    @property
    def converged(self) -> bool:
        return self.termination_reason == "target-reached"

    @property
    def n_steps(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# the ansatz adapter: tours in, flat real parameters out
# ---------------------------------------------------------------------------

class Ansatz:
    """A network on (B, N) tour batches: the convolutional network reads
    the levels, the spin network the up columns of the one-hot spins."""

    def __init__(self, params: nqs.NetworkParams, log_psi: Callable, energy_gradient: Callable):
        self.params = params
        self._log_psi = log_psi
        self._energy_gradient = energy_gradient

    def log_psi_tours(self, tours: np.ndarray) -> np.ndarray:
        return np.asarray(self._log_psi(self.params, tours))

    def energy_gradient(self, tours: np.ndarray, energies: np.ndarray) -> np.ndarray:
        return self._energy_gradient(self.params, tours, energies)

    def get_flat(self) -> np.ndarray:
        return self.params.to_flat()

    def set_flat(self, flat: np.ndarray) -> None:
        self.params = type(self.params).from_flat(flat, *self.params.shape)


def derive_init_seed(sampler_seed: int) -> int:
    ss = np.random.SeedSequence(entropy=sampler_seed, spawn_key=(_INIT_SPAWN_KEY,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def build_ansatz(cfg: VmcConfig, n_cities: int) -> Ansatz:
    seed = derive_init_seed(cfg.sampler.seed)
    if cfg.representation == "qudit":
        nqs._window_index(n_cities, cfg.kernel_size)  # the kernel <= N check, before any output
        params = nqs.init_params("cnn", (cfg.kernel_size, cfg.n_channels), INIT_SCALE, seed)
        return Ansatz(params, nqs.cnn_log_psi, nqs.cnn_energy_gradient)
    params = nqs.init_params("rbm", (n_cities * n_cities, cfg.n_hidden), INIT_SCALE, seed)
    return Ansatz(params, nqs.rbm_tour_log_psi, nqs.rbm_tour_energy_gradient)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def local_energies(instance: Instance, configs: np.ndarray) -> np.ndarray:
    """Diagonal local energies of a (B, N) batch of valid tours: their
    cyclic lengths.

    Identical in both representations because the constraint terms vanish
    on the valid manifold; a non-permutation row means the sampler leaked
    an invalid state and is reported as an error.
    """
    configs = np.asarray(configs, dtype=np.int64)
    if configs.shape[1:] != (instance.n_cities,) or not are_permutations(configs).all():
        raise InvalidTourError("invalid configuration reached the energy estimator")
    return tour_lengths(instance, configs)


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

SinkFn = Callable[[dict], None]


def train(
    instance: Instance,
    cfg: VmcConfig,
    target_energy: float | None = None,
    sink: SinkFn | None = None,
) -> RunRecord:
    """Run the sample/estimate/update loop and collect per-step statistics.

    The optional sink receives one JSON-serializable dict per emitted line
    (header, then one per step, then a footer), enabling streaming JSONL
    output that stays parseable mid-run. An exception that escapes the
    loop still gets the footer, with reason "error" and an "error" message
    (best_energy and best_tour null if no step finished), and is re-raised.
    """
    from . import __version__

    ansatz = build_ansatz(cfg, instance.n_cities)
    chains = init_chains(instance, cfg.sampler)
    theta = ansatz.get_flat()
    adam = AdamState.zeros(theta.shape[0])

    if sink is not None:
        sink({
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
    time_to_target: float | None = None
    reason = "max-steps"
    error: str | None = None  # what escaped the loop, if anything did
    t0 = time.perf_counter()

    try:
        for step in range(1, cfg.max_steps + 1):
            sample = run_chains(chains, ansatz.log_psi_tours, cfg.sampler)
            energies = local_energies(instance, sample.configs)
            e_mean = float(energies.mean())
            e_std = float(energies.std(ddof=1))  # VmcConfig guarantees two samples

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
                energy_mean=e_mean,
                energy_std=e_std,
                acceptance_rate=sample.acceptance_rate,
                best_energy=best,
                best_tour=best_tour,
            )
            steps.append(stats)
            if sink is not None:
                sink({"type": "step", **vars(stats), "best_tour": best_tour.tolist()})

            if target_energy is not None and best <= target_energy + TARGET_TOL:
                time_to_target = wall
                reason = "target-reached"
                break
            if step - last_improve_step >= cfg.prune_no_improve_steps:
                reason = "no-improvement"
                break
            if wall >= cfg.prune_wall_clock_s:
                reason = "time-limit"
                break
            if step == cfg.max_steps:
                reason = "max-steps"
                break

            grad = ansatz.energy_gradient(sample.configs, energies)
            adam, theta = adam_update(adam, theta, grad, cfg)
            ansatz.set_flat(theta)
    except BaseException as exc:
        reason, error = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:  # every run that wrote a header ends with a footer, whatever stopped it
        total = time.perf_counter() - t0
        if sink is not None:
            sink({
                "type": "footer",
                "reason": reason,
                "total_time_s": total,
                "n_steps": len(steps),
                "best_energy": None if best_tour is None else best,
                "best_tour": None if best_tour is None else best_tour.tolist(),
                "time_to_target_s": time_to_target,
                **({} if error is None else {"error": error}),
            })
    return RunRecord(
        steps=steps,
        termination_reason=reason,
        total_time_s=total,
        best_energy=best,
        best_tour=best_tour,
        time_to_target_s=time_to_target,
    )
