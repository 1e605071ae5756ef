"""Experiment harness: single runs, random hyperparameter sweeps with
pruning, and CSV convergence reports comparing the two representations.

The sweep replaces a model-based hyperparameter optimizer with seeded
uniform random search over declared ranges; pruning (no-improvement
window plus wall-clock budget) lives in the training loop itself.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .instance import Instance, brute_force_optimum, planted_optimum
from .sampler import SamplerConfig
from .vmc import RunRecord, VmcConfig, train

REPORT_HEADER = ["n_cities", "representation", "n_trials", "percent_converged", "median_time_s"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified run: instance, configuration, master seed and
    (optionally) the energy that counts as success."""

    instance: Instance
    vmc: VmcConfig
    seed: int
    target_energy: float | None = None

    @property
    def representation(self) -> str:
        return self.vmc.representation


def is_planted_linear(instance: Instance) -> bool:
    """True for the benchmark layout with coordinates 1..N on a line."""
    return instance.coords is not None and np.array_equal(
        instance.coords, np.arange(1, instance.n_cities + 1, dtype=float)
    )


def default_target(instance: Instance) -> float | None:
    """Success energy when the caller does not give one: the planted
    optimum on the line layout, the brute-force optimum on other small
    instances, nothing otherwise."""
    if is_planted_linear(instance):
        return planted_optimum(instance.n_cities)
    if instance.n_cities <= 10:
        return brute_force_optimum(instance)[1]
    return None


def run_experiment(spec: ExperimentSpec, sink=None) -> RunRecord:
    """Execute one training run; spec.seed overrides the sampler seed so a
    single integer reproduces the whole run."""
    cfg = replace(spec.vmc, sampler=replace(spec.vmc.sampler, seed=spec.seed))
    target = spec.target_energy if spec.target_energy is not None else default_target(spec.instance)
    return train(spec.instance, cfg, target_energy=target, sink=sink)


# ---------------------------------------------------------------------------
# default hyperparameters
# ---------------------------------------------------------------------------

def default_search_space(n_cities: int, representation: str) -> dict:
    """Declared desk-scale ranges for the random search."""
    n = n_cities
    space: dict = {
        "n_chains": [4, 8, 16],
        "n_swaps": [1, 2, 4],
        # three declared points even when they collide at small n, so the
        # midpoint stays the n/2 element
        "max_swap_len": [min(2, n - 1), max(1, n // 2), n],
        "sample_size": [256, 512, 1024],
        "learning_rate": ("log-uniform", 1e-3, 1e-1),
    }
    if representation == "qudit":
        space["n_channels"] = [2, 4, 8]
        space["kernel_size"] = list(range(2, min(6, n) + 1))
    else:
        space["n_hidden"] = [n, 2 * n, 4 * n]
    return space


def midpoint_hyperparams(n_cities: int, representation: str) -> dict:
    """Midpoints of the default ranges (middle list element, geometric
    midpoint for the log-uniform learning rate)."""
    space = default_search_space(n_cities, representation)
    out = {}
    for key, values in space.items():
        if key == "learning_rate":
            _, lo, hi = values
            out[key] = float(np.sqrt(lo * hi))
        else:
            out[key] = values[len(values) // 2]
    return out


def make_vmc_config(
    n_cities: int,
    representation: str,
    hyperparams: dict,
    *,
    seed: int,
    max_steps: int,
    wall_clock_s: float = 600.0,
    fix_first: bool = True,
    prune_no_improve_steps: int = 300,
) -> VmcConfig:
    sampler = SamplerConfig(
        n_chains=int(hyperparams["n_chains"]),
        n_swaps=int(hyperparams["n_swaps"]),
        max_swap_len=int(hyperparams["max_swap_len"]),
        fix_first=fix_first,
        sample_size=int(hyperparams["sample_size"]),
        seed=seed,
    )
    return VmcConfig(
        representation=representation,
        sampler=sampler,
        n_hidden=int(hyperparams.get("n_hidden", 0)),
        n_channels=int(hyperparams.get("n_channels", 0)),
        kernel_size=int(hyperparams.get("kernel_size", 0)),
        learning_rate=float(hyperparams["learning_rate"]),
        max_steps=max_steps,
        prune_no_improve_steps=prune_no_improve_steps,
        prune_wall_clock_s=wall_clock_s,
    )


def midpoint_vmc_config(
    n_cities: int,
    representation: str,
    *,
    seed: int,
    max_steps: int,
    wall_clock_s: float = 600.0,
    fix_first: bool = True,
) -> VmcConfig:
    """Single-run defaults: the midpoints of the declared search ranges."""
    return make_vmc_config(
        n_cities, representation, midpoint_hyperparams(n_cities, representation),
        seed=seed, max_steps=max_steps, wall_clock_s=wall_clock_s, fix_first=fix_first,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    trial: int
    hyperparams: dict
    seed: int
    best_energy: float
    converged: bool
    time_to_target_s: float | None
    reason: str
    n_steps: int
    wall_s: float


@dataclass(frozen=True)
class SweepSummary:
    n_cities: int
    representation: str
    n_trials: int
    trials: list[TrialResult]
    percent_converged: float
    median_time_to_target_s: float | None


def sample_trial_hyperparams(search_space: dict, sweep_seed: int, trial: int) -> tuple[dict, int]:
    """Draw one trial's hyperparameters and run seed; deterministic in
    (sweep_seed, trial) and independent of execution order."""
    rng = np.random.default_rng(np.random.SeedSequence([sweep_seed, trial]))
    picked = {}
    for key in sorted(search_space):
        values = search_space[key]
        if key == "learning_rate":
            _, lo, hi = values
            picked[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        else:
            picked[key] = values[int(rng.integers(len(values)))]
    run_seed = int(rng.integers(2 ** 31))
    return picked, run_seed


def sweep(
    instance: Instance,
    representation: str,
    search_space: dict | None,
    n_trials: int,
    seed: int,
    *,
    target_energy: float | None = None,
    max_steps: int = 400,
    wall_clock_s: float = 600.0,
    fix_first: bool = True,
) -> SweepSummary:
    """Random hyperparameter search with the standard pruning rules."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    space = search_space if search_space is not None else default_search_space(
        instance.n_cities, representation
    )
    target = target_energy if target_energy is not None else default_target(instance)

    def run_trial(trial: int) -> TrialResult:
        hyperparams, run_seed = sample_trial_hyperparams(space, seed, trial)
        cfg = make_vmc_config(
            instance.n_cities, representation, hyperparams,
            seed=run_seed, max_steps=max_steps, wall_clock_s=wall_clock_s,
            fix_first=fix_first,
        )
        record = train(instance, cfg, target_energy=target)
        return TrialResult(
            trial=trial,
            hyperparams=hyperparams,
            seed=run_seed,
            best_energy=record.best_energy,
            converged=record.converged,
            time_to_target_s=record.time_to_target_s,
            reason=record.termination_reason,
            n_steps=record.n_steps,
            wall_s=record.total_time_s,
        )

    trials = [run_trial(t) for t in range(n_trials)]

    converged_times = [t.time_to_target_s for t in trials if t.converged and t.time_to_target_s is not None]
    return SweepSummary(
        n_cities=instance.n_cities,
        representation=representation,
        n_trials=n_trials,
        trials=trials,
        percent_converged=100.0 * sum(t.converged for t in trials) / n_trials,
        median_time_to_target_s=statistics.median(converged_times) if converged_times else None,
    )


def save_summary(summary: SweepSummary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(summary), indent=2) + "\n")


def load_summary(path: str | Path) -> SweepSummary:
    payload = json.loads(Path(path).read_text())
    trials = [TrialResult(**t) for t in payload.pop("trials")]
    return SweepSummary(trials=trials, **payload)


def report_convergence(summaries: list[SweepSummary]) -> str:
    """CSV table with one row per (N, representation) sweep."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(REPORT_HEADER)
    for s in sorted(summaries, key=lambda s: (s.n_cities, s.representation)):
        median = "" if s.median_time_to_target_s is None else f"{s.median_time_to_target_s:.6f}"
        writer.writerow([s.n_cities, s.representation, s.n_trials,
                         f"{s.percent_converged:.1f}", median])
    return out.getvalue()
