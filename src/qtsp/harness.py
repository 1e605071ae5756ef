"""Experiment harness: default hyperparameters, random hyperparameter
sweeps with pruning, and CSV convergence reports comparing the two
representations.

The sweep replaces a model-based hyperparameter optimizer with seeded
uniform random search over declared ranges; pruning (no-improvement
window plus wall-clock budget) lives in the training loop itself.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .instance import Instance, brute_force_optimum, planted_optimum
from .sampler import SamplerConfig
from .vmc import VmcConfig, train

REPORT_HEADER = ["n_cities", "representation", "n_trials", "percent_converged", "median_time_s"]


def is_planted_linear(instance: Instance) -> bool:
    """True for the benchmark layout: the distances |i - j| of cities on a
    line, in label order. They alone fix the optimum at 2(N - 1), whatever
    the coordinates."""
    line = np.arange(instance.n_cities, dtype=float)
    return np.array_equal(instance.dist, np.abs(line[:, None] - line))


def default_target(instance: Instance) -> float | None:
    """Success energy for `solve --target auto` and for sweeps: the planted
    optimum on the line layout, the brute-force optimum on other small
    instances, nothing otherwise."""
    if is_planted_linear(instance):
        return planted_optimum(instance.n_cities)
    if instance.n_cities <= 10:
        return brute_force_optimum(instance)[1]
    return None


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
    representation: str,
    hyperparams: dict,
    *,
    seed: int,
    fix_first: bool = True,
    **budgets,
) -> VmcConfig:
    """A run configuration from sampled hyperparameters, each passed to
    SamplerConfig or VmcConfig by its field name. `budgets` are VmcConfig's
    max_steps, prune_no_improve_steps and prune_wall_clock_s; the ones not
    given keep VmcConfig's defaults."""
    sampler_keys = {f.name for f in fields(SamplerConfig)}
    sampler = SamplerConfig(fix_first=fix_first, seed=seed,
                            **{k: v for k, v in hyperparams.items() if k in sampler_keys})
    return VmcConfig(representation=representation, sampler=sampler, **budgets,
                     **{k: v for k, v in hyperparams.items() if k not in sampler_keys})


def midpoint_vmc_config(
    n_cities: int,
    representation: str,
    *,
    seed: int,
    max_steps: int,
) -> VmcConfig:
    """Single-run defaults: the midpoints of the declared search ranges."""
    return make_vmc_config(
        representation, midpoint_hyperparams(n_cities, representation),
        seed=seed, max_steps=max_steps,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    """One trial's run. A trial whose train call raised has reason "error",
    the message in error, and the step count, best energy (None if no step
    finished) and wall time of train's error footer."""

    trial: int
    hyperparams: dict
    seed: int
    best_energy: float | None
    converged: bool
    time_to_target_s: float | None
    reason: str
    n_steps: int
    wall_s: float
    error: str | None = None


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
    **budgets,
) -> SweepSummary:
    """Random hyperparameter search with the standard pruning rules. Every
    trial runs to `default_target(instance)` within `budgets`, as in
    `make_vmc_config`. A trial that raises is recorded as an error and the
    sweep goes on."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    space = search_space if search_space is not None else default_search_space(
        instance.n_cities, representation
    )
    target = default_target(instance)

    def run_trial(trial: int) -> TrialResult:
        hyperparams, run_seed = sample_trial_hyperparams(space, seed, trial)
        cfg = make_vmc_config(representation, hyperparams, seed=run_seed, **budgets)
        # train's footer, which ends every run it starts; the defaults stand
        # in when it fails before its first line
        end = {"reason": "error", "n_steps": 0, "best_energy": None, "total_time_s": 0.0,
               "time_to_target_s": None}

        def keep_footer(line: dict) -> None:
            if line["type"] == "footer":
                end.update(line)

        error = None
        try:
            train(instance, cfg, target_energy=target, sink=keep_footer)
        except Exception as exc:  # one failed trial must not lose the others
            error = f"{type(exc).__name__}: {exc}"
        return TrialResult(
            trial=trial,
            hyperparams=hyperparams,
            seed=run_seed,
            best_energy=end["best_energy"],
            converged=end["reason"] == "target-reached",
            time_to_target_s=end["time_to_target_s"],
            reason=end["reason"],
            n_steps=end["n_steps"],
            wall_s=end["total_time_s"],
            error=error,
        )

    trials = [run_trial(t) for t in range(n_trials)]

    converged_times = [t.time_to_target_s for t in trials if t.converged]
    return SweepSummary(
        n_cities=instance.n_cities,
        representation=representation,
        n_trials=n_trials,
        trials=trials,
        percent_converged=100.0 * sum(t.converged for t in trials) / n_trials,
        median_time_to_target_s=float(np.median(converged_times)) if converged_times else None,
    )


def summary_json(summary: SweepSummary) -> str:
    """The sweep summary file format that load_summary reads: strict JSON,
    so a NaN or infinite value raises ValueError."""
    return json.dumps(asdict(summary), indent=2, allow_nan=False) + "\n"


_JSON_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None)),
               "bool": (bool,), "str": (str,), "str | None": (str, type(None)), "dict": (dict,),
               "list[TrialResult]": (list,)}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def load_summary(path: str | Path) -> SweepSummary:
    """Inverse of summary_json. Raises ValueError naming the file on invalid JSON
    (NaN and Infinity included), a missing or unknown key, or a value of a type its
    field rejects (a bool is no number)."""
    try:
        payload = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
        trials = [TrialResult(**t) for t in payload.pop("trials")]
        summary = SweepSummary(trials=trials, **payload)
        for record in (summary, *trials):
            for f in fields(record):
                if type(getattr(record, f.name)) not in _JSON_TYPES[f.type]:
                    raise TypeError(f"{f.name} = {getattr(record, f.name)!r}")
        return summary
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed sweep summary ({exc})") from None


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
