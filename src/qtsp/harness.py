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
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import QtspError
from .instance import Instance, brute_force_optimum, linear_instance, planted_optimum
from .sampler import SamplerConfig
from .vmc import RunRecord, VmcConfig, train

REPORT_HEADER = ["n_cities", "representation", "n_trials", "percent_converged", "median_time_s"]


def is_planted_linear(instance: Instance) -> bool:
    """True for the benchmark layout, linear_instance, whose optimum is 2(N - 1)."""
    return np.array_equal(instance.dist, linear_instance(instance.n_cities).dist)


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
    """Declared desk-scale ranges for the random search. An entry is a
    ("log-uniform", lo, hi) range or a list of choices, whatever its key."""
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


def _log_range(key: str, entry) -> tuple[float, float] | None:
    """(lo, hi) of a ("log-uniform", lo, hi) search-space entry, None for a
    list of choices; any other entry raises ValueError naming its key."""
    if isinstance(entry, list) and entry:
        return None
    if (isinstance(entry, tuple) and len(entry) == 3 and entry[0] == "log-uniform"
            and 0 < entry[1] <= entry[2] < math.inf):
        return entry[1], entry[2]
    raise ValueError(f"search space entry {key!r} must be a ('log-uniform', lo, hi) range "
                     f"with 0 < lo <= hi < inf or a non-empty list of choices, got {entry!r}")


def midpoint_hyperparams(n_cities: int, representation: str) -> dict:
    """Midpoints of the default ranges (middle list element, geometric
    midpoint of a log-uniform range)."""
    out = {}
    for key, entry in default_search_space(n_cities, representation).items():
        log_range = _log_range(key, entry)
        if log_range is None:
            out[key] = entry[len(entry) // 2]
        else:
            out[key] = float(np.sqrt(log_range[0] * log_range[1]))
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

    hyperparams: dict
    seed: int
    best_energy: float | None
    time_to_target_s: float | None
    reason: str
    n_steps: int
    wall_s: float
    error: str | None = None

    @property
    def converged(self) -> bool:
        return self.reason == "target-reached"


@dataclass(frozen=True)
class SweepSummary:
    """A sweep's trials; its converged share and median time to target are read off them."""

    n_cities: int
    representation: str
    trials: list[TrialResult]

    n_trials = property(lambda self: len(self.trials))

    @property
    def percent_converged(self) -> float:
        return 100.0 * sum(t.converged for t in self.trials) / self.n_trials

    @property
    def median_time_to_target_s(self) -> float | None:
        """np.median of the converged times, whose middle two are halved
        before they are added where their sum would overflow."""
        times = sorted(float(t.time_to_target_s) for t in self.trials if t.converged)
        if not times:
            return None
        lo, hi = times[(len(times) - 1) // 2], times[len(times) // 2]
        return (lo + hi) / 2 if math.isfinite(lo + hi) else lo / 2 + hi / 2


def sample_trial_hyperparams(search_space: dict, sweep_seed: int, trial: int) -> tuple[dict, int]:
    """Draw one trial's hyperparameters and run seed; deterministic in
    (sweep_seed, trial) and independent of execution order. A list entry
    is drawn uniformly from its choices, a log-uniform range log-uniformly."""
    rng = np.random.default_rng(np.random.SeedSequence([sweep_seed, trial]))
    picked = {}
    for key in sorted(search_space):
        entry = search_space[key]
        log_range = _log_range(key, entry)
        if log_range is None:
            picked[key] = entry[int(rng.integers(len(entry)))]
        else:
            lo, hi = log_range
            picked[key] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
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
    `make_vmc_config`; an instance with no such target is refused with
    QtspError, and a bad budget with ValueError, before any trial runs. A
    trial that raises, its sampled configuration included, is recorded as
    an error and the sweep goes on."""
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    # the budgets are every trial's, so check them once, on the midpoint configuration
    make_vmc_config(representation, midpoint_hyperparams(instance.n_cities, representation),
                    seed=seed, **budgets)
    space = search_space if search_space is not None else default_search_space(
        instance.n_cities, representation
    )
    target = default_target(instance)
    if target is None:
        raise QtspError("cannot derive a target for this instance, so no trial could converge")

    def run_trial(trial: int) -> TrialResult:
        hyperparams, run_seed = sample_trial_hyperparams(space, seed, trial)
        # train's footer, which ends every run it starts; an empty run's
        # stands in when the trial fails before train's first line
        end = RunRecord([], "error", 0.0).footer()

        def keep_footer(line: dict) -> None:
            if line["type"] == "footer":
                end.update(line)

        error = None
        try:
            cfg = make_vmc_config(representation, hyperparams, seed=run_seed, **budgets)
            train(instance, cfg, target_energy=target, sink=keep_footer)
        except Exception as exc:  # one failed trial must not lose the others
            error = f"{type(exc).__name__}: {exc}"
        return TrialResult(hyperparams=hyperparams, seed=run_seed, best_energy=end["best_energy"],
                           time_to_target_s=end["time_to_target_s"], reason=end["reason"],
                           n_steps=end["n_steps"], wall_s=end["total_time_s"], error=error)

    return SweepSummary(instance.n_cities, representation, [run_trial(t) for t in range(n_trials)])


def summary_json(summary: SweepSummary) -> str:
    """The sweep summary file format that load_summary reads: one line of
    strict JSON, so a NaN or infinite value raises ValueError. No indent,
    as in instance.instance_json."""
    return json.dumps(asdict(summary), allow_nan=False) + "\n"


_JSON_TYPES = {"int": (int,), "float": (int, float), "float | None": (int, float, type(None)),
               "str": (str,), "str | None": (str, type(None)), "dict": (dict,),
               "list[TrialResult]": (list,)}


def _finite(parse):
    """A json number hook that reads with `parse`. NaN, Infinity and numbers
    past the float range, which the report could not format, raise ValueError."""
    def read(text: str):
        if not np.isfinite(float(text)):
            raise ValueError(f"{text} is no finite JSON number")
        return parse(text)
    return read


def load_summary(path: str | Path) -> SweepSummary:
    """Inverse of summary_json. Raises ValueError naming the file on invalid JSON
    (NaN and Infinity included), a number past the float range, nesting deeper
    than the decoder allows, a missing or unknown key, a value of a type its
    field rejects (a bool is no number), no trials, or a converged trial
    without a time to target."""
    try:
        payload = json.loads(Path(path).read_text(), parse_constant=_finite(float),
                             parse_float=_finite(float), parse_int=_finite(int))
        trials = [TrialResult(**t) for t in payload.pop("trials")]
        summary = SweepSummary(trials=trials, **payload)
        for record in (summary, *trials):
            for f in fields(record):
                if type(getattr(record, f.name)) not in _JSON_TYPES[f.type]:
                    raise TypeError(f"{f.name} = {getattr(record, f.name)!r}")
        if not trials or any(t.converged and t.time_to_target_s is None for t in trials):
            raise ValueError("no trials, or a converged trial with no time_to_target_s")
        return summary
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
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
