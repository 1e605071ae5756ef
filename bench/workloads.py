"""The benchmark's workloads, the checks on their outputs and their set-up.

Each workload is a closed loop: one run at a time in one process, with no
thread or process pool. A *unit* is what one seed runs: one ``qtsp solve``,
one ``train`` call or one sweep of SWEEP_TRIALS trials. A unit returns one
`Run` per training run it made; a unit that raises counts every run in it
as failed, and the benchmark goes on with the next unit.

All runs use the planted linear instance (cities at x = 1..N), whose
optimum 2(N - 1) is known, so outputs are checked without trusting qtsp's
own tour arithmetic.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import qtsp
import qtsp.cli
from tracer import Patch

N_CITIES = 12
OPTIMUM = 2.0 * (N_CITIES - 1)
TOL = 1e-9
TRAIN_STEPS = 20
SWEEP_TRIALS = 2
SWEEP_MAX_STEPS = 300
SOLVE_ARGS = ("solve", "--rep", "qudit", "--net", "cnn", "--cities", str(N_CITIES),
              "--target", "auto")


@dataclass
class Run:
    """Outcome of one training run, as read from the program's output."""

    seed: int
    n_steps: int = 0
    reason: str = ""
    best_energy: float = math.nan
    best_tour: list = field(default_factory=list)
    total_time_s: float = 0.0
    time_to_target_s: float | None = None
    step_walls: list = field(default_factory=list)
    jsonl_bytes: int = 0
    error: str | None = None                       # the run raised
    problems: list = field(default_factory=list)   # failed output checks

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    @property
    def converged(self) -> bool:
        return self.time_to_target_s is not None

    def fingerprint(self) -> tuple:
        return self.n_steps, self.best_energy, tuple(self.best_tour), self.reason


def check(run: Run, max_steps: int) -> None:
    """Append to run.problems every output check the run fails."""
    if run.error is not None:
        return
    tour = [int(c) for c in run.best_tour]
    if sorted(tour) != list(range(1, N_CITIES + 1)):
        run.problems.append("best tour is not a permutation of 1..N")
    else:
        length = sum(abs(a - b) for a, b in zip(tour, tour[1:] + tour[:1]))
        if abs(length - run.best_energy) > TOL:
            run.problems.append(f"best tour has length {length}, best_energy {run.best_energy}")
    if run.converged and abs(run.best_energy - OPTIMUM) > TOL:
        run.problems.append(f"converged at {run.best_energy}, not {OPTIMUM}")
    if run.converged and run.time_to_target_s > run.total_time_s:
        run.problems.append("time_to_target_s exceeds total_time_s")
    if not 1 <= run.n_steps <= max_steps or len(run.step_walls) != run.n_steps:
        run.problems.append(f"{run.n_steps} steps reported, {len(run.step_walls)} recorded")
    elif any(b < a for a, b in zip(run.step_walls, run.step_walls[1:])):
        run.problems.append("step wall clock goes backwards")


def from_record(seed: int, record) -> Run:
    return Run(
        seed=seed,
        n_steps=record.n_steps,
        reason=record.termination_reason,
        best_energy=float(record.best_energy),
        best_tour=[int(c) for c in record.best_tour],
        total_time_s=record.total_time_s,
        time_to_target_s=record.time_to_target_s,
        step_walls=[s.wall_clock_s for s in record.steps],
    )


# ---------------------------------------------------------------------------
# qudit-n12-solve: `qtsp solve` through the CLI, read back from its JSONL
# ---------------------------------------------------------------------------

SOLVE_MAX_STEPS = 2000


def _cli_solve(seed: int, scratch: Path, steps: int) -> Run:
    path = scratch / f"solve-{seed}.jsonl"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = qtsp.cli.cli([*SOLVE_ARGS, "--steps", str(steps), "--seed", str(seed),
                             "--out", str(path)])
    if code != 0:
        return Run(seed, error=f"exit code {code}: {err.getvalue().strip()}")
    text = path.read_text(encoding="utf-8")
    path.unlink()
    lines = [json.loads(line) for line in text.splitlines()]
    steps_lines = lines[1:-1]
    footer = lines[-1]
    run = Run(
        seed=seed,
        n_steps=footer.get("n_steps", 0),
        reason=footer.get("reason", ""),
        best_energy=footer.get("best_energy", math.nan),
        best_tour=footer.get("best_tour", []),
        total_time_s=footer.get("total_time_s", 0.0),
        time_to_target_s=footer.get("time_to_target_s"),
        step_walls=[s.get("wall_clock_s") for s in steps_lines],
        jsonl_bytes=len(text.encode("utf-8")),
    )
    kinds = [line.get("type") for line in lines]
    numbers = [s.get("step") for s in steps_lines]
    if (kinds != ["header"] + ["step"] * len(steps_lines) + ["footer"]
            or numbers != list(range(1, len(steps_lines) + 1))):
        run.problems.append("JSONL is not a header, one line per step and a footer")
    return run


def solve_unit(seed: int, scratch: Path) -> list[Run]:
    return [_cli_solve(seed, scratch, SOLVE_MAX_STEPS)]


def solve_setup(seed: int, scratch: Path) -> float:
    t0 = perf_counter()
    run = _cli_solve(seed, scratch, 1)
    if run.error is not None:
        raise RuntimeError(run.error)
    return perf_counter() - t0 - run.total_time_s


# ---------------------------------------------------------------------------
# qubit-n12-train: `train` for a fixed number of steps, no target
# ---------------------------------------------------------------------------

def _train(seed: int, steps: int):
    cfg = qtsp.harness.midpoint_vmc_config(N_CITIES, "qubit", seed=seed, max_steps=steps)
    return qtsp.train(qtsp.linear_instance(N_CITIES), cfg, target_energy=None)


def train_unit(seed: int, scratch: Path) -> list[Run]:
    return [from_record(seed, _train(seed, TRAIN_STEPS))]


def train_setup(seed: int, scratch: Path) -> float:
    t0 = perf_counter()
    record = _train(seed, 1)
    return perf_counter() - t0 - record.total_time_s


# ---------------------------------------------------------------------------
# sweep-qudit-n12: `harness.sweep` over the default search space. It draws
# 4-16 chains, 256-1024 samples, 1-4 swaps and a learning rate in
# [1e-3, 1e-1], so it shows a sampler change tuned for 8 chains that costs
# at 4 or 16, and a warm-up cut that hurts mixing. It is not in
# BENCHMARK.json: the draw changes with the seed, and with it the cost of a
# step and the peak memory, so its timings cannot be compared across seeds.
# ---------------------------------------------------------------------------

def _sweep(seed: int, n_trials: int, max_steps: int):
    """Run one sweep; returns (summary, the RunRecord of every trial)."""
    records = []

    def capture(train: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            record = train(*args, **kwargs)
            records.append(record)
            return record
        return wrapper

    with Patch() as patch:
        patch.apply("qtsp.vmc.train", capture)
        summary = qtsp.harness.sweep(qtsp.linear_instance(N_CITIES), "qudit", None,
                                     n_trials, seed, max_steps=max_steps)
    return summary, records


def sweep_unit(seed: int, scratch: Path) -> list[Run]:
    summary, records = _sweep(seed, SWEEP_TRIALS, SWEEP_MAX_STEPS)
    runs = []
    for i, trial in enumerate(summary.trials):
        if i >= len(records):
            runs.append(Run(trial.seed, problems=["trial ran no observable train call"]))
            continue
        run = from_record(trial.seed, records[i])
        if (trial.best_energy, trial.n_steps, trial.converged) != (
                run.best_energy, run.n_steps, records[i].converged):
            run.problems.append("sweep summary disagrees with the trial's run")
        runs.append(run)
    return runs


def sweep_setup(seed: int, scratch: Path) -> float:
    t0 = perf_counter()
    summary, _ = _sweep(seed, 1, 1)
    return perf_counter() - t0 - summary.trials[0].wall_s


@dataclass(frozen=True)
class Workload:
    name: str
    unit: Callable[[int, Path], list[Run]]
    runs_per_unit: int
    max_steps: int
    targeted: bool                         # runs stop at 2(N - 1)
    setup: Callable[[int, Path], float]    # seconds before the first step
    n_seeds: int                           # length of the fixed seed list


WORKLOADS = {
    w.name: w for w in (
        Workload("qudit-n12-solve", solve_unit, 1, SOLVE_MAX_STEPS, True, solve_setup, 16),
        Workload("qubit-n12-train", train_unit, 1, TRAIN_STEPS, False, train_setup, 10),
        Workload("sweep-qudit-n12", sweep_unit, SWEEP_TRIALS, SWEEP_MAX_STEPS, True, sweep_setup,
                 3),
    )
}
