"""Command-line front end.

Subcommands: gen (write a linear instance), solve (one training run),
exact (brute-force optimum), diag (lowest eigenvalue of the dense matrix
at tiny N; not a tour length, see the README),
sweep (random hyperparameter search) and report (CSV convergence table).
Exit codes: 0 success, 1 usage error, 2 runtime error, a failed allocation
included (for sweep: every trial failed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, harness, instance as inst
from .errors import QtspError
from .instance import Instance, linear_instance, load_instance
from .sampler import SamplerConfig
from .vmc import NETWORKS, VmcConfig, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract wants 1
        raise _UsageError(message)


def _seed(args) -> int:
    """--seed, which must be a non-negative integer."""
    if args.seed < 0:
        raise QtspError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cities", type=int, help="generate a linear instance with this many cities")
    p.add_argument("--instance", type=str, help="path to an instance JSON file")


def _resolve_instance(args) -> Instance:
    if (args.cities is None) == (args.instance is None):
        raise _UsageError("exactly one of --cities and --instance is required")
    if args.cities is not None:
        return linear_instance(args.cities)
    return load_instance(args.instance)


@lru_cache(maxsize=1)  # built once: each parser is a reference cycle left to the collector
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qtsp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qtsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a linear instance as JSON")
    p_gen.add_argument("--cities", type=int, required=True)
    p_gen.add_argument("--out", type=str, default="-", help="output path, '-' for stdout")

    p_solve = sub.add_parser("solve", help="run one variational Monte Carlo optimization")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--rep", choices=tuple(NETWORKS), required=True)
    p_solve.add_argument("--net", choices=tuple(kind for kind, *_ in NETWORKS.values()),
                         help="ansatz (defaults to the representation's native one)")
    p_solve.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    # a flag that sets a run setting takes its field name as dest; None keeps the default
    p_solve.add_argument("--steps", type=int, dest="max_steps", help="maximum MC steps")
    p_solve.add_argument("--lr", type=float, dest="learning_rate")
    p_solve.add_argument("--chains", type=int, dest="n_chains")
    p_solve.add_argument("--swaps", type=int, dest="n_swaps",
                         help="most swaps per proposal; each draws its count from 1..SWAPS")
    p_solve.add_argument("--max-swap-len", type=int, dest="max_swap_len")
    p_solve.add_argument("--sample-size", type=int, dest="sample_size",
                         help="configurations per step, a multiple of --chains")
    p_solve.add_argument("--hidden", type=int, dest="n_hidden", help="hidden units (qubit)")
    p_solve.add_argument("--channels", type=int, dest="n_channels", help="channels (qudit)")
    p_solve.add_argument("--kernel", type=int, dest="kernel_size", help="kernel size (qudit)")
    p_solve.add_argument("--target", type=str, default=None,
                         help="stop when this energy is reached; 'auto' derives it "
                              "(default: no target)")
    p_solve.add_argument("--time-limit", type=float, dest="prune_wall_clock_s",
                         help="wall-clock prune in seconds")
    p_solve.add_argument("--no-improve-steps", type=int, dest="prune_no_improve_steps")
    p_solve.add_argument("--fix-first", action=argparse.BooleanOptionalAction, default=True,
                         help="pin city 1 to the first tour slot")
    p_solve.add_argument("--out", type=str, default=None, help="JSONL stream path, '-' for stdout")

    p_exact = sub.add_parser("exact", help="brute-force optimum (N <= 12)")
    _add_instance_flags(p_exact)

    p_diag = sub.add_parser("diag", help="lowest eigenvalue of the dense matrix (N <= 5)")
    _add_instance_flags(p_diag)
    p_diag.add_argument("--variant", choices=("eq2", "eq4"), default="eq2")
    p_diag.add_argument("--p", type=float, default=None,
                        help="penalty (default: 10 * N * max distance)")
    p_diag.add_argument("--csv", type=str, default=None, help="also dump the matrix as CSV")

    p_sweep = sub.add_parser("sweep", help="random hyperparameter search with pruning")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--rep", choices=tuple(NETWORKS), required=True)
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--steps", type=int, dest="max_steps", default=400,
                         help="maximum MC steps per trial")
    p_sweep.add_argument("--time-limit", type=float, dest="prune_wall_clock_s")
    p_sweep.add_argument("--out", type=str, default="-", help="summary JSON path, '-' for stdout")

    p_report = sub.add_parser("report", help="CSV convergence table from sweep summaries")
    p_report.add_argument("summaries", nargs="*", help="sweep summary JSON files")
    p_report.add_argument("--out", type=str, default="-", help="CSV path, '-' for stdout")

    return parser


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_gen(args) -> int:
    _write_text(args.out, inst.instance_json(linear_instance(args.cities)))
    return 0


def _cmd_exact(args) -> int:
    instance = _resolve_instance(args)
    tour, length = inst.brute_force_optimum(instance)
    print("tour:", " ".join(str(c) for c in tour))
    print(f"length: {length}")
    return 0


def _cmd_diag(args) -> int:
    from . import encoding  # only diag needs the Hamiltonians; training never loads them

    instance = _resolve_instance(args)
    if args.p is None:
        pen = encoding.default_penalties(instance)
    else:
        pen = encoding.PenaltyConfig(p=args.p, p_prime=args.p)
    h = encoding.dense_hamiltonian(instance, args.variant, pen)
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    labels = encoding.basis_labels(instance.n_cities)
    top = int(np.argmax(np.abs(eigenvectors[:, 0])))
    print(f"variant: {args.variant}")
    print(f"dimension: {h.shape[0]}")
    print(f"ground_energy: {eigenvalues[0]}")
    print(f"dominant_basis_state: {labels[top]}")
    if args.csv is not None:
        Path(args.csv).write_text(encoding.dense_to_csv(h, instance.n_cities))
    return 0


# the run settings a flag may set, by field name; seed and fix_first are passed apart
_SETTINGS = {f.name for cls in (SamplerConfig, VmcConfig) for f in fields(cls)
             if f.name not in ("seed", "fix_first")}


def _given_settings(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}


def _solve_config(args, instance: Instance) -> VmcConfig:
    if args.net not in (None, NETWORKS[args.rep][0]):
        raise _UsageError(f"--net {args.net} does not match --rep {args.rep}")
    hyper = {**harness.midpoint_hyperparams(instance.n_cities, args.rep), **_given_settings(args)}
    return harness.make_vmc_config(args.rep, hyper, seed=_seed(args), fix_first=args.fix_first)


def _resolve_target(args, instance: Instance) -> float | None:
    if args.target is None:
        return None
    if args.target == "auto":
        target = harness.default_target(instance)
        if target is None:
            raise QtspError("cannot derive --target auto for this instance; pass a number")
        return target
    try:
        target = float(args.target)
    except ValueError as exc:
        raise _UsageError(f"--target must be a number or 'auto', got {args.target!r}") from exc
    if not np.isfinite(target):
        raise _UsageError(f"--target must be finite, got {args.target!r}")
    return target


def _cmd_solve(args) -> int:
    instance = _resolve_instance(args)
    cfg = _solve_config(args, instance)
    target = _resolve_target(args, instance)

    with contextlib.ExitStack() as stack:
        out = []  # opened at train's header line, once its set-up checks have passed
        def sink(line: dict) -> None:
            if not out:
                out.append(sys.stdout if args.out == "-" else
                           stack.enter_context(open(args.out, "w", encoding="utf-8")))
            out[0].write(json.dumps(line, allow_nan=False) + "\n")
            out[0].flush()
        record = train(instance, cfg, target_energy=target,
                       sink=None if args.out is None else sink)

    if args.out != "-":  # else stdout holds the stream alone, whose footer has these facts
        print(f"reason: {record.termination_reason}")
        print(f"steps: {record.n_steps}")
        print(f"best_energy: {record.best_energy}")
        print("best_tour:", " ".join(str(c) for c in record.best_tour))
        print(f"converged: {str(record.converged).lower()}")
        print(f"time_s: {record.total_time_s:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    instance = _resolve_instance(args)
    summary = harness.sweep(instance, args.rep, None, args.trials, _seed(args),
                            **_given_settings(args))
    _write_text(args.out, harness.summary_json(summary))
    if args.out != "-":
        print(f"converged: {summary.percent_converged:.1f}% of {summary.n_trials} trials")
    errors = [t.error for t in summary.trials if t.error is not None]
    if errors:
        print(f"error: {len(errors)} of {summary.n_trials} trials failed; first: {errors[0]}",
              file=sys.stderr)
    return 2 if len(errors) == summary.n_trials else 0


def _cmd_report(args) -> int:
    summaries = [harness.load_summary(p) for p in args.summaries]
    _write_text(args.out, harness.report_convergence(summaries))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "diag": _cmd_diag,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'qtsp --help' for usage", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if not exc.code else 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QtspError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
