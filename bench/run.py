#!/usr/bin/env python3
"""One-command VMC benchmark for qtsp.

    python3 bench/run.py --workload qudit-n12-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --out BENCH.json

Run it from the root of a checkout: it imports qtsp from that checkout's
src/. The workloads, their output checks and their set-up are in
workloads.py; the tracer is in tracer.py; BENCHMARK.json names the
metrics the last output line carries and says why each workload is there.

Each workload has a fixed list of seeds, offset by --seed. --trace 0 runs
one unit per seed in the list, however long that takes, then goes through
the list again until --seconds have passed; the convergence metrics cover
the first pass, the timings every unit, and every repeat must equal the
seed's first run. --trace 1 runs each unit untraced and then traced for
--seconds, and reports the per-layer metrics and the tracing overhead.
--workload all runs every workload untraced and then traced, each in a
fresh process.

A shared 2-core host can change speed by up to 2x within seconds and
for minutes at a time, as other tenants' work takes its CPUs. So the
step times (step_ms.*) and the set-up time (setup_s, which BENCHMARK.json
gates) are host-normalized: the benchmark times a fixed piece of its own
work (probes.reference) before and after every unit, and a fresh
interpreter that runs it right after every set-up probe. The median of
each over the run, against its nominal time, gives how many times slower
than nominal the host ran (host_slowdown), and the measured medians are
divided by it. The raw wall times are printed as wall.*.

Every invocation prints every metric with its unit and sample count, then,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics. Exit status: 0 when every run passed its checks, 1 when a run
raised or failed a check, 2 on bad usage or when the qtsp sources are
missing. Timing never decides the exit status.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probes
from tracer import LAYERS, PHASES, GradMemory, Tracer

SEED_STRIDE = 10_000          # seed k of the list of --seed s is s * SEED_STRIDE + k
SETUP_REPEATS = 11            # fresh interpreter pairs behind setup_s
REFERENCE_CALLS = 3           # reference() calls before each unit and after the last
REASONS = ("target-reached", "no-improvement", "time-limit", "max-steps", "other", "error")


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, k: int):
    """k-th percentile (k = 1..99) of values, or None for fewer than two."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


class Metrics(dict):
    """name -> {"value", "unit", "n"}; n is the sample count behind the value."""

    def put(self, name: str, value, unit: str, n: int) -> None:
        self[name] = {"value": value, "unit": unit, "n": n}


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------

def run_unit(workload, seed: int, scratch: Path):
    from workloads import Run, check

    try:
        runs = workload.unit(seed, scratch)
    except Exception as exc:  # a failure is an outcome: record it and go on
        error = f"{type(exc).__name__}: {exc}"
        runs = [Run(seed, error=error) for _ in range(workload.runs_per_unit)]
    for run in runs:
        check(run, workload.max_steps)
    return runs


@dataclass
class Units:
    units: list = field(default_factory=list)        # untraced, in run order
    traced: list = field(default_factory=list)       # the traced twin of each unit
    setups: list = field(default_factory=list)       # set-up probe results
    reference_s: list = field(default_factory=list)  # reference() times between units


def run_units(workload, seeds: list, seconds: float, scratch: Path, probe, n_probes: int,
              tracer=None) -> Units:
    """Run the units of `seeds` in order, and again from the start, until
    `seconds` have passed.

    Untraced, every seed runs at least once however long that takes, so
    that the convergence metrics always cover the same seeds; traced, at
    least one unit runs. The reference kernel runs before every unit.
    `probe` (the set-up probe) runs n_probes times, spread evenly over the
    run, so that its median sees the same drift in the host's speed as the
    units; its time does not count against `seconds`. With a tracer, each
    unit runs again traced right after its untraced run, so that the drift
    hits both sides of trace.overhead_pct alike.
    """
    out = Units()
    start = perf_counter()
    deadline = start + seconds
    whole_pass = len(seeds) if tracer is None else 1
    for k in itertools.count():
        now = perf_counter()
        if k >= whole_pass and now >= deadline:
            break
        if len(out.setups) < n_probes and now >= start + len(out.setups) * seconds / n_probes:
            out.setups.append(probe())
            deadline += perf_counter() - now
        out.reference_s += [probes.reference() for _ in range(REFERENCE_CALLS)]
        seed = seeds[k % len(seeds)]
        out.units.append(run_unit(workload, seed, scratch))
        if tracer is not None:
            with tracer:
                out.traced.append(run_unit(workload, seed, scratch))
    out.reference_s += [probes.reference() for _ in range(REFERENCE_CALLS)]
    out.setups += [probe() for _ in range(n_probes - len(out.setups))]
    return out


def determinism(warmup, units: list, n_seeds: int) -> dict:
    """Compare every run of a seed made in this invocation with its first.

    The warm-up run repeats the first seed; unit k repeats unit k % n_seeds.
    """
    pairs = [(warmup, units[0][0])] + [
        (first, again)
        for k in range(n_seeds, len(units))
        for first, again in zip(units[k % n_seeds], units[k])
    ]
    differing = sorted({a.seed for a, b in pairs
                        if a.error is not None or b.error is not None
                        or a.fingerprint() != b.fingerprint()})
    return {"pairs": len(pairs), "differing_seeds": differing}


def _flat(units):
    return [run for unit in units for run in unit]


def _steps_per_s(runs) -> float | None:
    train_s = sum(r.total_time_s for r in runs if not r.failed)
    return sum(r.n_steps for r in runs if not r.failed) / train_s if train_s else None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def host_slowdown(reference_s, reference_setup_s) -> float | None:
    """How many times slower than nominal the host ran.

    The geometric mean of the two references over their nominal times: the
    in-process reference tracks compute speed, the fresh interpreter also
    tracks what start-up and imports depend on. Neither alone followed the
    step and set-up times of both workloads as well as their mean.
    """
    if not reference_s or not reference_setup_s:
        return None
    return math.sqrt(reference_s / probes.REFERENCE_NOMINAL_S
                     * reference_setup_s / probes.REFERENCE_SETUP_NOMINAL_S)


def _scaled(value, slowdown):
    """value at the nominal host speed."""
    return None if value is None or slowdown is None else value / slowdown


def end_to_end(workload, done: Units) -> Metrics:
    runs = _flat(done.units)
    ok = [r for r in runs if not r.failed]
    # a full step is an update followed by a sampling pass; the first step
    # of a run has no update before it and is left out
    durations = [1e3 * (b - a) for r in ok for a, b in zip(r.step_walls, r.step_walls[1:])]
    # medians, not single calls: a reference call, like a step, can be
    # slowed several-fold by a stall of the host
    reference_s = _median(done.reference_s)
    setups = [s for s in done.setups if "error" not in s]
    setup_s = _median([s["setup_s"] for s in setups])
    reference_setup_s = _median([s["reference_s"] for s in setups])
    slowdown = host_slowdown(reference_s, reference_setup_s)
    m = Metrics()
    for k in (50, 90):
        m.put(f"step_ms.p{k}", _scaled(_percentile(durations, k), slowdown), "ms", len(durations))
    m.put("setup_s", _scaled(setup_s, slowdown), "s", len(setups))
    m.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB", 1)
    m.put("steps_per_s", _steps_per_s(runs), "1/s", sum(r.n_steps for r in ok))
    for k in (50, 90):
        m.put(f"wall.step_ms.p{k}", _percentile(durations, k), "ms", len(durations))
    m.put("wall.setup_s", setup_s, "s", len(setups))
    m.put("host.reference_ms", 1e3 * reference_s, "ms", len(done.reference_s))
    m.put("host.reference_setup_s", reference_setup_s, "s", len(setups))
    m.put("host.slowdown", slowdown, "ratio", len(done.reference_s) + len(setups))
    if workload.targeted:
        # the first pass: every seed of the list once
        first = _flat(done.units[:workload.n_seeds])
        converged = [r for r in first if r.converged and not r.failed]
        m.put("time_to_target_s", _median([r.time_to_target_s for r in converged]), "s",
              len(converged))
        m.put("steps_to_target", _median([r.n_steps for r in converged]), "count", len(converged))
        m.put("percent_converged", 100.0 * len(converged) / len(first), "%", len(first))
    m.put("failed_pct", 100.0 * sum(r.failed for r in runs) / len(runs), "%", len(runs))
    return m


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when b is 0 (a traced name that was absent or never ran)."""
    return a / b if b else 0.0


def per_layer(tracer, runs, untraced_runs, setups, kernel, grad_memory) -> Metrics:
    stats = tracer.stats
    steps = sum(r.n_steps for r in runs if not r.failed)
    m = Metrics()

    def total(*names):
        return sum(stats[n].total_s for n in names)

    def self_s(*names):
        return sum(stats[n].self_s for n in names)

    def calls(*names):
        return sum(stats[n].calls for n in names)

    def count(name, key):
        return stats[name].counts.get(key, 0)

    def per_step(name, seconds, unit="ms"):
        m.put(name, _ratio(1e3 * seconds, steps), unit, steps)

    # sampler: propose plus accept, the self time of run_chains
    proposed = count("sampler.run_chains", "proposed")
    per_step("sampler.self_ms_per_step", self_s("sampler.run_chains", "sampler.propose_swap"))
    m.put("sampler.propose_us", _ratio(1e6 * self_s("sampler.propose_swap"),
                                       calls("sampler.propose_swap")),
          "us", calls("sampler.propose_swap"))
    m.put("sampler.accept_us", _ratio(1e6 * self_s("sampler.run_chains"), proposed), "us", proposed)
    m.put("sampler.proposals_per_step", _ratio(proposed, steps), "count", steps)
    m.put("sampler.warmup_share", 1 - _ratio(count("sampler.run_chains", "recorded"), proposed),
          "ratio", proposed)
    m.put("sampler.acceptance", _ratio(count("sampler.run_chains", "accepted"), proposed),
          "ratio", proposed)
    m.put("sampler.init_chains_ms", _ratio(1e3 * total("sampler.init_chains"),
                                           calls("sampler.init_chains")),
          "ms", calls("sampler.init_chains"))

    # nqs: evaluate, and the log-derivative half of estimate
    log_psi = ("nqs.cnn_log_psi", "nqs.rbm_log_psi")
    configs = count("nqs.cnn_log_psi", "configs") + count("nqs.rbm_log_psi", "configs")
    per_step("nqs.log_psi_ms_per_step", total(*log_psi))
    m.put("nqs.log_psi_calls_per_step", _ratio(calls(*log_psi), steps), "count", steps)
    m.put("nqs.log_psi_batch_mean", _ratio(configs, calls(*log_psi)), "count", calls(*log_psi))
    m.put("nqs.log_psi_us_per_config", _ratio(1e6 * total(*log_psi), configs), "us", configs)
    per_step("nqs.log_derivatives_ms_per_step",
             total("nqs.cnn_log_derivatives", "nqs.rbm_log_derivatives"))
    for name in probes.KERNEL_METRICS:
        m.put(name, kernel.get(name, 0.0), "MB" if name.startswith("vmc.") else "us", 1)

    # vmc: estimate and update
    per_step("vmc.local_energies_ms_per_step", total("vmc.local_energies"))
    per_step("vmc.estimate_gradient_ms_per_step", total("vmc.estimate_gradient"))
    per_step("vmc.adam_ms_per_step", total("vmc.adam_update"))
    per_step("vmc.set_flat_ms_per_step", total("vmc.set_flat"))
    o_bytes = max(stats[n].peaks.get("o_matrix_bytes", 0)
                  for n in ("nqs.cnn_log_derivatives", "nqs.rbm_log_derivatives"))
    m.put("vmc.o_matrix_mb", o_bytes / 1e6, "MB", 1)
    m.put("vmc.grad_peak_mb", grad_memory.peak_bytes / 1e6, "MB", grad_memory.windows)

    # setup
    m.put("vmc.build_ansatz_ms", _ratio(1e3 * total("vmc.build_ansatz"), calls("vmc.build_ansatz")),
          "ms", calls("vmc.build_ansatz"))
    import_s = [s["import_s"] for s in setups if "error" not in s]
    m.put("import_ms", 1e3 * (_median(import_s) or 0.0), "ms", len(import_s))

    # harness and cli
    reasons = ["error" if r.error else r.reason if r.reason in REASONS else "other" for r in runs]
    for reason in REASONS:
        m.put(f"harness.trials_by_reason.{reason}", reasons.count(reason), "count", len(runs))
    m.put("cli.jsonl_bytes_per_step", _ratio(sum(r.jsonl_bytes for r in runs), steps), "B", steps)

    # self time per module layer and per step layer; each set sums to trace.step_ms
    traced_s = tracer.total_s()
    for key, groups in (("layer", LAYERS), ("phase", PHASES)):
        by_group = tracer.by(key)
        for group in groups:
            per_step(f"{key}.{group}.ms_per_step", by_group.get(group, 0.0))
            m.put(f"{key}.{group}.share", _ratio(by_group.get(group, 0.0), traced_s),
                  "ratio", steps)
    per_step("trace.step_ms", traced_s)
    # the same units, each run untraced and then traced
    overhead = 1 - _ratio(_steps_per_s(runs) or 0.0, _steps_per_s(untraced_runs))
    m.put("trace.overhead_pct", 100.0 * overhead, "%", len(runs))
    return m


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def bench_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name]
    base = seed * SEED_STRIDE
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": probes.machine()}
    absent = []
    try:
        kernel = probes.kernel_probe(seed) if trace else {}
    except (AttributeError, KeyError, TypeError) as exc:  # a name the probe uses is gone
        kernel = {}
        absent.append(f"kernel probe ({type(exc).__name__}: {exc})")
    absent += [name for name in probes.KERNEL_METRICS if trace and name not in kernel]

    # warm-up, repeating the first seed; in a traced invocation it also
    # measures the gradient's peak memory
    grad_memory = GradMemory()
    with grad_memory if trace else contextlib.nullcontext():
        try:
            warmup = workload.unit(base, scratch)[0]
        except Exception as exc:
            warmup = Run(base, error=f"{type(exc).__name__}: {exc}")
    probes.reference()

    tracer = Tracer() if trace else None
    setup_seeds = itertools.count(base)
    done = run_units(
        workload, [base + k for k in range(workload.n_seeds)], seconds, scratch,
        lambda: probes.setup_once(name, next(setup_seeds), scratch), SETUP_REPEATS, tracer)
    report["determinism"] = determinism(warmup, done.units, workload.n_seeds)
    runs = _flat(done.units)
    setups = done.setups
    if trace:
        traced_runs = _flat(done.traced)
        for untraced, traced in zip(runs, traced_runs):
            if untraced.fingerprint() != traced.fingerprint() and not traced.failed:
                traced.problems.append("tracing changed the run's trajectory")
        metrics = per_layer(tracer, traced_runs, runs, setups, kernel, grad_memory)
        report["absent"] = (absent + tracer.absent
                            + ([] if grad_memory.present else ["vmc.grad_peak_mb"]))
        report["spans"] = {n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                           for n, s in tracer.stats.items()}
        runs += traced_runs
    else:
        metrics = end_to_end(workload, done)
    report["machine"]["load_1m_end"] = os.getloadavg()[0]
    report["metrics"] = metrics
    report["setups"] = setups
    # operations: every run, every set-up probe and every pair of runs of one seed
    det = report["determinism"]
    report["attempted"] = len(runs) + len(setups) + det["pairs"]
    report["failures"] = [
        {"seed": r.seed, "error": r.error, "problems": r.problems} for r in runs if r.failed
    ] + [{"seed": s["seed"], "error": s["error"], "problems": []} for s in setups if "error" in s]
    report["failed"] = len(report["failures"]) + len(det["differing_seeds"])
    return report


def print_report(report: dict) -> None:
    head = (f"== {report['workload']}  seed {report['seed']}  {report['seconds']} s  "
            f"trace {report['trace']}")
    print(head)
    mach = report["machine"]
    print(f"   machine: nproc {mach['nproc']}, python {mach['python']}, numpy {mach['numpy']}, "
          f"{mach['blas']} x{mach['blas_threads']} threads, "
          f"load {mach['load_1m_start']:.2f} -> {mach['load_1m_end']:.2f}")
    for name, m in report["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:<40} {value:>12} {m['unit']:<6} n={m['n']}")
    det = report["determinism"]
    print(f"   determinism: {det['pairs']} repeated runs, "
          + (f"DIFFERENT for seeds {det['differing_seeds']}" if det["differing_seeds"]
             else "all identical to their seed's first run"))
    for name in report.get("absent", []):
        print(f"   absent: {name}")
    for failure in report["failures"]:
        print(f"   FAILED seed {failure['seed']}: {failure['error'] or failure['problems']}")
    print(f"   {report['attempted']} checked operations (runs, set-up probes, repeated runs), "
          f"{report['failed']} failed", flush=True)


def contract_line(report: dict, wanted: list[dict]) -> dict:
    """The last output line: the metrics BENCHMARK.json lists for this mode.

    A listed metric without a value (nothing succeeded to measure it) is
    reported as 0 and counted as a failure.
    """
    metrics, missing = {}, 0
    for spec in wanted:
        m = report["metrics"][spec["name"]]
        missing += m["value"] is None
        metrics[spec["name"]] = {"value": 0.0 if m["value"] is None else m["value"],
                               "unit": m["unit"]}
    failed = report["failed"] + missing
    return {"correct": failed == 0, "attempted": report["attempted"] + missing, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    combined, worst = {}, 0
    with tempfile.TemporaryDirectory(dir=probes.ROOT, prefix=".bench-") as tmp:
        for name in WORKLOADS:
            for trace in (0, 1):
                out = Path(tmp) / f"{name}-{trace}.json"
                code = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)],
                    cwd=probes.ROOT, timeout=900,
                ).returncode
                worst = max(worst, code)
                if out.exists():
                    combined[f"{name}/trace{trace}"] = json.loads(out.read_text())
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in combined.values())
    failed = sum(r["failed"] for r in combined.values())
    metrics = {f"{key}/{name}": {"value": m["value"], "unit": m["unit"]}
               for key, r in combined.items() for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and worst == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not probes.use_checkout():
        print(f"error: no qtsp sources under {probes.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    spec = json.loads((probes.ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)

    with tempfile.TemporaryDirectory(dir=probes.ROOT, prefix=".bench-") as tmp:
        report = bench_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                Path(tmp))
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, default=str) + "\n")
    line = contract_line(report, spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
