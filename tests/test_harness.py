import csv
import io
import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from helpers import OVERFLOWING_DISTANCES, random_symmetric_instance, write_instance_file
from qtsp.cli import cli
from qtsp.errors import InvalidTourError
from qtsp.harness import (
    SweepSummary,
    TrialResult,
    default_search_space,
    default_target,
    load_summary,
    midpoint_hyperparams,
    midpoint_vmc_config,
    report_convergence,
    sample_trial_hyperparams,
    summary_json,
    sweep,
)
from qtsp.instance import (
    Instance,
    brute_force_optimum,
    instance_json,
    linear_instance,
    planted_optimum,
)
from qtsp.vmc import VmcConfig, train


class TestDefaultTarget:
    def test_linear_instance_uses_planted_value(self):
        assert default_target(linear_instance(9)) == planted_optimum(9)

    def test_small_instance_uses_brute_force(self):
        inst = random_symmetric_instance(6, 0)
        assert default_target(inst) == brute_force_optimum(inst)[1]

    def test_large_opaque_instance_has_no_target(self):
        inst = random_symmetric_instance(11, 0)
        assert default_target(inst) is None

    def test_line_coordinates_with_other_distances_use_brute_force(self, tmp_path):
        """Coordinates 1..N alone do not make the planted line: with every
        distance 10 the optimum is 60, not the line's 2(N - 1) = 10, and
        `--target auto` must aim at 60 or no run ever reaches it."""
        inst = Instance(dist=10.0 * (1 - np.eye(6)), coords=np.arange(1.0, 7.0))
        assert default_target(inst) == brute_force_optimum(inst)[1] == 60.0
        path = tmp_path / "flat.json"
        path.write_text(instance_json(inst))
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--instance", str(path), "--target", "auto",
                    "--steps", "5", "--seed", "1", "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["target_energy"] == 60.0
        assert lines[-1]["reason"] == "target-reached"

    @pytest.mark.parametrize("coords", [None, np.arange(12.0)], ids=["no-coords", "from-zero"])
    def test_line_distances_alone_use_the_planted_value(self, tmp_path, coords):
        """Distances |i - j| fix the optimum at 2(N - 1) whatever the
        coordinates; at N=12 brute force is out of reach, so `--target auto`
        has only the planted value to aim at."""
        inst = Instance(dist=linear_instance(12).dist, coords=coords)
        assert default_target(inst) == planted_optimum(12) == 22.0
        path = tmp_path / "line.json"
        path.write_text(instance_json(inst))
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--instance", str(path), "--target", "auto",
                    "--steps", "2", "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0])["target_energy"] == 22.0


class TestMidpointDefaults:
    def test_qudit_midpoints(self):
        hyper = midpoint_hyperparams(12, "qudit")
        assert hyper["n_chains"] == 8
        assert hyper["n_swaps"] == 2
        assert hyper["max_swap_len"] == 6
        assert hyper["sample_size"] == 512
        assert hyper["learning_rate"] == pytest.approx(1e-2)
        assert hyper["n_channels"] == 4
        assert hyper["kernel_size"] == 4

    def test_qubit_midpoints(self):
        hyper = midpoint_hyperparams(6, "qubit")
        assert hyper["n_hidden"] == 12

    def test_search_space_kernel_respects_city_count(self):
        space = default_search_space(3, "qudit")
        assert max(space["kernel_size"]) <= 3


class TestRunExperiment:
    """One run as `qtsp solve` makes it: the midpoint defaults into train."""

    def test_converges_on_small_instance(self):
        cfg = midpoint_vmc_config(4, "qudit", seed=3, max_steps=500)
        record = train(linear_instance(4), cfg, target_energy=planted_optimum(4))
        assert record.converged
        assert record.best_energy == 6.0

    def test_deterministic(self):
        inst = linear_instance(6)
        cfg = midpoint_vmc_config(6, "qudit", seed=5, max_steps=200)
        a, b = (train(inst, cfg, target_energy=planted_optimum(6)) for _ in range(2))
        assert a.converged == b.converged
        assert np.array_equal(a.best_tour, b.best_tour)

    def test_learning_is_necessary_at_sixteen_cities(self):
        """Negative control: with the learning rate zeroed the sampler alone
        does not find the planted optimum in a 200-step budget, while the
        same budget with learning succeeds."""
        inst = linear_instance(16)
        base = midpoint_vmc_config(16, "qudit", seed=1, max_steps=200)
        frozen = train(inst, replace(base, learning_rate=0.0), target_energy=planted_optimum(16))
        assert not frozen.converged
        learned = train(inst, base, target_energy=planted_optimum(16))
        assert learned.converged


class TestSweep:
    def test_trial_draws_are_deterministic(self):
        space = default_search_space(8, "qudit")
        a = [sample_trial_hyperparams(space, 7, t) for t in range(5)]
        b = [sample_trial_hyperparams(space, 7, t) for t in range(5)]
        assert a == b

    def test_trial_draws_cover_space(self):
        space = default_search_space(8, "qudit")
        picked = {sample_trial_hyperparams(space, 0, t)[0]["n_chains"] for t in range(30)}
        assert picked == {4, 8, 16}

    def test_single_point_space(self):
        space = {
            "n_chains": [4], "n_swaps": [1], "max_swap_len": [4],
            "sample_size": [256], "learning_rate": ("log-uniform", 1e-2, 1e-2),
            "n_channels": [4], "kernel_size": [2],
        }
        summary = sweep(linear_instance(4), "qudit", space, n_trials=3, seed=0, max_steps=50)
        for trial in summary.trials:
            assert trial.hyperparams == summary.trials[0].hyperparams

    def test_percentage_is_converged_over_total(self):
        summary = sweep(linear_instance(5), "qudit", None, n_trials=5, seed=1, max_steps=200)
        manual = 100.0 * sum(t.converged for t in summary.trials) / 5
        assert summary.percent_converged == manual
        assert summary.n_cities == 5 and summary.representation == "qudit"

    def test_summary_round_trip(self, tmp_path):
        summary = sweep(linear_instance(4), "qudit", None, n_trials=2, seed=0, max_steps=40)
        path = tmp_path / "summary.json"
        path.write_text(summary_json(summary))
        loaded = load_summary(path)
        assert loaded == summary

    def test_a_failing_trial_is_recorded_and_the_sweep_goes_on(self, tmp_path, monkeypatch):
        """A non-finite gradient used to abort the sweep and lose every
        finished trial; now each failed trial is an outcome, with the step
        count and best energy of train's error footer, in a strict JSON
        summary that loads back."""
        from qtsp import nqs

        monkeypatch.setattr(nqs, "cnn_energy_gradient_unchecked",
                            lambda params, configs, energies: np.full(params.n_real_params, np.nan))
        summary = sweep(linear_instance(12), "qudit", None, 3, 0, max_steps=20)
        assert [t.reason for t in summary.trials] == ["error"] * 3
        for trial in summary.trials:
            assert not trial.converged and trial.time_to_target_s is None
            assert trial.error == "ValueError: non-finite gradient at Adam step 1"
            assert trial.n_steps == 1
            assert trial.best_energy >= planted_optimum(12)
        assert summary.percent_converged == 0.0
        assert summary.median_time_to_target_s is None

        path = tmp_path / "summary.json"
        path.write_text(summary_json(summary))
        assert load_summary(path) == summary  # strict JSON: it rejects NaN and Infinity

    def test_a_trial_with_no_finished_step_has_no_best_energy(self, monkeypatch):
        from qtsp import vmc

        def leak(*args):
            raise InvalidTourError("invalid configuration reached the energy estimator")

        monkeypatch.setattr(vmc, "local_energies", leak)
        trial, = sweep(linear_instance(5), "qudit", None, 1, 0, max_steps=5).trials
        assert (trial.reason, trial.n_steps, trial.best_energy, trial.converged) == (
            "error", 0, None, False)
        assert trial.error == "InvalidTourError: invalid configuration reached the energy estimator"

    def test_a_trial_with_an_invalid_configuration_is_recorded(self):
        """A configuration error used to raise out of the sweep and lose
        every finished trial; now it is one more failed trial."""
        space = {**default_search_space(5, "qudit"), "n_chains": [3], "sample_size": [256]}
        summary = sweep(linear_instance(5), "qudit", space, 2, 0, max_steps=5)
        for trial in summary.trials:
            assert (trial.reason, trial.n_steps, trial.best_energy, trial.converged) == (
                "error", 0, None, False)
            assert trial.error == "ValueError: sample_size must be a positive multiple of n_chains"

    def test_default_space_draws_are_pinned(self):
        assert sample_trial_hyperparams(default_search_space(8, "qudit"), 7, 0) == (
            {"kernel_size": 6, "learning_rate": 0.062291329744741435, "max_swap_len": 4,
             "n_chains": 8, "n_channels": 8, "n_swaps": 4, "sample_size": 256}, 119253154)

    def test_a_learning_rate_list_is_a_set_of_choices(self):
        """The entry, not the key, decides how a value is drawn: a list is
        drawn from its choices, whatever its key."""
        space = {"learning_rate": [1e-4, 1e-3, 1e-1]}
        drawn = [sample_trial_hyperparams(space, 0, t)[0]["learning_rate"] for t in range(200)]
        assert set(drawn) == {1e-4, 1e-3, 1e-1}

    def test_a_single_learning_rate_choice_runs(self):
        space = {**default_search_space(4, "qudit"), "learning_rate": [0.01]}
        summary = sweep(linear_instance(4), "qudit", space, 2, 0, max_steps=5)
        assert [t.hyperparams["learning_rate"] for t in summary.trials] == [0.01, 0.01]
        assert [t.error for t in summary.trials] == [None, None]

    @pytest.mark.parametrize("key, entry", [
        ("learning_rate", ("uniform", 1e-3, 1e-1)), ("learning_rate", 0.01),
        ("learning_rate", ("log-uniform", 1e-1, 1e-3)), ("learning_rate", ("log-uniform", 0, 1)),
        ("n_chains", 4), ("n_chains", []), ("n_chains", ("log-uniform", 4)),
    ])
    def test_any_other_entry_is_refused_naming_its_key(self, key, entry, monkeypatch):
        monkeypatch.setattr("qtsp.harness.train", lambda *args, **kwargs: pytest.fail("trained"))
        space = {**default_search_space(4, "qudit"), key: entry}
        with pytest.raises(ValueError, match=f"search space entry '{key}'"):
            sweep(linear_instance(4), "qudit", space, 2, 0, max_steps=5)

    @pytest.mark.parametrize("budget", [{"prune_wall_clock_s": -1.0}, {"max_steps": 0},
                                        {"prune_no_improve_steps": 0}])
    def test_a_bad_budget_is_refused_before_any_trial(self, budget, monkeypatch):
        """Budgets are the same for every trial, so a bad one refuses the
        sweep rather than failing each trial."""
        monkeypatch.setattr("qtsp.harness.train", lambda *args, **kwargs: pytest.fail("trained"))
        with pytest.raises(ValueError, match=next(iter(budget))):
            sweep(linear_instance(5), "qudit", None, 2, 0, **budget)

    def test_summary_without_error_field_still_loads(self, tmp_path):
        """Summaries written before failed trials were recorded have no
        error key; they load with error None."""
        summary = fake_summary(4, "qudit", [True], [0.5])
        payload = json.loads(summary_json(summary))
        del payload["trials"][0]["error"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert load_summary(path) == summary

    def test_summary_json_rejects_non_finite_values(self):
        summary = replace(fake_summary(4, "qudit", [False], [None]), percent_converged=math.nan)
        with pytest.raises(ValueError):
            summary_json(summary)


def fake_summary(n_cities, representation, converged_flags, times):
    trials = [
        TrialResult(trial=i, hyperparams={}, seed=i, best_energy=0.0, converged=flag,
                    time_to_target_s=t, reason="target-reached" if flag else "max-steps",
                    n_steps=10, wall_s=1.0)
        for i, (flag, t) in enumerate(zip(converged_flags, times))
    ]
    hits = [t for f, t in zip(converged_flags, times) if f and t is not None]
    import statistics
    return SweepSummary(
        n_cities=n_cities, representation=representation, n_trials=len(trials),
        trials=trials,
        percent_converged=100.0 * sum(converged_flags) / len(trials),
        median_time_to_target_s=statistics.median(hits) if hits else None,
    )


class TestReport:
    def test_percentage_row(self):
        summary = fake_summary(6, "qudit", [True] * 8 + [False] * 2,
                               [1.0] * 8 + [None] * 2)
        rows = list(csv.reader(io.StringIO(report_convergence([summary]))))
        assert rows[0] == ["n_cities", "representation", "n_trials",
                           "percent_converged", "median_time_s"]
        assert rows[1][:4] == ["6", "qudit", "10", "80.0"]

    def test_empty_input_gives_header_only(self):
        text = report_convergence([])
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1

    def test_two_representations_two_rows(self):
        a = fake_summary(10, "qudit", [True], [0.5])
        b = fake_summary(10, "qubit", [True], [2.0])
        rows = list(csv.reader(io.StringIO(report_convergence([a, b]))))
        assert len(rows) == 3
        assert {r[1] for r in rows[1:]} == {"qubit", "qudit"}

    def test_unconverged_sweep_has_blank_median(self, tmp_path):
        summary = fake_summary(4, "qudit", [False, False], [None, None])
        path = tmp_path / "s.json"
        path.write_text(summary_json(summary))
        assert load_summary(path) == summary  # null times are valid
        rows = list(csv.reader(io.StringIO(report_convergence([summary]))))
        assert rows[1][4] == ""


def test_training_never_loads_the_hamiltonians():
    """The library and the CLI import, and train both representations,
    without qtsp.encoding: only `qtsp diag` and the tests use it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qtsp

    script = (
        "import sys, qtsp, qtsp.cli\n"
        "for rep in ('qubit', 'qudit'):\n"
        "    cfg = qtsp.harness.midpoint_vmc_config(6, rep, seed=1, max_steps=3)\n"
        "    assert qtsp.train(qtsp.linear_instance(6), cfg).n_steps == 3\n"
        "print('qtsp.encoding' in sys.modules)\n"
    )
    src = str(Path(qtsp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestCli:
    def test_gen_then_exact(self, tmp_path, capsys):
        path = tmp_path / "lin4.json"
        assert cli(["gen", "--cities", "4", "--out", str(path)]) == 0
        assert cli(["exact", "--instance", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tour: 1 2 3 4" in out
        assert "length: 6.0" in out

    def test_gen_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "lin3.json"
        assert cli(["gen", "--cities", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli(["gen", "--cities", "3"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == path.read_bytes()
        assert json.loads(out)["n_cities"] == 3

    def test_solve_writes_streaming_jsonl(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = cli(["solve", "--rep", "qudit", "--net", "cnn", "--cities", "5",
                    "--seed", "7", "--target", "auto", "--steps", "2000",
                    "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "reason: target-reached" in stdout
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[-1]["type"] == "footer"
        assert lines[-1]["best_energy"] == 8.0

    def test_solve_without_target_has_no_target(self, tmp_path):
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "6", "--steps", "3",
                    "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["target_energy"] is None
        assert lines[-1]["reason"] == "max-steps"
        assert lines[-1]["n_steps"] == 3

    def test_non_finite_gradient_still_ends_the_jsonl_with_a_footer(self, tmp_path, capsys,
                                                                   monkeypatch):
        """adam_update rejects the gradient; the run still gets its footer,
        and solve still stops with the same message and exit code."""
        from qtsp import nqs

        monkeypatch.setattr(nqs, "cnn_energy_gradient_unchecked",
                            lambda params, configs, energies: np.full(params.n_real_params, np.nan))
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "6", "--steps", "5", "--seed", "1",
                    "--out", str(out)]) == 2
        assert "error: non-finite gradient at Adam step 1" in capsys.readouterr().err
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["header", "step", "footer"]
        footer = lines[-1]
        assert footer["reason"] == "error"
        assert footer["error"] == "ValueError: non-finite gradient at Adam step 1"
        assert footer["n_steps"] == 1
        assert footer["best_energy"] == lines[1]["best_energy"]
        assert footer["best_tour"] == lines[1]["best_tour"]
        assert footer["time_to_target_s"] is None

    # step 2 samples on step 1's finite but ~1e300 parameters, which overflow in the
    # network; a warning from Adam's own arithmetic still fails the test
    @pytest.mark.filterwarnings("ignore::RuntimeWarning:qtsp.nqs")
    def test_overflowing_update_ends_the_run_at_its_step(self, tmp_path, capsys):
        """At lr 1e300 the second update overflows to NaN parameters. The run
        stops there, at step 2, instead of sampling on them at step 3."""
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "8", "--steps", "60", "--seed", "1",
                    "--lr", "1e300", "--out", str(out)]) == 2
        assert "error: non-finite update at Adam step 2" in capsys.readouterr().err
        footer = json.loads(out.read_text().splitlines()[-1])
        assert (footer["reason"], footer["n_steps"]) == ("error", 2)
        assert footer["error"] == "ValueError: non-finite update at Adam step 2"

    def test_a_diverging_network_fails_on_its_update_not_on_a_warning(self, capsys):
        """At lr 1e300 step 2's network overflows to inf or NaN log psi. The
        sampler rejects those proposals without a RuntimeWarning, which here
        would be an error, so the run still stops on Adam's own check."""
        assert cli(["solve", "--rep", "qudit", "--cities", "8", "--steps", "6", "--seed", "1",
                    "--lr", "1e300"]) == 2
        assert "error: non-finite update at Adam step 2" in capsys.readouterr().err

    def test_error_before_any_step_gives_a_footer_with_no_best(self, tmp_path, monkeypatch):
        from qtsp import vmc

        def leak(*args):
            raise InvalidTourError("invalid configuration reached the energy estimator")

        monkeypatch.setattr(vmc, "local_energies", leak)
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "6", "--steps", "5",
                    "--out", str(out)]) == 2
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["type"] for line in lines] == ["header", "footer"]
        assert {k: lines[-1][k] for k in ("reason", "n_steps", "best_energy", "best_tour")} == {
            "reason": "error", "n_steps": 0, "best_energy": None, "best_tour": None}

    def test_solve_is_train_with_the_cli_defaults(self, tmp_path):
        """Nothing between the flags and train decides anything a second
        time: same lines as train on the midpoint config, clocks aside."""
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "8", "--seed", "3",
                    "--target", "auto", "--steps", "200", "--out", str(out)]) == 0
        lines = []
        cfg = midpoint_vmc_config(8, "qudit", seed=3, max_steps=200)
        train(linear_instance(8), cfg, planted_optimum(8), sink=lines.append)

        def without_clocks(line):
            return {k: v for k, v in line.items()
                    if k not in ("wall_clock_s", "total_time_s", "time_to_target_s")}

        from_cli = [without_clocks(json.loads(line)) for line in out.read_text().splitlines()]
        assert from_cli == [without_clocks(json.loads(json.dumps(line))) for line in lines]

    @pytest.mark.parametrize("rep,cities,steps,seed", [("qudit", 10, 30, 3), ("qubit", 6, 15, 2)])
    def test_same_seed_gives_the_same_run_stream(self, tmp_path, rep, cities, steps, seed):
        """Every line of two same-seed runs, header and footer included, is
        equal once the clock fields are dropped."""
        clocks = ("wall_clock_s", "total_time_s", "time_to_target_s")
        streams = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.jsonl"
            assert cli(["solve", "--rep", rep, "--cities", str(cities), "--steps", str(steps),
                        "--seed", str(seed), "--out", str(out)]) == 0
            lines = [json.loads(line) for line in out.read_text().splitlines()]
            streams.append([{k: v for k, v in line.items() if k not in clocks} for line in lines])
        assert len(streams[0]) == steps + 2
        assert streams[0] == streams[1]

    def test_solve_flag_overrides_land_in_config(self, tmp_path):
        """Every setting flag reaches the config field it names: the qudit
        run takes the convolutional network's flags, the qubit run --hidden."""
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "5", "--steps", "5",
                    "--chains", "4", "--swaps", "3", "--max-swap-len", "2",
                    "--sample-size", "64", "--lr", "0.005",
                    "--channels", "2", "--kernel", "3", "--time-limit", "50",
                    "--no-improve-steps", "9", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text().splitlines()[0])["config"]
        given = {"n_chains": 4, "n_swaps": 3, "max_swap_len": 2, "sample_size": 64}
        assert {k: cfg["sampler"][k] for k in given} == given
        given = {"n_hidden": 0, "n_channels": 2, "kernel_size": 3, "learning_rate": 0.005,
                 "max_steps": 5, "prune_no_improve_steps": 9, "prune_wall_clock_s": 50.0}
        assert {k: cfg[k] for k in given} == given

        assert cli(["solve", "--rep", "qubit", "--cities", "4", "--steps", "2",
                    "--hidden", "7", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text().splitlines()[0])["config"]
        assert {k: cfg[k] for k in ("n_hidden", "n_channels", "kernel_size")} == {
            "n_hidden": 7, "n_channels": 0, "kernel_size": 0}

    @pytest.mark.parametrize("rep,flags", [
        ("qudit", ["--hidden", "7"]),
        ("qubit", ["--channels", "2", "--kernel", "3"]),
        ("qubit", ["--kernel", "3"]),
    ], ids=["qudit-hidden", "qubit-channels-kernel", "qubit-kernel"])
    def test_other_network_flag_is_rejected_before_any_output(self, tmp_path, capsys, rep, flags):
        out = tmp_path / "r.jsonl"
        assert cli(["solve", "--rep", rep, "--cities", "4", "--steps", "2", *flags,
                    "--out", str(out)]) == 2
        assert "belongs to the" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["solve", "--rep", "qudit", "--cities", "4", "--steps", "2"],
        ["sweep", "--rep", "qudit", "--cities", "4", "--trials", "1", "--steps", "2"],
    ], ids=["solve", "sweep"])
    @pytest.mark.parametrize("env,flag,source", [
        ("abc", [], "QTSP_SEED"), ("-3", [], "QTSP_SEED"), ("abc", ["--seed", "-1"], "--seed"),
    ], ids=["env-malformed", "env-negative", "flag-negative"])
    def test_bad_seed_names_its_source(self, tmp_path, capsys, monkeypatch, command, env, flag,
                                       source):
        monkeypatch.setenv("QTSP_SEED", env)
        out = tmp_path / "r.json"
        assert cli([*command, *flag, "--out", str(out)]) == 2
        assert f"{source} must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_without_budget_flags_keeps_the_config_defaults(self, tmp_path):
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "4", "--target", "auto",
                    "--out", str(out)]) == 0
        cfg = json.loads(out.read_text().splitlines()[0])["config"]
        for f in fields(VmcConfig):
            if f.name in ("max_steps", "prune_no_improve_steps", "prune_wall_clock_s"):
                assert cfg[f.name] == f.default and type(cfg[f.name]) is type(f.default)

    def test_sweep_budget_flags_reach_the_sweep(self, monkeypatch):
        calls = []
        summary = fake_summary(4, "qudit", [True], [0.5])
        monkeypatch.setattr("qtsp.harness.sweep",
                            lambda *args, **kwargs: calls.append(kwargs) or summary)
        assert cli(["sweep", "--cities", "4", "--rep", "qudit", "--trials", "1",
                    "--steps", "7", "--time-limit", "5", "--out", "-"]) == 0
        assert calls == [{"max_steps": 7, "prune_wall_clock_s": 5.0}]
        assert cli(["sweep", "--cities", "4", "--rep", "qudit", "--trials", "1"]) == 0
        assert calls[1] == {"max_steps": 400}

    def test_single_sample_is_rejected_before_any_output(self, tmp_path):
        # the covariance gradient needs two samples; the run must not start
        out = tmp_path / "r.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "5", "--chains", "1",
                    "--sample-size", "1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--time-limit", "nan"), ("--time-limit", "-1"),
        ("--no-improve-steps", "0"), ("--chains", "3"), ("--channels", "0"),
        ("--kernel", "0"), ("--kernel", "99"), ("--seed", "-1"), ("--time-limit", "inf"),
    ])
    def test_meaningless_budget_is_rejected_before_any_output(self, tmp_path, flag, value):
        out = tmp_path / "r.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "5", flag, value,
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_solve_qubit_rbm(self, capsys):
        assert cli(["solve", "--rep", "qubit", "--net", "rbm", "--cities", "4",
                    "--seed", "1", "--target", "auto", "--steps", "3000"]) == 0
        assert "converged: true" in capsys.readouterr().out

    def test_diag_matches_hand_matrix(self, capsys):
        assert cli(["diag", "--cities", "2", "--variant", "eq2", "--p", "100"]) == 0
        out = capsys.readouterr().out
        reported = float(out.split("ground_energy: ")[1].splitlines()[0])
        hand = np.full((4, 4), 100.0)
        hand[1, 1] = hand[2, 2] = 2.0
        expected = np.linalg.eigvalsh(hand)[0]
        assert reported == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("penalty", ["nan", "inf", "-5"])
    def test_diag_rejects_meaningless_penalty(self, tmp_path, capsys, penalty):
        path = tmp_path / "h.csv"
        assert cli(["diag", "--cities", "2", f"--p={penalty}", "--csv", str(path)]) == 2
        assert "penalty p must be finite and >= 0" in capsys.readouterr().err
        assert not path.exists()

    def test_diag_csv_export(self, tmp_path):
        path = tmp_path / "h.csv"
        assert cli(["diag", "--cities", "2", "--variant", "eq4", "--csv", str(path)]) == 0
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert len(rows) == 5  # header + 4 basis rows

    def test_sweep_to_stdout(self, tmp_path, capsys, monkeypatch):
        """`sweep --out -` prints exactly the bytes that `--out FILE` writes;
        a fixed summary stands in for the trials, whose clocks differ."""
        summary = fake_summary(4, "qudit", [True, False], [0.5, None])
        monkeypatch.setattr("qtsp.harness.sweep", lambda *args, **kwargs: summary)
        path = tmp_path / "s.json"
        args = ["sweep", "--cities", "4", "--rep", "qudit", "--trials", "2"]
        assert cli([*args, "--out", str(path)]) == 0
        assert capsys.readouterr().out == "converged: 50.0% of 2 trials\n"
        assert cli(args) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()
        assert load_summary(path) == summary

    @pytest.mark.parametrize("failing, code", [(3, 2), (1, 0)])
    def test_sweep_reports_failed_trials(self, tmp_path, capsys, monkeypatch, failing, code):
        """Failed trials are named on stderr with the first message; a sweep
        in which every trial failed exits 2. The summary is written either
        way."""
        from qtsp import nqs

        real = nqs.cnn_energy_gradient_unchecked
        calls = []

        def gradient(params, configs, energies):  # a failed trial makes one call
            calls.append(None)
            if len(calls) <= failing:
                return np.full(params.n_real_params, np.nan)
            return real(params, configs, energies)

        monkeypatch.setattr(nqs, "cnn_energy_gradient_unchecked", gradient)
        path = tmp_path / "s.json"
        assert cli(["sweep", "--cities", "12", "--rep", "qudit", "--trials", "3", "--seed", "0",
                    "--steps", "5", "--out", str(path)]) == code
        err = capsys.readouterr().err
        assert f"error: {failing} of 3 trials failed; first: ValueError: non-finite gradient" in err
        assert [t.reason for t in load_summary(path).trials].count("error") == failing

    def test_sweep_with_a_bad_budget_writes_no_summary(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        assert cli(["sweep", "--cities", "5", "--rep", "qudit", "--trials", "2",
                    "--time-limit", "-1", "--out", str(path)]) == 2
        assert not path.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert "prune_wall_clock_s must be finite and >= 0" in err

    def test_sweep_and_report(self, tmp_path, capsys):
        summary_path = tmp_path / "s.json"
        assert cli(["sweep", "--cities", "4", "--rep", "qudit", "--trials", "2",
                    "--seed", "0", "--steps", "40", "--out", str(summary_path)]) == 0
        csv_path = tmp_path / "report.csv"
        assert cli(["report", str(summary_path), "--out", str(csv_path)]) == 0
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0][0] == "n_cities"
        assert rows[1][0] == "4"

    @pytest.mark.parametrize("broken", ["no trials", "unknown trial key", "null percentage",
                                        "NaN percentage", "infinite wall time",
                                        "boolean step count", "not JSON"])
    def test_malformed_summary_is_runtime_error(self, tmp_path, capsys, broken):
        payload = asdict(fake_summary(4, "qudit", [True], [1.0]))
        if broken == "no trials":
            payload = {}
        elif broken == "unknown trial key":
            payload["trials"][0]["bogus"] = 1
        elif broken == "null percentage":
            payload["percent_converged"] = None
        elif broken == "NaN percentage":
            payload["percent_converged"] = math.nan
        elif broken == "infinite wall time":
            payload["trials"][0]["wall_s"] = math.inf
        elif broken == "boolean step count":
            payload["trials"][0]["n_steps"] = True
        path = tmp_path / "s.json"
        path.write_text("not JSON" if broken == "not JSON" else json.dumps(payload))
        with pytest.raises(ValueError, match="s.json"):
            load_summary(path)
        assert cli(["report", str(path)]) == 2
        assert "s.json" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["inf", "nan", "-inf"])
    def test_non_finite_target_is_usage_error(self, tmp_path, capsys, target):
        out = tmp_path / "r.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "6", "--steps", "5",
                    f"--target={target}", "--out", str(out)]) == 1
        assert "--target must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self):
        assert cli(["solve", "--rep", "qudit", "--cities", "4", "--bogus"]) == 1

    def test_missing_instance_is_usage_error(self):
        assert cli(["exact"]) == 1

    def test_both_instance_sources_is_usage_error(self, tmp_path):
        path = tmp_path / "i.json"
        path.write_text(instance_json(linear_instance(3)))
        assert cli(["exact", "--cities", "3", "--instance", str(path)]) == 1

    def test_net_mismatch_is_usage_error(self):
        assert cli(["solve", "--rep", "qudit", "--net", "rbm", "--cities", "4"]) == 1

    def test_oversized_exact_is_runtime_error(self):
        assert cli(["exact", "--cities", "15"]) == 2

    def test_missing_file_is_runtime_error(self, tmp_path):
        assert cli(["exact", "--instance", str(tmp_path / "nope.json")]) == 2

    def test_target_auto_without_derivable_target_is_runtime_error(self, tmp_path):
        inst = random_symmetric_instance(11, 0)
        path = tmp_path / "big.json"
        path.write_text(instance_json(inst))
        assert cli(["solve", "--rep", "qudit", "--instance", str(path),
                    "--steps", "1", "--target", "auto"]) == 2

    def test_sweep_without_derivable_target_is_runtime_error(self, tmp_path, capsys):
        """No trial of such a sweep could converge; it used to report 0% and exit 0."""
        path = tmp_path / "big.json"
        path.write_text(instance_json(random_symmetric_instance(11, 0)))
        out = tmp_path / "s.json"
        assert cli(["sweep", "--instance", str(path), "--rep", "qudit", "--trials", "2",
                    "--steps", "5", "--out", str(out)]) == 2
        assert "cannot derive a target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", OVERFLOWING_DISTANCES)
    @pytest.mark.parametrize("command", [
        ["solve", "--rep", "qudit", "--steps", "3"],
        ["exact"],
        ["sweep", "--rep", "qudit", "--trials", "2", "--steps", "3"],
    ], ids=["solve", "exact", "sweep"])
    def test_an_instance_whose_tour_lengths_overflow_exits_2(self, tmp_path, capsys, name,
                                                             command):
        """Refused at load, so no command reaches a run with no best tour, a
        spread that is not JSON, or brute force with no finite length."""
        path = write_instance_file(tmp_path / "big.json", OVERFLOWING_DISTANCES[name])
        out = tmp_path / "out"
        flags = [] if command == ["exact"] else ["--out", str(out)]
        assert cli([*command, "--instance", str(path), *flags]) == 2
        assert "N * max distance must be at most 1e+150" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTSP_SEED", "31")
        out = tmp_path / "run.jsonl"
        assert cli(["solve", "--rep", "qudit", "--cities", "4", "--steps", "2",
                    "--out", str(out)]) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["config"]["sampler"]["seed"] == 31

    @pytest.mark.parametrize("flags, key, given, fallback", [
        (["--seed", "3"], "seed", 3, 31),
        (["--no-fix-first"], "fix_first", False, True),
    ], ids=["seed", "no-fix-first"])
    def test_calls_share_one_parser_but_no_values(self, tmp_path, monkeypatch, flags, key,
                                                   given, fallback):
        """cli parses every call with one parser; a flag given to one call
        does not reach the next, which takes QTSP_SEED or pins city 1."""
        from qtsp import cli as cli_module

        parsers, parse_args = [], cli_module._Parser.parse_args
        monkeypatch.setattr(cli_module._Parser, "parse_args",
                            lambda self, *a: parsers.append(self) or parse_args(self, *a))
        monkeypatch.setenv("QTSP_SEED", "31")
        out = tmp_path / "run.jsonl"
        for extra, expected in ((flags, given), ([], fallback)):
            assert cli(["solve", "--rep", "qudit", "--cities", "4", "--steps", "1", *extra,
                        "--out", str(out)]) == 0
            assert json.loads(out.read_text().splitlines()[0])["config"]["sampler"][key] == expected
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_help_exits_zero(self):
        assert cli(["--help"]) == 0
        assert cli(["solve", "--help"]) == 0
