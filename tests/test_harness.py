"""Tests for the experiment harness, ranking and the CLI."""

import csv
import functools
import json
import random
import shutil
import statistics

import pytest

from cotune import tuners
from cotune.cli import main as cli_main
from cotune.harness import (
    ExperimentConfig,
    HarnessError,
    TunerSpec,
    cohens_d,
    emit_trajectory_plots_data,
    ranks,
    run_experiment,
    scott_knott_esd,
)
from cotune.landscape import load_csv, synth, write_csv
from cotune.requirement import Fragment, Proposition
from cotune.tuners import (
    TUNER_KINDS,
    TunerParams,
    cotune_run,
    ga_run,
    random_run,
    run_tuner,
)


def gauss_sample(rng, mean, std, n=30):
    return [mean + std * rng.gauss(0, 1) for _ in range(n)]


class TestCohensD:
    def test_known_value(self):
        a = [0.0, 1.0, 2.0]  # var 1
        b = [3.0, 4.0, 5.0]
        assert cohens_d(a, b) == pytest.approx(3.0)

    def test_zero_variance_distinct_means(self):
        assert cohens_d([1.0, 1.0], [2.0, 2.0]) == float("inf")

    def test_identical(self):
        assert cohens_d([1.0, 1.0], [1.0, 1.0]) == 0.0


class TestScottKnott:
    def test_indistinguishable_single_group(self):
        groups = scott_knott_esd({"A": [0.5] * 30, "B": [0.5] * 30})
        assert groups == [["A", "B"]]

    def test_maximal_separation(self):
        groups = scott_knott_esd({"A": [0.9] * 30, "B": [0.1] * 30})
        assert groups == [["A"], ["B"]]

    def test_three_tuner_example(self):
        rng = random.Random(0)
        samples = {
            "A": gauss_sample(rng, 0.9, 0.05),
            "B": gauss_sample(rng, 0.88, 0.05),
            "C": gauss_sample(rng, 0.1, 0.05),
        }
        assert scott_knott_esd(samples) == [["A", "B"], ["C"]]
        assert ranks(samples) == {"A": 1, "B": 1, "C": 2}

    def test_permutation_invariance(self):
        rng = random.Random(1)
        samples = {
            "A": gauss_sample(rng, 0.9, 0.05),
            "B": gauss_sample(rng, 0.88, 0.05),
            "C": gauss_sample(rng, 0.1, 0.05),
            "D": gauss_sample(rng, 0.5, 0.05),
        }
        reference = ranks(samples)
        keys = list(samples)
        shuffle_rng = random.Random(2)
        for _ in range(100):
            shuffle_rng.shuffle(keys)
            assert ranks({k: samples[k] for k in keys}) == reference

    def test_kruskal_alternative(self):
        rng = random.Random(3)
        samples = {
            "A": gauss_sample(rng, 0.9, 0.05),
            "B": gauss_sample(rng, 0.1, 0.05),
        }
        assert ranks(samples, test="kruskal") == {"A": 1, "B": 2}

    def test_single_tuner(self):
        assert scott_knott_esd({"A": [0.5, 0.6]}) == [["A"]]

    def test_needs_two_scores(self):
        with pytest.raises(HarnessError):
            scott_knott_esd({"A": [0.5], "B": [0.6, 0.7]})

    def test_groups_contiguous_in_mean_order(self):
        rng = random.Random(4)
        samples = {
            name: gauss_sample(rng, mean, 0.08)
            for name, mean in
            (("A", 0.95), ("B", 0.7), ("C", 0.65), ("D", 0.2))
        }
        groups = scott_knott_esd(samples)
        flattened = [t for g in groups for t in g]
        means = [statistics.fmean(samples[t]) for t in flattened]
        assert means == sorted(means, reverse=True)


def small_config(tmp_path, repeats=2, seed_base=0):
    land = synth(seed=1, n_options=6, domain_sizes=2, shape="additive")
    land_csv = tmp_path / "land.csv"
    write_csv(land, land_csv)
    return ExperimentConfig(
        landscapes=[{"name": "small", "csv": str(land_csv)}],
        requirements=[{"gen": {"d_levels": [0.5], "types": 1, "seed": 2}}],
        tuners=[
            {"name": "CoTune", "params": {"budget": 60}},
            {"name": "Random", "params": {"budget": 60}},
        ],
        out_dir=str(tmp_path / "out"),
        repeats=repeats,
        seed_base=seed_base,
    )


class TestRunExperiment:
    def test_bookkeeping(self, tmp_path):
        result = run_experiment(small_config(tmp_path))
        out = tmp_path / "out"
        trajectories = list(out.glob("*/*/*/seed*.csv"))
        assert len(trajectories) == 4  # 1 landscape x 1 req x 2 tuners x 2 seeds
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert result["failures"] == []
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["tuner"] for r in rows} == {"CoTune", "Random"}

    def test_summary_mean_is_exact(self, tmp_path):
        run_experiment(small_config(tmp_path))
        out = tmp_path / "out"
        with open(out / "summary.csv", newline="") as fh:
            rows = {r["tuner"]: r for r in csv.DictReader(fh)}
        for tuner, row in rows.items():
            finals = []
            for path in sorted(out.glob(f"*/*/{tuner}/seed*.csv")):
                with open(path, newline="") as fh:
                    finals.append(
                        float(list(csv.DictReader(fh))[-1]["best_pt_score"]))
            assert float(row["mean"]) == statistics.fmean(finals)

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment(small_config(tmp_path))
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        run_experiment(small_config(tmp_path))
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first

    def test_failures_are_isolated(self, tmp_path):
        config = small_config(tmp_path)
        # a budget below the initialization cost fails every run of one tuner
        config.tuners = [
            TunerSpec("CoTune", params={"budget": 60}),
            TunerSpec("Broken", kind="cotune", params={"budget": 5}),
        ]
        result = run_experiment(config)
        assert len(result["failures"]) == 2
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            rows = {r["tuner"]: r for r in csv.DictReader(fh)}
        assert rows["Broken"]["failed"] == "x"
        assert rows["CoTune"]["failed"] == ""

    def test_parallel_matches_serial(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        serial = small_config(tmp_path / "a")
        run_experiment(serial)
        parallel = small_config(tmp_path / "b")
        parallel.jobs = 4
        run_experiment(parallel)
        a = (tmp_path / "a" / "out" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "out" / "summary.csv").read_bytes()
        assert a == b


class TestTrajectoryData:
    def test_aggregation_matches_manual(self, tmp_path):
        run_experiment(small_config(tmp_path, repeats=3))
        out = tmp_path / "out"
        rows, missing = emit_trajectory_plots_data(out, step=10)
        assert missing == []
        # recompute one point by hand for CoTune at budget 20
        curves = []
        for path in sorted(out.glob("*/*/CoTune/seed*.csv")):
            with open(path, newline="") as fh:
                pts = [(int(r["budget_used"]), float(r["best_pt_score"]))
                       for r in csv.DictReader(fh)]
            best = max(s for b, s in pts if b <= 20)
            curves.append(best)
        manual = statistics.fmean(curves)
        point = next(r for r in rows if r[0] == "CoTune" and r[1] == 20)
        assert point[2] == pytest.approx(manual)

    def test_mean_curve_non_decreasing(self, tmp_path):
        run_experiment(small_config(tmp_path, repeats=3))
        rows, _ = emit_trajectory_plots_data(tmp_path / "out", step=10)
        for tuner in {r[0] for r in rows}:
            curve = [r[2] for r in rows if r[0] == tuner]
            assert curve == sorted(curve)

    def test_single_run_zero_width_ci(self, tmp_path):
        config = small_config(tmp_path)
        config.repeats = 2
        config.tuners = config.tuners[:1]
        run_experiment(config)
        # drop one trajectory so exactly one run remains
        files = sorted((tmp_path / "out").glob("*/*/*/seed*.csv"))
        files[1].unlink()
        rows, missing = emit_trajectory_plots_data(tmp_path / "out", step=10)
        assert missing == [str(files[1])]
        for row in rows:
            assert row[3] == row[2] == row[4]


# each kind's entry point called directly, as a library user would
DIRECT = {
    "cotune": cotune_run,
    "ga_p": functools.partial(ga_run, objective="satisfaction"),
    "ga_r": functools.partial(ga_run, objective="raw"),
    "random": random_run,
}


def typed_rows(path):
    with open(path, newline="") as fh:
        return [(int(r["iteration"]), int(r["budget_used"]),
                 float(r["best_pt_score"]), r["guiding_proposition"],
                 r["case_fired"], float(r["theta"]), float(r["entropy_pa"]))
                for r in csv.DictReader(fh)]


class TestTunerProtocol:
    def test_spec_accepts_exactly_the_table_kinds(self):
        assert set(DIRECT) == set(TUNER_KINDS)
        for kind, (label, *_) in TUNER_KINDS.items():
            assert TunerSpec("Mine", kind=kind).kind == kind
            assert TunerSpec(label).kind == kind
        for kind in ("ga", "Random", "cotune_run"):
            with pytest.raises(HarnessError):
                TunerSpec("Mine", kind=kind)

    @pytest.mark.parametrize("kind", sorted(TUNER_KINDS))
    def test_spec_run_matches_the_direct_call(self, tmp_path, kind):
        land = synth(seed=1, n_options=6, domain_sizes=2, shape="rugged")
        write_csv(land, tmp_path / "land.csv")
        land = load_csv(tmp_path / "land.csv", name="small")
        values = sorted(land.measurements.values())
        prop = Proposition((
            Fragment("E", land.v_min, values[6], 1.0, 1.0),
            Fragment("S", values[6], values[40], 1.0, 0.0),
            Fragment("E", values[40], land.v_max, 0.0, 0.0),
        ))
        req = tmp_path / "req.json"
        req.write_text(prop.dumps())
        run_experiment(ExperimentConfig(
            landscapes=[{"name": "small", "csv": str(tmp_path / "land.csv")}],
            requirements=[{"file": str(req)}],
            tuners=[TunerSpec("Mine", kind=kind, params={"budget": 60})],
            out_dir=str(tmp_path / "out"), repeats=2))
        params = TunerParams(budget=60, early_stop=False)
        for seed in (0, 1):
            direct = DIRECT[kind](land, prop, params, seed, label="Mine")
            assert direct.tuner == "Mine"
            assert typed_rows(tmp_path / "out" / "small" / "req" / "Mine"
                              / f"seed{seed}.csv") == [
                (r.iteration, r.budget_used, r.best_pt_score,
                 r.guiding_proposition, r.case_fired, r.theta, r.entropy_pa)
                for r in direct.trajectory]
        assert DIRECT[kind](land, prop, params, 0).tuner == TUNER_KINDS[kind][0]

    @pytest.mark.parametrize("kind", sorted(TUNER_KINDS))
    def test_run_tuner_calls_the_module_attribute(self, monkeypatch, kind):
        # a wrapper installed on the module after import sees every run
        land = synth(seed=1, n_options=6, domain_sizes=2, shape="additive")
        entry = TUNER_KINDS[kind][1]
        real, labels = getattr(tuners, entry), []

        def spy(*args, label, **kwargs):
            labels.append(label)
            return real(*args, label=label, **kwargs)

        monkeypatch.setattr(tuners, entry, spy)
        prop = Proposition((Fragment("S", land.v_min, land.v_max, 1.0, 0.0),))
        result = run_tuner(kind, land, prop, TunerParams(budget=30), 0,
                           label="Mine")
        assert labels[0] == "Mine"
        assert result.tuner == "Mine"


class TestConfigLoading:
    def test_missing_file_rejected(self, tmp_path):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "landscapes": [{"csv": "nope.csv"}],
            "requirements": [{"gen": {"d_levels": [0.5]}}],
            "tuners": [{"name": "CoTune"}, {"name": "Random"}],
            "out_dir": str(tmp_path / "out"),
        }))
        with pytest.raises(HarnessError, match="missing"):
            ExperimentConfig.from_json(config_path)

    def test_repeats_floor(self, tmp_path):
        with pytest.raises(HarnessError):
            ExperimentConfig(landscapes=[], requirements=[], tuners=[],
                             out_dir=str(tmp_path), repeats=1)

    def test_unknown_tuner_kind(self):
        with pytest.raises(HarnessError):
            TunerSpec("Mystery")


class TestCli:
    def test_synth_gen_run_rank(self, tmp_path, capsys):
        land_csv = tmp_path / "land.csv"
        rc = cli_main(["synth", "--seed", "1", "--options", "6",
                       "--shape", "additive", "--out", str(land_csv)])
        assert rc == 0
        assert land_csv.exists()

        req_dir = tmp_path / "reqs"
        rc = cli_main(["gen-reqs", "--landscape", str(land_csv),
                       "--d", "0.5", "--types", "1", "--seed", "3",
                       "--out", str(req_dir)])
        assert rc == 0
        req_files = sorted(req_dir.glob("req_*.json"))
        assert len(req_files) == 1

        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "landscapes": [{"name": "land", "csv": "land.csv"}],
            "requirements": [{"file": f"reqs/{req_files[0].name}"}],
            "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                       {"name": "Random", "params": {"budget": 60}}],
            "out_dir": str(tmp_path / "out"),
            "repeats": 2,
        }))
        rc = cli_main(["run", "--config", str(config_path)])
        assert rc == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "trajectories.csv").exists()

        rc = cli_main(["rank", "--results", str(tmp_path / "out")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "rank" in captured.out

    def test_rank_and_trajectories_cover_only_the_latest_sweep(
            self, tmp_path, capsys):
        land_csv = tmp_path / "land.csv"
        cli_main(["synth", "--seed", "1", "--options", "6",
                  "--shape", "additive", "--out", str(land_csv)])
        cli_main(["gen-reqs", "--landscape", str(land_csv), "--d", "0.2,0.5",
                  "--types", "1", "--seed", "3",
                  "--out", str(tmp_path / "reqs")])
        first, second = sorted((tmp_path / "reqs").glob("req_*.json"))
        out = tmp_path / "out"
        for req in (first, second):
            config_path = tmp_path / f"{req.stem}.json"
            config_path.write_text(json.dumps({
                "landscapes": [{"name": "land", "csv": "land.csv"}],
                "requirements": [{"file": f"reqs/{req.name}"}],
                "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                           {"name": "Random", "params": {"budget": 60}}],
                "out_dir": str(out),
                "repeats": 2,
            }))
            assert cli_main(["run", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli_main(["rank", "--results", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"land / {second.stem}:" in printed
        assert first.stem not in printed
        # the first sweep's trajectories are still on disk but not read
        rows, missing = emit_trajectory_plots_data(out)
        shutil.rmtree(out / "land" / first.stem)
        assert emit_trajectory_plots_data(out) == (rows, missing)

    def test_rank_without_a_sweep(self, tmp_path, capsys):
        assert cli_main(["rank", "--results", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_run_partial_failure_exit_code(self, tmp_path):
        land_csv = tmp_path / "land.csv"
        cli_main(["synth", "--seed", "1", "--options", "6",
                  "--shape", "additive", "--out", str(land_csv)])
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "landscapes": [{"name": "land", "csv": "land.csv"}],
            "requirements": [{"gen": {"d_levels": [0.5], "types": 1}}],
            "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                       {"name": "Broken", "kind": "cotune",
                        "params": {"budget": 5}}],
            "out_dir": str(tmp_path / "out"),
            "repeats": 2,
        }))
        assert cli_main(["run", "--config", str(config_path)]) == 2
