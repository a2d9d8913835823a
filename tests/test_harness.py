"""Tests for the experiment harness, ranking and the CLI."""

import csv
import functools
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

import cotune
from cotune import tuners
from cotune.cli import build_parser
from cotune.cli import main as cli_main
from cotune.harness import (
    ALPHA,
    ExperimentConfig,
    HarnessError,
    TunerSpec,
    _betainc,
    _kruskal_p,
    _stdev,
    _variance,
    _welch_p,
    cohens_d,
    emit_trajectory_plots_data,
    ranks,
    run_experiment,
    scott_knott_esd,
)
from cotune.landscape import load_csv, synth, write_csv
from cotune.reqgen import GenSpec, generate_target
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


ULP = 2.0 ** -52


def pvalue_pairs(count=2000):
    """count seeded sample pairs, each side of 2 to 90 values: Gaussian,
    coarsely rounded (ties), mostly 1.0 with a few lower values, constant
    1.0, or 0/1; a third of the pairs shifted apart. No pair is constant on
    both sides, where no test runs."""
    rng = random.Random(12)
    draws = (
        lambda n: [rng.gauss(0.5, 0.1) for _ in range(n)],
        lambda n: [round(rng.random(), 1) for _ in range(n)],
        lambda n: [1.0 if rng.random() < 0.7 else rng.random()
                   for _ in range(n)],
        lambda n: [1.0] * n,
        lambda n: [float(rng.random() < 0.5) for _ in range(n)],
    )
    pairs = []
    for i in itertools.count():
        a = draws[i % 5](2 + i % 89)
        b = draws[(i // 5) % 5](2 + (i * 37) % 89)
        if i % 3 == 0:
            shift = rng.gauss(0.0, 0.1)
            b = [x + shift for x in b]
        if len(set(a)) > 1 or len(set(b)) > 1:
            pairs.append((a, b))
        if len(pairs) == count:
            return pairs


class TestPValues:
    def test_cotune_imports_no_scipy(self):
        src = os.path.dirname(os.path.dirname(cotune.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run(
            [sys.executable, "-c", "import sys, cotune, cotune.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_incomplete_beta_closed_forms(self):
        for y in (1 - 1e-12, 0.99, 0.7, 0.5, 0.1, 1e-9):
            x = 1 - y
            # I_x(1/2, 1/2) is the arcsine law, I_x(1, b) = 1 - y^b
            assert _betainc(0.5, 0.5, x, y) == pytest.approx(
                2 / math.pi * math.atan2(math.sqrt(x), math.sqrt(y)),
                rel=1e-12)
            assert _betainc(1.0, 3.5, x, y) == pytest.approx(
                -math.expm1(3.5 * math.log(y)), rel=1e-12)
        assert _betainc(2.0, 0.5, 0.0, 1.0) == 0.0
        assert _betainc(2.0, 0.5, 1.0, 0.0) == 1.0

    def test_welch_one_degree_of_freedom(self):
        # two values against a constant side: t = 3 on nu = 1 (Cauchy tail)
        assert _welch_p([0.0, 2.0], [4.0, 4.0]) == pytest.approx(
            1 - 2 / math.pi * math.atan(3.0), rel=1e-12)
        assert _welch_p([0.0, 2.0], [1.0, 1.0]) == 1.0
        # distinct values whose squared deviations underflow: both variances
        # are 0.0, and the means differ
        assert _welch_p([1e-170, 2e-170], [0.0, 0.0]) == 0.0

    def test_kruskal_by_hand(self):
        # ranks 1-3 against 4-6: H = 12 / 42 * (36 + 225) / 3 - 21
        h = 12 / 42 * 87 - 21
        assert _kruskal_p([1, 2, 3], [4, 5, 6]) == pytest.approx(
            math.erfc(math.sqrt(h / 2)), rel=1e-12)
        # ties: ranks 1.5, 1.5, 4 | 4, 4, 6; correction 1 - 30 / 210
        h = (12 / 42 * (7 ** 2 / 3 + 14 ** 2 / 3) - 21) / (1 - 30 / 210)
        assert _kruskal_p([1, 1, 2], [2, 2, 3]) == pytest.approx(
            math.erfc(math.sqrt(h / 2)), rel=1e-12)

    def test_agrees_with_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for a, b in pvalue_pairs():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                welch = stats.ttest_ind(a, b, equal_var=False).pvalue
                kruskal = stats.kruskal(a, b).pvalue
            for mine, ref in ((_welch_p(a, b), welch),
                              (_kruskal_p(a, b), kruskal)):
                assert mine == pytest.approx(ref, rel=1e-9, abs=0.0)
                assert (mine < ALPHA) == (ref < ALPHA)

    @pytest.mark.parametrize("samples, groups", [
        ({"CoTune": [1.0] * 30, "GA_p": [1.0] * 29 + [1.0 - ULP]},
         [["CoTune", "GA_p"]]),
        ({"CoTune": [1.0] * 30, "GA_p": [1.0] * 28 + [1.0 - ULP] * 2},
         [["CoTune", "GA_p"]]),
        ({"CoTune": [1.0] * 29 + [0.9999999999999929], "GA_p": [1.0] * 30},
         [["GA_p", "CoTune"]]),
        ({"CoTune": [1.0] * 20 + [1.0000000000000142] * 10,
          "GA_p": [1.0] * 30},
         [["CoTune"], ["GA_p"]]),
        ({"CoTune": [1.0] * 30, "GA_p": [1.0] * 25 + [0.98] * 5},
         [["CoTune"], ["GA_p"]]),
    ])
    @pytest.mark.parametrize("test", ["welch", "kruskal"])
    def test_near_identical_samples_rank_without_warnings(self, samples,
                                                          groups, test):
        # scores equal to a few ulps, as the acceptance sweep's easy cells
        # give; the groups are those of the scipy-based ranking
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scott_knott_esd(samples, test) == groups


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

    def test_write_failures_are_isolated(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "small").write_text("")  # a file where a directory goes
        result = run_experiment(config)
        assert len(result["failures"]) == 4
        assert all("trajectory not written" in f["error"]
                   for f in result["failures"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"] == []
        assert len(manifest["failures"]) == 4
        assert (out / "summary.csv").exists()

    def test_parallel_matches_serial(self, tmp_path):
        serial = small_config(tmp_path)
        run_experiment(serial)
        # one landscape file, so that the manifests' configs are alike
        run_experiment(replace(serial, out_dir=str(tmp_path / "parallel"),
                               jobs=4))
        for name in ("summary.csv", "manifest.json"):
            a = (tmp_path / "out" / name).read_bytes()
            b = (tmp_path / "parallel" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("change", ["a second tuner of one name",
                                        "a tuner renamed to .."])
    def test_config_changed_after_it_was_built_cannot_share_files(
            self, tmp_path, change):
        # results are filed by tuner name, and run_experiment applies the
        # name rule again, so a config changed after it was built is held
        # to it too
        config = small_config(tmp_path)
        if change == "a second tuner of one name":
            config.tuners.append(TunerSpec("CoTune", kind="random"))
            match = "two tuners are named 'CoTune'"
        else:
            config.tuners[1].name = ".."
            match = "tuner name '..' must be one path component"
        with pytest.raises(HarnessError, match=match):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_manifest_records_each_runs_final_best(self, tmp_path):
        run_experiment(small_config(tmp_path))
        out = tmp_path / "out"
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert len(runs) == 4
        for run in runs:
            path = (out / run["landscape"] / run["requirement"] / run["tuner"]
                    / f"seed{run['seed']}.csv")
            with open(path, newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert run["best"] == float(last["best_pt_score"])


class TestTrajectoryData:
    def test_aggregation_matches_manual(self, tmp_path):
        run_experiment(small_config(tmp_path, repeats=3))
        out = tmp_path / "out"
        rows, missing = emit_trajectory_plots_data(out)
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
        rows, _ = emit_trajectory_plots_data(tmp_path / "out")
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
        rows, missing = emit_trajectory_plots_data(tmp_path / "out")
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


def config_obj(tmp_path, **changes):
    """A small valid config writing under tmp_path / "out", with changes."""
    return {
        "landscapes": [{"synth": {"seed": 1, "n_options": 6,
                                  "domain_sizes": 2, "shape": "additive"}}],
        "requirements": [{"gen": {"d_levels": [0.5], "types": 1}}],
        "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                   {"name": "Random", "params": {"budget": 60}}],
        "out_dir": str(tmp_path / "out"),
        "repeats": 2,
        **changes,
    }


def with_setting(**setting):
    """Config file content from tmp_path: config_obj with one setting."""
    return lambda tmp: json.dumps(config_obj(tmp, **setting))


def with_tuners(*tuners):
    """Config file content from tmp_path: config_obj with these tuners."""
    return with_setting(tuners=list(tuners))


def with_param(**param):
    """Config file content from tmp_path: config_obj whose one tuner has
    this parameter besides its budget."""
    return with_tuners({"name": "CoTune", "params": {"budget": 60, **param}})


# case -> (config file content from tmp_path, or None for no file; what the
# error names)
MALFORMED = {
    "unknown key": (lambda tmp: json.dumps(config_obj(tmp, repeat=3)),
                    "'repeat'"),
    "unknown tuner key": (lambda tmp: json.dumps(config_obj(tmp, tuners=[
        {"name": "CoTune", "param": {"budget": 60}}])), "'param'"),
    "not an object": (lambda tmp: json.dumps([1, 2]), "not a JSON object"),
    "landscape not an object": (lambda tmp: json.dumps(config_obj(
        tmp, landscapes=["land.csv"])), "list of JSON objects"),
    "not JSON": (lambda tmp: "{", "cannot read"),
    "missing file": (lambda tmp: None, "cannot read"),
    "jobs as a string": (with_setting(jobs="2"), "jobs must be an integer"),
    "jobs as a float": (with_setting(jobs=2.0), "jobs must be an integer"),
    "jobs 0": (with_setting(jobs=0), "jobs must be at least 1"),
    "jobs -1": (with_setting(jobs=-1), "jobs must be at least 1"),
    "repeats as a float": (with_setting(repeats=2.5),
                           "repeats must be an integer"),
    "repeats as a string": (with_setting(repeats="3"),
                            "repeats must be an integer"),
    "seed_base as a float": (with_setting(seed_base=1.5),
                             "seed_base must be an integer"),
    "seed_base as a boolean": (with_setting(seed_base=True),
                               "seed_base must be an integer"),
    "early_stop as a string": (with_setting(early_stop="no"),
                               "early_stop must be true or false"),
    "early_stop as a number": (with_setting(early_stop=0),
                               "early_stop must be true or false"),
    "two tuners of one name": (with_tuners(
        {"name": "CoTune", "params": {"budget": 60}},
        {"name": "CoTune", "kind": "random", "params": {"budget": 60}}),
        "two tuners are named 'CoTune'"),
    "budget as a string": (with_param(budget="60"),
                           "budget must be an integer"),
    "budget as a boolean": (with_param(budget=True),
                            "budget must be an integer"),
    "generations as a float": (with_param(generations=2.5),
                               "generations must be an integer"),
    "mutation_rate as a boolean": (with_param(mutation_rate=False),
                                   "mutation_rate must be a number"),
    "enable_case0 as a string": (with_param(enable_case0="no"),
                                 "enable_case0 must be true or false"),
    "a tuner's own early_stop": (with_param(early_stop=True),
                                 "'CoTune': early_stop is not a tuner param; "
                                 "set the config's top-level early_stop"),
    "tuner named to climb out of its cell": (
        with_tuners({"name": "../../escaped", "kind": "cotune"}),
        "must be one path component"),
    "tuner named ..": (with_tuners({"name": "..", "kind": "random"}),
                       "must be one path component"),
    "csv path as a number": (with_setting(landscapes=[{"csv": 5}]),
                             "landscape 'csv' must be a path, not 5"),
    "file path as a list": (with_setting(requirements=[{"file": ["a"]}]),
                            r"requirement 'file' must be a path, not \['a'\]"),
    "out_dir as a number": (with_setting(out_dir=5),
                            "out_dir must be a path, not 5"),
}


def write_config(tmp_path, content):
    path = tmp_path / "exp.json"
    if content is not None:
        path.write_text(content)
    return path


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

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_config_rejected(self, tmp_path, case):
        content, match = MALFORMED[case]
        config_path = write_config(tmp_path, content(tmp_path))
        with pytest.raises(HarnessError, match=match):
            ExperimentConfig.from_json(config_path)

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_flag_below_1_exits_1(self, tmp_path, capsys, jobs):
        config_path = write_config(tmp_path, json.dumps(config_obj(tmp_path)))
        assert cli_main(["run", "--config", str(config_path),
                         "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "jobs must be at least 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, match", [
        ({"popsize": 4}, "popsize"),
        ({"mutation_rate": 1.5}, "mutation_rate"),
        ({"population_size": 1}, "population_size"),
    ])
    def test_bad_tuner_params_rejected_before_any_run(
            self, tmp_path, params, match):
        config = small_config(tmp_path)
        config.tuners[1].params = params
        with pytest.raises(HarnessError, match=match):
            run_experiment(config)
        assert not (tmp_path / "out").exists()


# case -> (landscape entry, what the error names)
BAD_LANDSCAPES = {
    "synth without n_options": ({"synth": {"seed": 1}},
                                r"missing: \['n_options', 'domain_sizes', "
                                r"'shape'\]"),
    "synth with an unknown key": (
        {"synth": {"seed": 1, "n_options": 6, "domain_sizes": 2,
                   "shape": "additive", "size": 64}},
        r"unknown: \['size'\]"),
    "synth not an object": ({"synth": [1, 6, 2, "additive"]},
                            "must be an object"),
    "neither csv nor synth": ({"name": "x"}, "needs 'csv' or 'synth'"),
}


def unbuildable_landscape(tmp_path, case):
    """(entry, what the error names) of a landscape entry that passes the
    entry check but cannot be built."""
    if case == "synth of an unknown shape":
        return ({"synth": {"seed": 1, "n_options": 6, "domain_sizes": 2,
                           "shape": "spiky"}}, "unknown shape 'spiky'")
    path = tmp_path / "dup.csv"
    path.write_text("a,performance\n0,1.0\n1,2.0\n0,3.0\n")
    return {"csv": str(path)}, "row 4: duplicate configuration"


class TestLandscapeEntries:
    @pytest.mark.parametrize("case", ["synth of an unknown shape",
                                      "csv that fails to load"])
    def test_landscape_that_cannot_be_built_exits_1(self, tmp_path, capsys,
                                                    case):
        entry, match = unbuildable_landscape(tmp_path, case)
        config = config_obj(tmp_path, landscapes=[entry])
        with pytest.raises(HarnessError, match=match):
            run_experiment(ExperimentConfig(**config))
        config_path = write_config(tmp_path, json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "run(s) failed" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(BAD_LANDSCAPES))
    def test_bad_landscape_entry_rejected_before_any_run(self, tmp_path,
                                                         case):
        entry, match = BAD_LANDSCAPES[case]
        config = ExperimentConfig(**config_obj(tmp_path, landscapes=[
            config_obj(tmp_path)["landscapes"][0], entry]))
        with pytest.raises(HarnessError, match=match):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_incomplete_synth_entry_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path, json.dumps(config_obj(
            tmp_path, landscapes=[{"synth": {"seed": 1}}])))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "n_options" in captured.err
        assert not (tmp_path / "out").exists()


class TestRequirementEntries:
    @pytest.mark.parametrize("case", [
        "file that is not JSON", "file without fragments",
        "neither file nor gen", "gen that GenSpec rejects",
        "gen with an unknown key", "gen with a null seed",
        "gen with a seed of text", "gen with a fractional seed",
        "gen with types true", "gen with a d level true"])
    def test_bad_requirement_entry_exits_1(self, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        entry, match = {
            "file that is not JSON": ({"file": str(bad)}, "bad.json"),
            "file without fragments": ({"file": str(bad)},
                                       "missing key 'fragments'"),
            "neither file nor gen": ({"nope": 1}, "needs 'file' or 'gen'"),
            "gen that GenSpec rejects": ({"gen": {"types": 9}},
                                         "types must be between"),
            "gen with an unknown key": (
                {"gen": {"d_level": [0.5], "type": 1}},
                "unexpected keyword argument 'd_level'"),
            # a null seed would seed the generator from the OS
            "gen with a null seed": (
                {"gen": {"d_levels": [0.5], "types": 1, "seed": None}},
                "seed must be an integer, not None"),
            "gen with a seed of text": (
                {"gen": {"d_levels": [0.5], "types": 1, "seed": "x"}},
                "seed must be an integer, not 'x'"),
            "gen with a fractional seed": (
                {"gen": {"d_levels": [0.5], "types": 1, "seed": 1.5}},
                "seed must be an integer, not 1.5"),
            "gen with types true": ({"gen": {"d_levels": [0.5], "types": True}},
                                    "types must be an integer, not True"),
            "gen with a d level true": ({"gen": {"d_levels": [True]}},
                                        "d levels must be numbers, not True"),
        }[case]
        bad.write_text("{" if case == "file that is not JSON" else "{}")
        config = config_obj(tmp_path, requirements=[entry])
        with pytest.raises(HarnessError, match=match):
            run_experiment(ExperimentConfig(**config))
        assert not (tmp_path / "out").exists()
        config_path = write_config(tmp_path, json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "run(s) failed" not in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["gen entries of two seeds",
                                      "unnamed files of one stem"])
    def test_requirements_of_one_label_exit_1(self, tmp_path, capsys, case):
        # results are filed by requirement label, so these would share
        # trajectory files and summary cells
        if case == "gen entries of two seeds":
            entries = [{"gen": {"d_levels": [0.5], "types": 1, "seed": s}}
                       for s in (0, 1)]
            label = "t1_d0.5"
        else:
            land = synth(seed=1, n_options=6, domain_sizes=2,
                         shape="additive")
            entries = []
            for sub, d in (("a", 0.2), ("b", 0.9)):
                path = tmp_path / sub / "req.json"
                path.parent.mkdir()
                prop = generate_target(land, d, GenSpec(), random.Random(0))
                path.write_text(prop.dumps())
                entries.append({"file": f"{sub}/req.json"})
            label = "req"
        config_path = write_config(tmp_path, json.dumps(config_obj(
            tmp_path, requirements=entries)))
        with pytest.raises(HarnessError, match=f"labelled '{label}'"):
            run_experiment(ExperimentConfig.from_json(config_path))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_uncalibratable_landscape_is_a_failure(self, tmp_path):
        # d=0.5 cannot be realized on this plateau landscape; the other
        # landscape's runs go ahead
        plateau = {"name": "plateau", "synth": {
            "seed": 8, "n_options": 10, "domain_sizes": 2,
            "shape": "plateau"}}
        config = config_obj(tmp_path)
        config["landscapes"].append(plateau)
        result = run_experiment(ExperimentConfig(**config))
        assert [(f["landscape"], "cannot realize d=0.5" in f["error"])
                for f in result["failures"]] == [("plateau", True)]
        assert len(json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())["runs"]) == 4

    PLATEAU = {"name": "plateau", "synth": {
        "seed": 5, "n_options": 10, "domain_sizes": 2, "shape": "plateau"}}
    # d=0.001 cannot be calibrated on PLATEAU, d=0.9 can
    LEVELS = {"gen": {"d_levels": [0.001, 0.9], "types": 1, "seed": 42}}

    def test_a_level_that_cannot_be_calibrated_fails_alone(self, tmp_path,
                                                           capsys):
        config_path = write_config(tmp_path, json.dumps(config_obj(
            tmp_path, landscapes=[self.PLATEAU],
            requirements=[self.LEVELS])))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "1 requirement(s) could not be built" in err
        assert "run(s) failed" not in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        [failure] = manifest["failures"]
        assert (failure["landscape"], failure["requirement"]) == (
            "plateau", "t1_d0.001")
        assert "cannot realize d=0.001" in failure["error"]
        assert {(r["requirement"], r["tuner"]) for r in manifest["runs"]} == {
            ("t1_d0.9", "CoTune"), ("t1_d0.9", "Random")}
        assert len(manifest["runs"]) == 4
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            assert {row["requirement"] for row in csv.DictReader(fh)} == {
                "t1_d0.9"}

    def test_failed_runs_and_unbuilt_requirements_are_told_apart(
            self, tmp_path, capsys):
        config_path = write_config(tmp_path, json.dumps(config_obj(
            tmp_path, landscapes=[self.PLATEAU], requirements=[self.LEVELS],
            tuners=[{"name": "Broken", "kind": "cotune",
                     "params": {"budget": 5}},
                    {"name": "Random", "params": {"budget": 60}}])))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-2:] == [
            "2 run(s) failed; see manifest.json",
            "1 requirement(s) could not be built; see manifest.json"]


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

    def test_unnamed_csv_landscape_under_an_absolute_config_path(
            self, tmp_path):
        # the landscape is named by its file stem, not its absolute path
        land_csv = tmp_path / "land.csv"
        write_csv(synth(seed=1, n_options=6, domain_sizes=2,
                        shape="additive"), land_csv)
        config_path = tmp_path / "exp.json"
        assert config_path.is_absolute()
        config_path.write_text(json.dumps({
            "landscapes": [{"csv": "land.csv"}],
            "requirements": [{"gen": {"d_levels": [0.5], "types": 1}}],
            "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                       {"name": "Random", "params": {"budget": 60}}],
            "out_dir": str(tmp_path / "out"),
            "repeats": 2,
        }))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert len(list((out / "land").glob("*/*/seed*.csv"))) == 4

    @staticmethod
    def two_systems_config(tmp_path, landscapes):
        # two systems whose landscape files share the stem "data"
        for system, seed in (("x264", 1), ("lrzip", 2)):
            (tmp_path / system).mkdir()
            write_csv(synth(seed=seed, n_options=6, domain_sizes=2,
                            shape="additive"), tmp_path / system / "data.csv")
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({
            "landscapes": landscapes,
            "requirements": [{"gen": {"d_levels": [0.5], "types": 1}}],
            "tuners": [{"name": "CoTune", "params": {"budget": 60}},
                       {"name": "Random", "params": {"budget": 60}}],
            "out_dir": str(tmp_path / "out"),
            "repeats": 2,
        }))
        return config_path

    def test_landscapes_of_one_name_are_rejected(self, tmp_path, capsys):
        config_path = self.two_systems_config(
            tmp_path, [{"csv": "x264/data.csv"}, {"csv": "lrzip/data.csv"}])
        with pytest.raises(HarnessError, match="'data'"):
            run_experiment(ExperimentConfig.from_json(config_path))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert "distinct 'name'" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / "data").exists()
        assert not (out / "summary.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_named_landscapes_of_one_stem_are_kept_apart(self, tmp_path):
        config_path = self.two_systems_config(tmp_path, [
            {"name": "x264", "csv": "x264/data.csv"},
            {"name": "lrzip", "csv": "lrzip/data.csv"}])
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        for system in ("x264", "lrzip"):
            assert len(list((out / system).glob("*/*/seed*.csv"))) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["runs"]) == 8
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted({r["landscape"] for r in rows}) == ["lrzip", "x264"]
        assert all(r["runs"] == "2" for r in rows)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_run_on_a_malformed_config(self, tmp_path, capsys, case):
        content, _ = MALFORMED[case]
        config_path = write_config(tmp_path, content(tmp_path))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_run_with_an_unknown_tuner_param(self, tmp_path, capsys):
        config = config_obj(tmp_path, tuners=[
            {"name": "CoTune", "params": {"budget": 60, "popsize": 4}}])
        config_path = write_config(tmp_path, json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'CoTune'" in err and "popsize" in err
        assert not (tmp_path / "out").exists()

    def test_run_where_every_run_fails(self, tmp_path, capsys):
        config = config_obj(tmp_path, tuners=[
            {"name": "Broken", "kind": "cotune", "params": {"budget": 5}}])
        config_path = write_config(tmp_path, json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert "2 run(s) failed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 2

    def test_gen_reqs_defaults_are_gen_specs(self):
        args = build_parser().parse_args(["gen-reqs", "--landscape", "x.csv"])
        spec = GenSpec()
        assert args.d == "0.001,0.01,0.05,0.2,0.5,0.9"
        assert tuple(float(x) for x in args.d.split(",")) == spec.d_levels
        assert (args.types, args.seed) == (spec.types, spec.seed)

    def test_gen_reqs_names_a_csv_by_its_stem(self, tmp_path, monkeypatch):
        write_csv(synth(seed=1, n_options=6, domain_sizes=2,
                        shape="additive"), tmp_path / "land.csv")
        monkeypatch.chdir(tmp_path)
        written = []
        for given in ("land.csv", str(tmp_path / "land.csv")):
            out = tmp_path / f"reqs{len(written)}"
            assert cli_main(["gen-reqs", "--landscape", given, "--d", "0.2,0.5",
                             "--types", "1", "--out", str(out)]) == 0
            written.append({path.name: path.read_bytes()
                            for path in sorted(out.iterdir())})
        assert written[0] == written[1]
        assert "manifest.csv" in written[0] and len(written[0]) == 3
        for name, text in written[0].items():
            if name.endswith(".json"):
                assert json.loads(text)["metadata"]["landscape"] == "land"

    def test_gen_reqs_on_a_missing_csv(self, tmp_path, capsys):
        assert cli_main(["gen-reqs", "--landscape",
                         str(tmp_path / "nope.csv")]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "nope.csv" in err

    def test_gen_reqs_with_levels_that_format_alike(self, tmp_path, capsys):
        land_csv = tmp_path / "land.csv"
        write_csv(synth(seed=1, n_options=6, domain_sizes=2,
                        shape="additive"), land_csv)
        out = tmp_path / "reqs"
        assert cli_main(["gen-reqs", "--landscape", str(land_csv),
                         "--d", "0.5,0.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "first 6 significant digits" in err
        assert not out.exists()

    def test_gen_reqs_on_an_uncalibratable_landscape(self, tmp_path, capsys):
        # half of this plateau landscape cannot be cut off within tolerance
        land_csv = tmp_path / "plateau.csv"
        assert cli_main(["synth", "--seed", "8", "--options", "10",
                         "--shape", "plateau", "--out", str(land_csv)]) == 0
        capsys.readouterr()
        out = tmp_path / "reqs"
        assert cli_main(["gen-reqs", "--landscape", str(land_csv),
                         "--d", "0.5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot realize d=0.5" in err
        assert not out.exists()

    def test_gen_reqs_writes_the_levels_that_calibrate(self, tmp_path,
                                                       capsys):
        land_csv = tmp_path / "plateau.csv"
        assert cli_main(["synth", "--seed", "5", "--options", "10",
                         "--shape", "plateau", "--out", str(land_csv)]) == 0
        capsys.readouterr()
        out = tmp_path / "reqs"
        assert cli_main(["gen-reqs", "--landscape", str(land_csv),
                         "--d", "0.001,0.9", "--types", "1", "--seed", "42",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("t1_d0.001: plateau: cannot realize d=0.001")
        assert captured.out == f"1 requirement(s) written to {out}\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.csv", "req_t1_d0.9.json"]

    @pytest.mark.parametrize("options, match", [
        ("30", "exceeds enumeration cap"), ("0", "at least one option")])
    def test_synth_of_a_space_it_cannot_build(self, tmp_path, capsys,
                                              options, match):
        out = tmp_path / "land.csv"
        assert cli_main(["synth", "--seed", "1", "--options", options,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert match in err
        assert not out.exists()

    def test_rank_without_a_sweep(self, tmp_path, capsys):
        assert cli_main(["rank", "--results", str(tmp_path)]) == 1
        assert "manifest.json" in capsys.readouterr().err

    @staticmethod
    def sweep_with_a_failing_tuner(tmp_path):
        """The output directory of a finished two-cell sweep, one of whose
        three tuners fails every run."""
        config = config_obj(
            tmp_path,
            requirements=[{"gen": {"d_levels": [0.2, 0.5], "types": 1}}],
            tuners=[{"name": "CoTune", "params": {"budget": 60}},
                    {"name": "Random", "params": {"budget": 60}},
                    {"name": "Broken", "kind": "cotune",
                     "params": {"budget": 5}}],
            repeats=3)
        config_path = write_config(tmp_path, json.dumps(config))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        return tmp_path / "out"

    @pytest.mark.parametrize("test", ["welch", "kruskal"])
    def test_rank_reads_no_trajectory(self, tmp_path, capsys, test):
        # each run's final best is recorded in manifest.json
        out = self.sweep_with_a_failing_tuner(tmp_path)
        argv = ["rank", "--results", str(out), "--test", test]
        capsys.readouterr()
        assert cli_main(argv) == 0
        printed = capsys.readouterr()
        assert printed.out.count(" / ") == 2
        trajectories = list(out.glob("*/*/*/seed*.csv"))
        assert len(trajectories) == 12
        for path in trajectories:
            path.unlink()
        assert cli_main(argv) == 0
        assert capsys.readouterr() == printed

    def test_rank_on_a_manifest_without_final_bests(self, tmp_path, capsys):
        # a manifest written before runs recorded their final best
        out = self.sweep_with_a_failing_tuner(tmp_path)
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for run in manifest["runs"]:
            del run["best"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli_main(["rank", "--results", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "run the sweep again" in captured.err

    @pytest.mark.parametrize("case", [
        "landscape named ..", "landscape named to climb out of out_dir",
        "landscape named with a backslash", "requirement file named with a "
        "slash", "requirement file named by an empty string"])
    def test_name_that_is_not_one_path_component_exits_1(
            self, tmp_path, capsys, case):
        # results are filed under out_dir / landscape / requirement / tuner
        land = {"synth": {"seed": 1, "n_options": 6, "domain_sizes": 2,
                          "shape": "additive"}}
        req = tmp_path / "req.json"
        req.write_text(generate_target(
            synth(**land["synth"]), 0.5, GenSpec(), random.Random(0)).dumps())
        changes = {
            "landscape named ..": {"landscapes": [{**land, "name": ".."}]},
            "landscape named to climb out of out_dir": {
                "landscapes": [{**land, "name": "../../escaped"}]},
            "landscape named with a backslash": {
                "landscapes": [{**land, "name": "a\\b"}]},
            "requirement file named with a slash": {
                "requirements": [{"file": "req.json", "name": "../req"}]},
            "requirement file named by an empty string": {
                "requirements": [{"file": "req.json", "name": ""}]},
        }[case]
        config_path = write_config(
            tmp_path, json.dumps(config_obj(tmp_path, **changes)))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "must be one path component" in captured.err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "escaped").exists()

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


class TestSpreadStatistics:
    """harness's variance, stdev and pstdev: exact, and rounded once, on
    every Python version."""

    @staticmethod
    def samples(count=3000):
        rng = random.Random(11)
        for i in range(count):
            n = rng.choice((1, 2, 3, 5, 10, 30))
            base = rng.random()
            yield [(rng.random(),  # spread
                    rng.choice((0.0, -0.0, 0.5, 1.0)),  # ties and zeros
                    rng.random() * 1e-300,  # tiny
                    rng.uniform(-1e10, 1e10),  # wide
                    base + rng.choice((0.0, 1e-16, 5e-324)),  # near-constant
                    )[i % 5] for _ in range(n)]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics rounds stdev twice before 3.11")
    def test_equal_statistics(self):
        for xs in self.samples():
            assert _stdev(xs, ddof=0) == statistics.pstdev(xs), xs
            if len(xs) > 1:
                assert _stdev(xs) == statistics.stdev(xs), xs
                assert _variance(xs) == statistics.variance(xs), xs

    @staticmethod
    def exact_variance(xs, ddof):
        values = [Fraction(x) for x in xs]
        mean = sum(values) / len(values)
        return sum((v - mean) ** 2 for v in values) / (len(values) - ddof)

    def test_equal_an_exact_reference(self):
        for xs in self.samples(1000):
            for ddof in (0, 1):
                if len(xs) <= ddof:
                    continue
                exact = self.exact_variance(xs, ddof)
                if ddof:
                    assert _variance(xs) == float(exact), xs
                root = _stdev(xs, ddof=ddof)
                # the float nearest the exact root: its square lies between
                # the squares of the midpoints to its neighbours
                below = (Fraction(root)
                         + Fraction(math.nextafter(root, -math.inf))) / 2
                above = (Fraction(root)
                         + Fraction(math.nextafter(root, math.inf))) / 2
                assert max(below, 0) ** 2 <= exact <= above ** 2, xs
