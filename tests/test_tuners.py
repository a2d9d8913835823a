"""Tests for the tuner implementations."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotune import entropy as entropy_mod
from cotune import reqevolve, tuners
from cotune.entropy import MIN_ENTROPY, differential_entropy
from cotune.landscape import BudgetMeter, Landscape, OptionSpec, synth
from cotune.reqgen import GenSpec, generate_target
from cotune.requirement import Fragment, Proposition
from cotune.tuners import (
    TunerParams,
    compute_theta,
    cotune_run,
    ga_run,
    random_run,
)


def small_landscape():
    return synth(seed=1, n_options=6, domain_sizes=2, shape="additive")


def strict_proposition(land, quantile=0.1):
    """Score 1 below the given quantile of performance, tapering to 0."""
    values = sorted(land.measurements.values())
    cut = values[int(quantile * len(values))]
    mid = 0.5 * (cut + land.v_max)
    return Proposition((
        Fragment("E", land.v_min, cut, 1.0, 1.0),
        Fragment("S", cut, mid, 1.0, 0.0),
        Fragment("E", mid, land.v_max, 0.0, 0.0),
    ))


def everything_satisfies(land):
    return Proposition((Fragment("E", land.v_min, land.v_max, 1.0, 1.0),))


def nothing_satisfies(land):
    return Proposition((Fragment("E", land.v_min, land.v_max, 0.0, 0.0),))


class TestTheta:
    def test_zero_weights_give_one(self):
        assert compute_theta(0.0, 0.0, 0.0, 0.0) == 1.0

    def test_symmetric_weights_give_half(self):
        assert compute_theta(0.4, 0.4, 0.1, 0.1) == pytest.approx(0.5)

    def test_arithmetic_case(self):
        assert compute_theta(0.6, 0.2, 0.1, 0.1) == pytest.approx(0.7)

    def test_negative_improvement_floored(self):
        assert compute_theta(0.5, 0.5, -0.3, 0.0) == pytest.approx(0.5)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1),
           st.floats(-1, 1), st.floats(-1, 1))
    def test_theta_in_unit_interval(self, ma, mt, ia, it):
        assert 0.0 <= compute_theta(ma, mt, ia, it) <= 1.0


class TestCotuneRun:
    def test_deterministic(self):
        land = small_landscape()
        p_t = strict_proposition(land)
        params = TunerParams(budget=100, early_stop=False)
        a = cotune_run(land, p_t, params, seed=5)
        b = cotune_run(land, p_t, params, seed=5)
        assert a.trajectory == b.trajectory
        assert a.best_config == b.best_config

    def test_budget_respected(self):
        land = small_landscape()
        p_t = strict_proposition(land)
        for seed in range(5):
            r = cotune_run(land, p_t, TunerParams(early_stop=False), seed=seed)
            assert r.budget_consumed <= 300

    def test_trajectory_best_non_decreasing(self):
        land = small_landscape()
        p_t = strict_proposition(land)
        r = cotune_run(land, p_t, TunerParams(early_stop=False), seed=2)
        bests = [row.best_pt_score for row in r.trajectory]
        assert bests == sorted(bests)

    def test_early_stop_at_initialization(self):
        land = small_landscape()
        r = cotune_run(land, everything_satisfies(land),
                       TunerParams(early_stop=True), seed=0)
        assert r.best_score == 1.0
        assert r.budget_consumed == 10

    def test_degenerate_target_completes_with_zero(self):
        land = small_landscape()
        r = cotune_run(land, nothing_satisfies(land),
                       TunerParams(budget=60, early_stop=False), seed=1)
        assert r.best_score == 0.0
        # Case 0 fires immediately but nothing is distinguishable to relax
        assert any(e.get("case") == "case0" for e in r.events)

    def test_budget_too_small(self):
        land = small_landscape()
        with pytest.raises(ValueError):
            cotune_run(land, strict_proposition(land),
                       TunerParams(budget=15), seed=0)

    def test_best_is_the_first_best_of_the_history(self):
        # about 6 of the 64 configurations tie at score 1; the reported best
        # is the earliest measured of the best, and every trajectory row
        # holds the best over the configurations measured by then
        land = small_landscape()
        p_t = strict_proposition(land)
        for seed in range(8):
            meter = BudgetMeter(300)
            r = cotune_run(land, p_t, TunerParams(early_stop=False), seed,
                           meter=meter)
            history = [(c, p_t.evaluate(v)) for c, v in meter.cache.items()]
            assert (r.best_config, r.best_score) == max(
                history, key=lambda cv: cv[1])
            for row in r.trajectory:
                assert row.best_pt_score == max(
                    score for _, score in history[:row.budget_used])

    def test_forced_guidance_after_change(self):
        land = synth(seed=8, n_options=10, domain_sizes=2, shape="rugged")
        p_t = strict_proposition(land, quantile=0.01)
        r = cotune_run(land, p_t, TunerParams(early_stop=False), seed=4)
        changes = {e["iteration"] for e in r.events
                   if "new_encoding" in e
                   and e["new_encoding"] != e["old_encoding"]}
        for row in r.trajectory:
            if row.iteration - 1 in changes and row.iteration >= 2:
                assert row.guiding_proposition == "p_a"


class TestStagnationEscape:
    """Case 2 must not leave p_a scoring pop_a with zero variance."""

    SEEDS = (100, 101, 102)

    @staticmethod
    def strict_setup():
        # a strict target with a small stagnation cap fires case 2 often
        land = synth(seed=11, n_options=6, domain_sizes=[4, 3, 4, 3, 2, 2],
                     shape="rugged")
        p_t = generate_target(land, 0.001, GenSpec(), random.Random(42))
        return land, p_t, TunerParams(early_stop=False, stagnation_cap=3)

    def test_no_adopted_escape_scores_population_flat(self):
        land, p_t, params = self.strict_setup()
        adopted = 0
        for seed in self.SEEDS:
            r = cotune_run(land, p_t, params, seed=seed)
            entropy_at = {row.iteration: row.entropy_pa for row in r.trajectory}
            for e in r.events:
                if e["case"] != reqevolve.CASE2 or "error" in e:
                    continue
                if "reason" in e:  # skipped or rejected: p_a kept, flagged
                    assert e["flagged"]
                    assert e["new_encoding"] == e["old_encoding"]
                elif e["new_encoding"] != e["old_encoding"]:
                    adopted += 1
                    assert e["new_entropy"] > MIN_ENTROPY
                    assert entropy_at[e["iteration"]] > MIN_ENTROPY
        assert adopted > 0

    def test_escape_never_starts_from_sentinel(self, monkeypatch):
        land, p_t, params = self.strict_setup()
        real_escape = reqevolve.escape_case2
        starts = []

        def spy(p_a, perf_values, pool_target, rng, **kwargs):
            starts.append(differential_entropy(
                [p_a.evaluate(v) for v in perf_values]))
            return real_escape(p_a, perf_values, pool_target, rng, **kwargs)

        monkeypatch.setattr(reqevolve, "escape_case2", spy)
        skipped = 0
        for seed in self.SEEDS:
            r = cotune_run(land, p_t, params, seed=seed)
            skipped += sum("skipped" in e.get("reason", "") for e in r.events)
        assert starts
        assert all(h > MIN_ENTROPY for h in starts)
        assert skipped > 0

    @classmethod
    def evaluation_trace(cls, monkeypatch):
        """Run SEEDS on strict_setup, counting Proposition.evaluate calls.

        Returns, per run, its events, the iterations at which an escape ran,
        each iteration's evaluations beyond scoring its newcomers, and per
        escape its result and the evaluations made after it returned and
        before the next measurements (or the run's end). An iteration scores
        each newcomer once under p_a, and each configuration new to the run
        once under p_t; everything else it evaluates happens in step (d).
        """
        evaluations = 0
        real_evaluate = Proposition.evaluate
        real_escape = reqevolve.escape_case2
        real_measure = tuners._measure_until_exhausted
        # per iteration: the count when it measures, and that count plus
        # its newcomers' scores
        starts, owed = [], []
        escapes = []  # per escape: (iteration, outcome, count on return)

        def counted(self, v):
            nonlocal evaluations
            evaluations += 1
            return real_evaluate(self, v)

        def escape_spy(*args, **kwargs):
            outcome = real_escape(*args, **kwargs)
            escapes.append((len(starts), outcome, evaluations))
            return outcome

        def measure_spy(landscape, meter, configs):
            consumed = meter.consumed
            starts.append(evaluations)
            measured = real_measure(landscape, meter, configs)
            owed.append(evaluations + len(measured) + meter.consumed - consumed)
            return measured

        monkeypatch.setattr(Proposition, "evaluate", counted)
        monkeypatch.setattr(reqevolve, "escape_case2", escape_spy)
        monkeypatch.setattr(tuners, "_measure_until_exhausted", measure_spy)
        land, p_t, params = cls.strict_setup()
        runs = []
        for seed in cls.SEEDS:
            for trace in (starts, owed, escapes):
                trace.clear()
            r = cotune_run(land, p_t, params, seed=seed)
            ends = starts[1:] + [evaluations]  # each iteration's last count
            step_d = {it: end - o  # iterations are numbered from 1
                      for it, (end, o) in enumerate(zip(ends, owed), 1)}
            after = [(outcome, ends[it - 1] - at) for it, outcome, at in escapes]
            runs.append((r.events, {it for it, _, _ in escapes}, step_d, after))
        return runs

    def test_skipped_escape_scores_nothing(self, monkeypatch):
        # pop_a's fitness already holds p_a's scores, so deciding to skip
        # the escape needs no Proposition.evaluate call
        skipped = 0
        for events, escaped, step_d, _ in self.evaluation_trace(monkeypatch):
            for e in events:
                if "skipped" in e.get("reason", ""):
                    skipped += 1
                    assert e["iteration"] not in escaped
                    assert step_d[e["iteration"]] == 0
        assert skipped > 0

    def test_adopted_escape_result_is_not_scored_again(self, monkeypatch):
        # escape_case2 returns its result's scores on pop_a: the flatness
        # test and an adopted result's refit reuse them, so nothing is
        # evaluated between the escape and the next measurements
        adopted = 0
        for _, _, _, after in self.evaluation_trace(monkeypatch):
            for outcome, cost in after:
                adopted += max(outcome.scores) > min(outcome.scores)
                assert cost == 0
        assert adopted > 0


class TestEntropyReuse:
    def test_no_sample_reaches_the_kde_twice_in_a_run(self, monkeypatch):
        # a firing case's event, its requirement evolution, an adopted escape
        # result and the trajectory rows all need entropies of samples on
        # pop_a; relax, tighten and escape score them through the run's
        # memo, so no sample is scored twice anywhere in the run
        land, p_t, params = TestStagnationEscape.strict_setup()
        samples = []

        def spy(real):
            def entropy_spy(sample, *args, **kwargs):
                samples.append(tuple(sample))
                return real(sample, *args, **kwargs)
            return entropy_spy

        for module in (tuners, reqevolve):
            monkeypatch.setattr(module, "differential_entropy",
                                spy(module.differential_entropy))
        r = cotune_run(land, p_t, params, seed=100)
        assert {e["case"] for e in r.events} == {
            reqevolve.CASE0, reqevolve.CASE1, reqevolve.CASE2}
        assert samples
        assert len(samples) == len(set(samples))

    def test_every_kde_goes_through_the_tuners_attribute(self, monkeypatch):
        # the benchmark's tracer counts the KDE where tuners looks it up;
        # entropy routed around that site would read as zero calls there
        land, p_t, params = TestStagnationEscape.strict_setup()
        real_entropy = tuners.differential_entropy
        calls = []

        def counted(sample, *args, **kwargs):
            calls.append(sample)
            return real_entropy(sample, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "KDE reached around tuners.differential_entropy")

        monkeypatch.setattr(reqevolve, "differential_entropy", forbidden)
        monkeypatch.setattr(entropy_mod, "differential_entropy", forbidden)
        monkeypatch.setattr(tuners, "differential_entropy", counted)
        r = cotune_run(land, p_t, params, seed=100)
        assert {e["case"] for e in r.events} == {
            reqevolve.CASE0, reqevolve.CASE1, reqevolve.CASE2}
        assert calls


class TestScoringOnce:
    def test_each_measured_configuration_is_scored_with_p_t_once(
            self, monkeypatch):
        # with every case disabled p_a stays p_t; the run scores each
        # distinct measured configuration once (pop_t, theta and the best
        # read that score) and each newcomer once more as it enters pop_a
        land = synth(seed=8, n_options=10, domain_sizes=2, shape="rugged")
        p_t = strict_proposition(land, quantile=0.05)
        params = TunerParams(early_stop=False, enable_case0=False,
                             enable_case1=False, enable_case2=False)
        real_evaluate = Proposition.evaluate
        real_measure = tuners._measure_until_exhausted
        evaluated, newcomers = [], []

        def evaluate(self, v):
            evaluated.append(v)
            return real_evaluate(self, v)

        def measure_spy(landscape, meter, configs):
            measured = real_measure(landscape, meter, configs)
            newcomers.append(len(measured))
            return measured

        monkeypatch.setattr(Proposition, "evaluate", evaluate)
        monkeypatch.setattr(tuners, "_measure_until_exhausted", measure_spy)
        for seed in (0, 1):
            evaluated.clear()
            newcomers.clear()
            meter = BudgetMeter(params.budget)
            cotune_run(land, p_t, params, seed, meter=meter)
            assert len(newcomers) >= 10
            assert len(evaluated) == len(meter.cache) + sum(newcomers)


class TestAblationIdentity:
    def test_all_cases_disabled_equals_ga_p(self):
        land = synth(seed=8, n_options=10, domain_sizes=2, shape="rugged")
        p_t = strict_proposition(land, quantile=0.05)
        for seed in (0, 1, 2):
            params = TunerParams(early_stop=False, enable_case0=False,
                                 enable_case1=False, enable_case2=False)
            a = cotune_run(land, p_t, params, seed=seed)
            b = ga_run(land, p_t, TunerParams(early_stop=False), seed=seed)
            assert a.trajectory == b.trajectory
            assert a.best_config == b.best_config


class TestGaRun:
    def test_raw_finds_optimum_with_generous_budget(self):
        land = synth(seed=2, n_options=6, domain_sizes=2, shape="additive")
        p_t = strict_proposition(land, quantile=0.02)
        best_config = min(land.measurements, key=land.measurements.get)
        r = ga_run(land, p_t, TunerParams(budget=64, generations=100,
                                          early_stop=False),
                   seed=0, objective="raw")
        assert land.measurements[r.best_config] <= sorted(
            land.measurements.values())[3]
        assert r.best_score == p_t.evaluate(land.measurements[r.best_config])

    def test_raw_trajectory_non_decreasing(self):
        land = small_landscape()
        p_t = strict_proposition(land)
        r = ga_run(land, p_t, TunerParams(early_stop=False), seed=7,
                   objective="raw")
        bests = [row.best_pt_score for row in r.trajectory]
        assert bests == sorted(bests)

    def test_everything_satisfies_immediately(self):
        land = small_landscape()
        for objective in ("satisfaction", "raw"):
            r = ga_run(land, everything_satisfies(land),
                       TunerParams(early_stop=True), seed=0,
                       objective=objective)
            assert r.best_score == 1.0
            assert [row.iteration for row in r.trajectory] == [0]
            assert r.budget_consumed == 10

    def test_raw_stops_when_p_t_reaches_one(self):
        # two of the 64 configurations score 1; seed 2's initial sample
        # holds neither, and the second generation measures one
        land = small_landscape()
        p_t = strict_proposition(land, quantile=0.02)
        r = ga_run(land, p_t, TunerParams(early_stop=True), seed=2,
                   objective="raw")
        assert [row.iteration for row in r.trajectory] == [0, 1, 2]
        assert r.trajectory[-2].best_pt_score < 1.0
        assert r.best_score == 1.0
        assert r.budget_consumed == r.trajectory[-1].budget_used == 22
        full = ga_run(land, p_t, TunerParams(early_stop=False), seed=2,
                      objective="raw")
        assert full.trajectory[-1].iteration == 30
        assert full.trajectory[:3] == r.trajectory

    def test_raw_reports_the_first_lowest_value_among_ties(self):
        # 2.0 and 1.0 both score 1; the seed's initial sample measures 2.0
        # first, so the first best p_t score of the history is at (0, 1)
        # while GA_r reports the first lowest value, at (1, 0)
        options = [OptionSpec("a", (0, 1)), OptionSpec("b", (0, 1))]
        land = Landscape(options, [3.0, 2.0, 1.0, 4.0], name="ties")
        p_t = Proposition((Fragment("E", 1.0, 2.0, 1.0, 1.0),
                           Fragment("S", 2.0, 4.0, 1.0, 0.0)))
        params = TunerParams(population_size=4, budget=8)
        assert cotune_run(land, p_t, params, seed=0).best_config == (0, 1)
        r = ga_run(land, p_t, params, seed=0, objective="raw")
        assert r.best_config == (1, 0)
        assert r.best_score == 1.0

    def test_unknown_objective(self):
        land = small_landscape()
        with pytest.raises(ValueError):
            ga_run(land, strict_proposition(land), TunerParams(), seed=0,
                   objective="speed")


class TestRandomRun:
    def test_exhaustive_budget_finds_global_best(self):
        land = small_landscape()
        p_t = strict_proposition(land)
        r = random_run(land, p_t, TunerParams(budget=64, early_stop=False),
                       seed=0)
        best = max(p_t.evaluate(v) for v in land.measurements.values())
        assert r.best_score == pytest.approx(best)

    def test_single_measurement(self):
        land = small_landscape()
        r = random_run(land, strict_proposition(land), TunerParams(budget=1),
                       seed=3)
        assert r.budget_consumed == 1

    def test_mean_best_matches_order_statistics(self):
        # drawing B distinct configurations uniformly: the expected best
        # score follows the exact order statistics of the score multiset
        land = small_landscape()
        p_t = strict_proposition(land, quantile=0.3)
        B = 8
        scores = sorted(p_t.evaluate(v) for v in land.measurements.values())
        n = len(scores)
        expected = 0.0
        prev = 0.0
        for k in range(B, n + 1):
            # P(best among B draws is at most the k-th smallest score)
            p_le = math.comb(k, B) / math.comb(n, B)
            expected += scores[k - 1] * (p_le - prev)
            prev = p_le
        params = TunerParams(budget=B, early_stop=False)
        observed = sum(random_run(land, p_t, params, seed=s).best_score
                       for s in range(1000)) / 1000
        assert observed == pytest.approx(expected, abs=0.02)
