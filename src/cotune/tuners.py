"""Tuner implementations behind a single run interface.

Every tuner is called as ``tuner(landscape, p_t, params, seed, label=...)``
and labels its ``TunerResult`` itself. The GA tuners share one generation
loop: ``cotune_run`` co-evolves an auxiliary proposition with two
configuration populations; ``ga_run`` runs the loop without co-evolution
(GA_p) or on one population ranked by negated performance ``-v`` (GA_r).
``random_run`` is the uniform sampling sanity baseline. ``run_tuner`` runs
one of the ``TUNER_KINDS``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from itertools import islice

from . import reqevolve
from ._sums import left_sum
from .entropy import differential_entropy
from .ga import Member, make_offspring, preserve_top
from .landscape import BudgetExhausted, BudgetMeter, Landscape, measure
from .requirement import Proposition


@dataclass
class TunerParams:
    """The search parameters of one tuner run."""

    budget: int = 300
    population_size: int = 10
    generations: int = 30
    stagnation_cap: int = 3
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    early_stop: bool = True
    # ablation switches for the three requirement-evolution cases
    enable_case0: bool = True
    enable_case1: bool = True
    enable_case2: bool = True

    def __post_init__(self):
        for keys, types, what in (
                (("budget", "population_size", "generations",
                  "stagnation_cap"), int, "an integer"),
                (("mutation_rate", "crossover_rate"), (int, float),
                 "a number"),
                (("early_stop", "enable_case0", "enable_case1",
                  "enable_case2"), bool, "true or false")):
            for key in keys:
                value = getattr(self, key)
                # a bool is an int, but only a switch takes one
                if not isinstance(value, types) or (
                        isinstance(value, bool) and types is not bool):
                    raise TypeError(f"{key} must be {what}, not {value!r}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    budget_used: int
    best_pt_score: float
    guiding_proposition: str
    case_fired: str
    theta: float
    entropy_pa: float


@dataclass
class TunerResult:
    tuner: str
    best_config: tuple
    best_score: float
    trajectory: list = field(default_factory=list)
    events: list = field(default_factory=list)
    budget_consumed: int = 0


def compute_theta(mean_pt_a, mean_pt_t, improvement_a, improvement_t):
    """Probability of letting the auxiliary proposition guide this iteration.

    Each weight is a population's mean p_t score plus the progress of its
    own proposition (floored at 0). The tuner passes 0.0 for both: theta is
    drawn on the populations the previous iteration preserved, so neither
    best under its own proposition has moved since.
    """
    w_a = mean_pt_a + max(0.0, improvement_a)
    w_t = mean_pt_t + max(0.0, improvement_t)
    if w_a == 0.0 and w_t == 0.0:
        return 1.0
    return w_a / (w_a + w_t)


def _mean(xs):
    return left_sum(xs) / len(xs)


def _sample_distinct_configs(landscape, n, rng):
    configs, seen = [], set()
    attempts = 0
    limit = min(n, landscape.space_size)
    while len(configs) < limit and attempts < 1000 * n:
        c = landscape.random_config(rng)
        if c not in seen:
            seen.add(c)
            configs.append(c)
        attempts += 1
    while len(configs) < n:  # tiny spaces: pad with repeats, cache makes it free
        configs.append(landscape.random_config(rng))
    return configs


def _initial_sample(landscape, params, seed, meter=None):
    """(rng, meter, [(config, perf)]) of a run's measured initial sample."""
    if params.budget < 2 * params.population_size:
        raise ValueError("budget is smaller than the initialization cost")
    rng = random.Random(seed)
    meter = meter or BudgetMeter(params.budget)
    configs = _sample_distinct_configs(landscape, params.population_size, rng)
    return rng, meter, [(c, measure(landscape, meter, c)) for c in configs]


def _measure_until_exhausted(landscape, meter, configs):
    """(config, perf) pairs in order, up to the first the budget refuses."""
    measured = []
    for config in configs:
        try:
            measured.append((config, measure(landscape, meter, config)))
        except BudgetExhausted:
            break
    return measured


def _evolve(landscape, p_t, params, seed, label, meter=None, raw=False):
    """The generation loop of CoTune, GA_p and GA_r.

    pop_t's fitness is the p_t score, or ``-v`` for the raw GA (GA_r), which
    runs on pop_t alone: no theta draw, no pop_a and no cases. The best on
    target is the history's first fittest configuration, taken when p_t
    scores it above the best so far.
    """
    rng, meter, sample = _initial_sample(landscape, params, seed, meter)
    n = params.population_size
    p_a = p_t

    result = TunerResult(label, None, float("-inf"))

    # each configuration gets its fitness once, when first measured; pop_t,
    # theta and the best tracker read it
    fit = {}  # config -> its fitness, in measurement order
    fittest = None  # (config, fitness): the first fittest of the history

    def score_measured():
        nonlocal fittest
        # a tie keeps the earlier configuration, as max over the whole
        # history in measurement order would
        for config, perf in islice(meter.cache.items(), len(fit), None):
            f = fit[config] = -perf if raw else p_t.evaluate(perf)
            if fittest is None or f > fittest[1]:
                fittest = (config, f)

    def adopt_fittest():  # -> whether the best on target improved
        config, score = fittest
        if raw:  # the first lowest value, scored with p_t
            score = p_t.evaluate(meter.cache[config])
        if score > result.best_score:
            result.best_config, result.best_score = config, score
            return True
        return False

    score_measured()
    pop_t = [Member(c, v, fit[c], i) for i, (c, v) in enumerate(sample)]
    # pop_a's fitness is always its score under p_a: p_a starts as p_t, and
    # pop_a is refitted whenever p_a changes
    pop_a = list(pop_t)
    order = len(sample)

    # a firing case's event, its requirement evolution and the trajectory
    # rows score many of the same samples (tuples); each is scored once per
    # run, through this module's differential_entropy as it is at run start
    entropy = functools.cache(differential_entropy)

    def entropy_pa():
        return entropy(tuple(m.fitness for m in pop_a))

    stagnation = 0
    pa_changed_last = False

    def record(iteration, guiding, case, theta):
        result.trajectory.append(TrajectoryRow(
            iteration, meter.consumed, result.best_score,
            guiding, case or "", theta, 0.0 if raw else entropy_pa(),
        ))

    adopt_fittest()
    record(0, "raw" if raw else "", "", 0.0)
    stop = params.early_stop and result.best_score == 1.0
    iteration = 0
    while (not stop and meter.consumed + n < params.budget
           and iteration < params.generations):
        iteration += 1

        if raw:
            theta, guiding, source = 0.0, "raw", pop_t
        else:
            # (a) guidance probability from both populations' standing
            theta = compute_theta(
                _mean([fit[m.config] for m in pop_a]),
                _mean([m.fitness for m in pop_t]),
                0.0, 0.0,
            )
            use_aux = rng.random() < theta or pa_changed_last
            guiding = "p_a" if use_aux else "p_t"
            source = pop_a if use_aux else pop_t

        # (b) evolve new configurations under the chosen population
        offspring = make_offspring(source, landscape.options, params, rng)
        newcomers = _measure_until_exhausted(landscape, meter, offspring)
        score_measured()

        # (c) elitist preservation of each population
        pop_t = preserve_top(
            pop_t + [Member(c, v, fit[c], order + i)
                     for i, (c, v) in enumerate(newcomers)], n)
        if not raw:
            pop_a = preserve_top(
                pop_a + [Member(c, v, p_a.evaluate(v), order + i)
                         for i, (c, v) in enumerate(newcomers)], n)
        order += len(newcomers)

        # (d) evolve the auxiliary proposition when a case fires
        pa_changed_last = False
        case = None if raw else reqevolve.detect_case(
            pop_t, pop_a, stagnation, params.stagnation_cap,
            enable=(params.enable_case0, params.enable_case1, params.enable_case2),
        )
        if case is not None:
            perfs_a = [m.perf for m in pop_a]
            old_p_a = p_a
            old_entropy = entropy_pa()
            outcome = reason = None  # a reason keeps p_a, flagged
            try:
                if case == reqevolve.CASE0:
                    outcome = reqevolve.relax_case0(
                        p_a, perfs_a, rng, entropy=entropy)
                elif case == reqevolve.CASE1:
                    outcome = reqevolve.tighten_case1(
                        p_a, perfs_a, rng, entropy=entropy)
                elif len({m.fitness for m in pop_a}) == 1:
                    # p_a (whose scores pop_a's fitness holds) is at the
                    # sentinel: the escape could only run to its cap
                    reason = "p_a scores pop_a with zero variance; escape skipped"
                else:
                    outcome = reqevolve.escape_case2(
                        p_a, perfs_a, n, rng, entropy=entropy)
                    # a result that scores pop_a flat discriminates nothing
                    if max(outcome.scores) == min(outcome.scores):
                        reason = (f"escape result {outcome.proposition.encode()}"
                                  " scores pop_a with zero variance; rejected")
            except reqevolve.RequirementEvolutionError as exc:
                result.events.append({
                    "iteration": iteration, "case": case, "error": str(exc)})
            else:
                if reason is None and outcome.proposition != p_a:
                    p_a = outcome.proposition
                    pop_a = [Member(m.config, m.perf, f, m.order)
                             for m, f in zip(pop_a, outcome.scores)]
                    pa_changed_last = True
                event = {
                    "iteration": iteration,
                    "case": case,
                    "flagged": reason is not None or not outcome.by_entropy,
                    "old_encoding": old_p_a.encode(),
                    "new_encoding": p_a.encode(),
                    "old_integral": old_p_a.integral(),
                    "new_integral": p_a.integral(),
                    "old_entropy": old_entropy,
                    "new_entropy": entropy_pa(),
                }
                if reason is not None:
                    event["reason"] = reason
                result.events.append(event)

        # (e) best-on-target tracking and stagnation accounting
        if adopt_fittest():
            stagnation = 0
            stop = params.early_stop and result.best_score == 1.0
        else:
            stagnation += 1
        record(iteration, guiding, case, theta)

    result.budget_consumed = meter.consumed
    return result


def cotune_run(landscape: Landscape, p_t: Proposition, params: TunerParams,
               seed: int, label: str = "CoTune",
               meter: BudgetMeter | None = None) -> TunerResult:
    """Co-evolutionary tuning of configurations and an auxiliary proposition.

    Deterministic for a fixed seed. Disabling all three cases turns this into
    the plain requirement-guided GA (identical trace for the same seed).
    """
    return _evolve(landscape, p_t, params, seed, label, meter)


def ga_run(landscape: Landscape, p_t: Proposition, params: TunerParams,
           seed: int, label: str | None = None,
           objective: str = "satisfaction") -> TunerResult:
    """GA baselines on CoTune's generation loop: the requirement-guided GA_p
    is ``cotune_run`` with every case disabled; the raw GA_r is the loop on
    one population ranked by negated performance ``-v``, and reports the
    p_t score of the first lowest value it measured."""
    if objective == "satisfaction":
        no_cases = replace(
            params, enable_case0=False, enable_case1=False, enable_case2=False)
        return cotune_run(landscape, p_t, no_cases, seed, label=label or "GA_p")
    if objective != "raw":
        raise ValueError(f"unknown objective {objective!r}")
    return _evolve(landscape, p_t, params, seed, label or "GA_r", raw=True)


def random_run(landscape: Landscape, p_t: Proposition, params: TunerParams,
               seed: int, label: str = "Random") -> TunerResult:
    """Uniform random sampling of distinct configurations, up to
    ``params.budget`` of them; only ``budget`` and ``early_stop`` apply."""
    if params.budget < 1:
        raise ValueError("budget must be positive")
    rng = random.Random(seed)
    meter = BudgetMeter(params.budget)
    result = TunerResult(label, None, float("-inf"))
    seen = set()
    attempts = 0
    while not meter.exhausted and len(seen) < landscape.space_size:
        config = landscape.random_config(rng)
        attempts += 1
        if config in seen and attempts < 10000 * meter.cap:
            continue
        seen.add(config)
        perf = measure(landscape, meter, config)
        score = p_t.evaluate(perf)
        if score > result.best_score:
            result.best_config, result.best_score = config, score
        result.trajectory.append(TrajectoryRow(
            meter.consumed, meter.consumed, result.best_score,
            "random", "", 0.0, 0.0))
        if params.early_stop and result.best_score == 1.0:
            break
    result.budget_consumed = meter.consumed
    return result


# kind -> (default label, entry point, keyword arguments). run_tuner looks the
# entry point up by name at call time, so a wrapper installed later on this
# module's attribute (as the benchmark's tracer does) sees every run.
TUNER_KINDS = {
    "cotune": ("CoTune", "cotune_run", {}),
    "ga_p": ("GA_p", "ga_run", {"objective": "satisfaction"}),
    "ga_r": ("GA_r", "ga_run", {"objective": "raw"}),
    "random": ("Random", "random_run", {}),
}


def run_tuner(kind: str, landscape: Landscape, p_t: Proposition,
              params: TunerParams, seed: int, label: str) -> TunerResult:
    """Run the tuner of one ``TUNER_KINDS`` kind under the given label."""
    _, entry, kwargs = TUNER_KINDS[kind]
    return globals()[entry](landscape, p_t, params, seed, label=label, **kwargs)
