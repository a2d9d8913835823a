"""Tests for the configuration GA operators."""

import random

import pytest

from cotune.ga import (
    Member,
    make_offspring,
    mutate,
    preserve_top,
    tournament_select,
    uniform_crossover,
)
from cotune.landscape import OptionSpec
from cotune.tuners import TunerParams

OPTIONS = [OptionSpec("a", (0, 1, 2)), OptionSpec("b", (0, 1)),
           OptionSpec("c", (0, 1, 2, 3))]


def make_pop(fitnesses):
    return [Member((i % 3, i % 2, i % 4), float(i), f, i)
            for i, f in enumerate(fitnesses)]


class TestParams:
    def test_defaults(self):
        p = TunerParams()
        assert p.mutation_rate == 0.1
        assert p.crossover_rate == 0.9
        assert p.population_size == 10
        assert p.generations == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            TunerParams(mutation_rate=1.5)
        with pytest.raises(ValueError):
            TunerParams(crossover_rate=1.5)
        with pytest.raises(ValueError):
            TunerParams(population_size=1)

    @pytest.mark.parametrize("field, value", [
        ("budget", "60"), ("budget", 60.0), ("population_size", True),
        ("generations", 2.5), ("stagnation_cap", None),
        ("mutation_rate", "0.1"), ("crossover_rate", True),
        ("early_stop", 1), ("enable_case0", "no"), ("enable_case2", None)])
    def test_field_of_the_wrong_type(self, field, value):
        with pytest.raises(TypeError, match=field):
            TunerParams(**{field: value})

    def test_rates_take_an_int(self):
        params = TunerParams(mutation_rate=1, crossover_rate=0)
        assert (params.mutation_rate, params.crossover_rate) == (1, 0)


class TestTournament:
    def test_better_wins_three_quarters(self):
        # two members, one strictly better: the better one wins whenever it
        # is drawn at least once and on half the self-draws of the worse one
        pop = make_pop([0.2, 0.8])
        rng = random.Random(17)
        wins = sum(
            tournament_select(pop, rng).fitness == 0.8 for _ in range(20000))
        assert wins / 20000 == pytest.approx(0.75, abs=0.02)

    def test_tie_is_fair_coin(self):
        pop = make_pop([0.5, 0.5])
        rng = random.Random(4)
        first = sum(
            tournament_select(pop, rng).order == 0 for _ in range(20000))
        assert first / 20000 == pytest.approx(0.5, abs=0.02)

    def test_empty_population(self):
        with pytest.raises(ValueError):
            tournament_select([], random.Random(0))


class TestCrossover:
    def test_children_are_complementary(self):
        rng = random.Random(11)
        a, b = (0, 0, 0), (2, 1, 3)
        c1, c2 = uniform_crossover(a, b, 1.0, rng)
        for g1, g2, ga, gb in zip(c1, c2, a, b):
            assert {g1, g2} == {ga, gb}

    def test_rate_zero_copies_parents(self):
        rng = random.Random(1)
        a, b = (0, 0, 0), (2, 1, 3)
        assert uniform_crossover(a, b, 0.0, rng) == (a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            uniform_crossover((0,), (0, 1), 0.9, random.Random(0))


class TestMutate:
    def test_rate_one_always_changes_every_gene(self):
        rng = random.Random(5)
        for _ in range(200):
            config = (1, 0, 2)
            mutant = mutate(config, 1.0, rng, OPTIONS)
            for old, new, opt in zip(config, mutant, OPTIONS):
                assert new != old
                assert 0 <= new < len(opt.domain)

    def test_rate_zero_is_identity(self):
        assert mutate((1, 0, 2), 0.0, random.Random(0), OPTIONS) == (1, 0, 2)

    def test_single_value_domain_untouched(self):
        options = [OptionSpec("only", (7,))]
        assert mutate((0,), 1.0, random.Random(0), options) == (0,)

    def test_reset_values_uniform_over_others(self):
        rng = random.Random(23)
        options = [OptionSpec("a", (0, 1, 2, 3))]
        counts = {0: 0, 2: 0, 3: 0}
        for _ in range(30000):
            (g,) = mutate((1,), 1.0, rng, options)
            counts[g] += 1
        for c in counts.values():
            assert c / 30000 == pytest.approx(1 / 3, abs=0.02)


class TestOffspring:
    def test_batch_size_and_domains(self):
        pop = make_pop([0.1, 0.5, 0.9, 0.3])
        params = TunerParams(population_size=10)
        rng = random.Random(2)
        batch = make_offspring(pop, OPTIONS, params, rng)
        assert len(batch) == 10
        for config in batch:
            for idx, opt in zip(config, OPTIONS):
                assert 0 <= idx < len(opt.domain)

    def test_in_batch_dedup(self):
        pop = make_pop([0.1, 0.5, 0.9, 0.3])
        params = TunerParams(population_size=10)
        batch = make_offspring(pop, OPTIONS, params, random.Random(2))
        assert len(set(batch)) == 10

    def test_tiny_space_falls_back_to_duplicates(self):
        options = [OptionSpec("a", (0, 1))]
        pop = [Member((0,), 0.0, 0.5, 0), Member((1,), 1.0, 0.4, 1)]
        params = TunerParams(population_size=10)
        batch = make_offspring(pop, options, params, random.Random(3))
        assert len(batch) == 10  # only 2 distinct configs exist

    def test_deterministic(self):
        pop = make_pop([0.1, 0.5, 0.9, 0.3])
        params = TunerParams()
        a = make_offspring(pop, OPTIONS, params, random.Random(6))
        b = make_offspring(pop, OPTIONS, params, random.Random(6))
        assert a == b


class TestPreserveTop:
    def test_keeps_best_n(self):
        pop = make_pop([0.1, 0.9, 0.5, 0.7, 0.3])
        top = preserve_top(pop, 2)
        assert [m.fitness for m in top] == [0.9, 0.7]

    def test_tie_break_by_measurement_order(self):
        members = [Member((0, 0, 0), 0.0, 0.5, 5),
                   Member((1, 0, 0), 0.0, 0.5, 2),
                   Member((2, 0, 0), 0.0, 0.9, 9)]
        top = preserve_top(members, 2)
        assert top[0].order == 9
        assert top[1].order == 2
