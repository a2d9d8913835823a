"""Genetic-algorithm machinery for configurations.

Binary tournament mating, uniform crossover, random reset mutation and
elitist preservation. Everything is deterministic given the run's
random.Random instance.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import NamedTuple


class Member(NamedTuple):
    """An evaluated configuration; order is its measurement sequence number."""

    config: tuple
    perf: float
    fitness: float
    order: int


def _randbelow(getrandbits, n: int) -> int:
    """rng.randrange(n), or rng.choice's index into n items, for n >= 1,
    drawn as CPython's Random draws it: n.bit_length() bits, redrawn while
    they reach n. Takes the rng's bound getrandbits, which is cheaper than
    either method's argument handling."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# The operators' draws, on the rng's bound methods. make_offspring binds them
# once per batch; the public operators bind them once per call.

def _tournament(members, rand, getrandbits) -> Member:
    n = len(members)
    a = members[_randbelow(getrandbits, n)]
    b = members[_randbelow(getrandbits, n)]
    if a.fitness > b.fitness:
        return a
    if b.fitness > a.fitness:
        return b
    return a if rand() < 0.5 else b


def _crossover(a: tuple, b: tuple, rate: float, rand) -> tuple:
    if len(a) != len(b):
        raise ValueError("parents come from different spaces")
    if rand() >= rate:
        return a, b
    c1, c2 = [], []
    for ga, gb in zip(a, b):
        if rand() < 0.5:
            c1.append(ga)
            c2.append(gb)
        else:
            c1.append(gb)
            c2.append(ga)
    return tuple(c1), tuple(c2)


def _mutable_genes(options) -> list:
    """(index, domain size - 1) of each option with two or more values:
    the gene and the number of values its reset draws from."""
    genes = []
    for i, opt in enumerate(options):
        others = len(opt.domain) - 1
        if others:
            genes.append((i, others))
    return genes


def _mutate(config: tuple, genes, rate: float, rand, getrandbits) -> tuple:
    """config itself when no gene is reset, else a new tuple."""
    reset = None
    for i, others in genes:
        if rand() < rate:
            pick = _randbelow(getrandbits, others)
            if reset is None:
                reset = list(config)
            if pick >= reset[i]:
                pick += 1
            reset[i] = pick
    return config if reset is None else tuple(reset)


def tournament_select(members, rng: random.Random) -> Member:
    """Binary tournament with replacement; ties resolved by a fair coin."""
    if not members:
        raise ValueError("empty population")
    return _tournament(members, rng.random, rng.getrandbits)


def uniform_crossover(a, b, rate: float, rng: random.Random):
    """With probability rate, swap each gene independently; else copy parents."""
    return _crossover(tuple(a), tuple(b), rate, rng.random)


def mutate(config, rate: float, rng: random.Random, options) -> tuple:
    """Reset each gene, with probability rate, to a different domain value."""
    return _mutate(tuple(config), _mutable_genes(options), rate, rng.random,
                   rng.getrandbits)


def make_offspring(members, options, params, rng: random.Random):
    """Produce population_size offspring via tournament/crossover/mutation.

    ``params`` is the run's ``tuners.TunerParams``; its population_size,
    crossover_rate and mutation_rate apply. Each pair of children draws as
    two tournament_select calls, one uniform_crossover and two mutate calls.

    Offspring are deduplicated within the batch (revisiting history is fine,
    the measurement cache makes it free); if the space is too small to fill
    the batch with distinct children, duplicates are admitted as a fallback.
    """
    if not members:
        raise ValueError("empty population")
    n = params.population_size
    crossover_rate, mutation_rate = params.crossover_rate, params.mutation_rate
    rand, getrandbits = rng.random, rng.getrandbits
    genes = _mutable_genes(options)
    offspring, seen = [], set()
    attempts = 0
    while len(offspring) < n:
        p1 = _tournament(members, rand, getrandbits)
        p2 = _tournament(members, rand, getrandbits)
        c1, c2 = _crossover(p1.config, p2.config, crossover_rate, rand)
        # both children are mutated before either is kept
        for child in (_mutate(c1, genes, mutation_rate, rand, getrandbits),
                      _mutate(c2, genes, mutation_rate, rand, getrandbits)):
            if len(offspring) >= n:
                break
            if child in seen and attempts < 20 * n:
                continue
            seen.add(child)
            offspring.append(child)
        attempts += 1
    return offspring


def preserve_top(candidates, n: int):
    """Keep the n highest-fitness members; ties break by measurement order."""
    # two stable sorts give the order of the key (-fitness, order)
    ranked = sorted(candidates, key=attrgetter("order"))
    ranked.sort(key=attrgetter("fitness"), reverse=True)
    return ranked[:n]
