"""Genetic-algorithm machinery for configurations.

Binary tournament mating, uniform crossover, random reset mutation and
elitist preservation. Everything is deterministic given the run's
random.Random instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Member:
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


def tournament_select(members, rng: random.Random) -> Member:
    """Binary tournament with replacement; ties resolved by a fair coin."""
    if not members:
        raise ValueError("empty population")
    getrandbits, n = rng.getrandbits, len(members)
    a = members[_randbelow(getrandbits, n)]
    b = members[_randbelow(getrandbits, n)]
    if a.fitness > b.fitness:
        return a
    if b.fitness > a.fitness:
        return b
    return a if rng.random() < 0.5 else b


def uniform_crossover(a, b, rate: float, rng: random.Random):
    """With probability rate, swap each gene independently; else copy parents."""
    if len(a) != len(b):
        raise ValueError("parents come from different spaces")
    if rng.random() >= rate:
        return tuple(a), tuple(b)
    c1, c2 = [], []
    rand = rng.random
    for ga, gb in zip(a, b):
        if rand() < 0.5:
            c1.append(ga)
            c2.append(gb)
        else:
            c1.append(gb)
            c2.append(ga)
    return tuple(c1), tuple(c2)


def mutate(config, rate: float, rng: random.Random, options) -> tuple:
    """Reset each gene, with probability rate, to a different domain value."""
    genes = list(config)
    rand, getrandbits = rng.random, rng.getrandbits
    for i, opt in enumerate(options):
        size = len(opt.domain)
        if size < 2:
            continue
        if rand() < rate:
            pick = _randbelow(getrandbits, size - 1)
            if pick >= genes[i]:
                pick += 1
            genes[i] = pick
    return tuple(genes)


def make_offspring(members, options, params, rng: random.Random):
    """Produce population_size offspring via tournament/crossover/mutation.

    ``params`` is the run's ``tuners.TunerParams``; its population_size,
    crossover_rate and mutation_rate apply.

    Offspring are deduplicated within the batch (revisiting history is fine,
    the measurement cache makes it free); if the space is too small to fill
    the batch with distinct children, duplicates are admitted as a fallback.
    """
    n = params.population_size
    offspring, seen = [], set()
    attempts = 0
    while len(offspring) < n:
        p1 = tournament_select(members, rng)
        p2 = tournament_select(members, rng)
        c1, c2 = uniform_crossover(p1.config, p2.config, params.crossover_rate, rng)
        for child in (
            mutate(c1, params.mutation_rate, rng, options),
            mutate(c2, params.mutation_rate, rng, options),
        ):
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
    ranked = sorted(candidates, key=lambda m: (-m.fitness, m.order))
    return ranked[:n]
