"""The GA, configuration and mutation draws consume the rng as the
``randrange``/``choice`` code they replaced did.

Every tuner trajectory depends on the exact stream of draws, so each
function is checked against a verbatim copy of the code it replaced: the same
outputs and, after them, the same ``rng.getstate()``.
"""

import math
import random

import numpy as np
import pytest

from cotune import reqevolve
from cotune.ga import Member, _randbelow, make_offspring
from cotune.landscape import Landscape, OptionSpec
from cotune.requirement import Fragment, Proposition, validate
from cotune.tuners import TunerParams

DOMAIN_SIZES = (1, 2, 3, 4, 5, 8, 9)
POPULATION_SIZES = (2, 3, 10, 17)
MUTATION_RATES = (0, 0.1, 1)


# -- the replaced code, verbatim ---------------------------------------------

def ref_tournament_select(members, rng):
    if not members:
        raise ValueError("empty population")
    a = members[rng.randrange(len(members))]
    b = members[rng.randrange(len(members))]
    if a.fitness > b.fitness:
        return a
    if b.fitness > a.fitness:
        return b
    return a if rng.random() < 0.5 else b


def ref_uniform_crossover(a, b, rate, rng):
    if len(a) != len(b):
        raise ValueError("parents come from different spaces")
    if rng.random() >= rate:
        return tuple(a), tuple(b)
    c1, c2 = [], []
    for ga, gb in zip(a, b):
        if rng.random() < 0.5:
            c1.append(ga)
            c2.append(gb)
        else:
            c1.append(gb)
            c2.append(ga)
    return tuple(c1), tuple(c2)


def ref_mutate(config, rate, rng, options):
    genes = list(config)
    for i, opt in enumerate(options):
        size = len(opt.domain)
        if size < 2:
            continue
        if rng.random() < rate:
            pick = rng.randrange(size - 1)
            if pick >= genes[i]:
                pick += 1
            genes[i] = pick
    return tuple(genes)


def ref_make_offspring(members, options, params, rng):
    n = params.population_size
    offspring, seen = [], set()
    attempts = 0
    while len(offspring) < n:
        p1 = ref_tournament_select(members, rng)
        p2 = ref_tournament_select(members, rng)
        c1, c2 = ref_uniform_crossover(p1.config, p2.config,
                                       params.crossover_rate, rng)
        for child in (
            ref_mutate(c1, params.mutation_rate, rng, options),
            ref_mutate(c2, params.mutation_rate, rng, options),
        ):
            if len(offspring) >= n:
                break
            if child in seen and attempts < 20 * n:
                continue
            seen.add(child)
            offspring.append(child)
        attempts += 1
    return offspring


def ref_random_config(sizes, rng):
    return tuple(rng.randrange(size) for size in sizes)


def ref_switch_kind(prop, idx, new_kind):
    frags = list(prop.fragments)
    frag = frags[idx]
    if new_kind == "E":
        new = Fragment("E", frag.v_lo, frag.v_hi, frag.s_lo, frag.s_lo)
    elif new_kind == "S":
        target = frags[idx + 1].s_lo if idx + 1 < len(frags) else 0.0
        new = Fragment("S", frag.v_lo, frag.v_hi, frag.s_lo, target)
    else:
        new = Fragment("G", frag.v_lo, frag.v_hi, frag.s_lo, 1.0)
    frags[idx] = new
    return Proposition(tuple(frags))


def ref_move_boundary(prop, j, rng):
    left = prop.fragments[j]
    right = prop.fragments[j + 1]
    new_b = rng.uniform(left.v_lo, right.v_hi)
    if not left.v_lo < new_b < right.v_hi:
        return prop
    frags = list(prop.fragments)
    frags[j] = Fragment(left.kind, left.v_lo, new_b, left.s_lo, left.s_hi)
    frags[j + 1] = Fragment(right.kind, new_b, right.v_hi, right.s_lo, right.s_hi)
    return Proposition(tuple(frags))


def ref_mutate_proposition(p_a, rng):
    for _ in range(reqevolve.MUTATION_ATTEMPT_CAP):
        candidate = p_a
        u = rng.random()
        can_move = len(candidate.fragments) >= 2
        if not can_move:
            do_switch, do_move = True, False
        else:
            do_switch = u < 1 / 3 or u >= 2 / 3
            do_move = u >= 1 / 3
        if do_switch:
            idx = rng.randrange(len(candidate.fragments))
            kind = candidate.fragments[idx].kind
            new_kind = rng.choice([k for k in ("G", "S", "E") if k != kind])
            candidate = ref_switch_kind(candidate, idx, new_kind)
        if do_move:
            j = rng.randrange(len(candidate.fragments) - 1)
            candidate = ref_move_boundary(candidate, j, rng)
        if candidate != p_a and not validate(candidate):
            return candidate
    raise reqevolve.RequirementEvolutionError(
        f"no valid proposition mutant found in "
        f"{reqevolve.MUTATION_ATTEMPT_CAP} attempts"
    )


# -- helpers -----------------------------------------------------------------

def both(seed, draw, ref_draw):
    """(outputs, final rng state) of draw and of ref_draw from one seed."""
    results = []
    for fn in (draw, ref_draw):
        rng = random.Random(seed)
        try:
            out = fn(rng)
        except reqevolve.RequirementEvolutionError as exc:
            out = ("error", str(exc))
        results.append((out, rng.getstate()))
    return results


def options_of(sizes):
    return [OptionSpec(f"o{i}", tuple(range(size)))
            for i, size in enumerate(sizes)]


def spaces():
    """Option-size lists: one size throughout, and every size mixed."""
    for size in DOMAIN_SIZES:
        yield (size,) * 4
    yield DOMAIN_SIZES
    yield tuple(reversed(DOMAIN_SIZES))


def population(sizes, count, rng):
    # few distinct fitnesses, so tournaments tie and draw their coin
    return [Member(tuple(rng.randrange(s) for s in sizes), float(i),
                   rng.choice((0.0, 0.5, 1.0)), i) for i in range(count)]


def propositions():
    """Valid propositions of 1 to 5 fragments over every kind."""
    yield Proposition((Fragment("S", 0.0, 10.0, 1.0, 0.0),))
    yield Proposition((Fragment("E", 0.0, 10.0, 0.7, 0.7),))
    yield Proposition((Fragment("G", 0.0, 10.0, 0.4, 0.4),))
    yield Proposition((Fragment("S", 0.0, 4.0, 1.0, 0.5),
                       Fragment("E", 4.0, 10.0, 0.5, 0.5)))
    yield Proposition((Fragment("E", -2.0, 1.0, 1.0, 1.0),
                       Fragment("S", 1.0, 3.0, 1.0, 0.2),
                       Fragment("E", 3.0, 9.0, 0.0, 0.0)))
    yield Proposition(tuple(
        Fragment(kind, float(i), float(i + 1), 1.0 - i / 5, 1.0 - (i + 1) / 5)
        if kind == "S" else
        Fragment(kind, float(i), float(i + 1), 1.0 - i / 5, 1.0 - i / 5)
        for i, kind in enumerate("SESSE")))


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 71))
def test_randbelow_draws_as_randrange(n):
    ours, theirs = random.Random(n), random.Random(n)
    got = [_randbelow(ours.getrandbits, n) for _ in range(200)]
    assert got == [theirs.randrange(n) for _ in range(200)]
    assert ours.getstate() == theirs.getstate()


def test_randbelow_draws_as_choice():
    seq = ("G", "S", "E")
    for n in range(1, 4):
        ours, theirs = random.Random(n), random.Random(n)
        assert ([seq[_randbelow(ours.getrandbits, n)] for _ in range(100)]
                == [theirs.choice(seq[:n]) for _ in range(100)])
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("rate", MUTATION_RATES)
@pytest.mark.parametrize("count", POPULATION_SIZES)
def test_make_offspring_draws_as_before(count, rate):
    for seed, sizes in enumerate(spaces()):
        options = options_of(sizes)
        members = population(sizes, count, random.Random(seed))
        for crossover_rate in (0.0, 0.9, 1.0):
            params = TunerParams(population_size=count, mutation_rate=rate,
                                 crossover_rate=crossover_rate)
            ours, ref = both(
                seed,
                lambda rng: [make_offspring(members, options, params, rng)
                             for _ in range(5)],
                lambda rng: [ref_make_offspring(members, options, params, rng)
                             for _ in range(5)])
            assert ours == ref, (sizes, crossover_rate)


def test_random_config_draws_as_before():
    for seed, sizes in enumerate(spaces()):
        land = Landscape(options_of(sizes), np.zeros(math.prod(sizes)))
        ours, ref = both(
            seed,
            lambda rng: [land.random_config(rng) for _ in range(50)],
            lambda rng: [ref_random_config(sizes, rng) for _ in range(50)])
        assert ours == ref, sizes


@pytest.mark.parametrize("prop", list(propositions()),
                         ids=lambda p: "".join(f.kind for f in p.fragments))
def test_mutate_proposition_draws_as_before(prop):
    assert not validate(prop)
    for seed in range(40):
        ours, ref = both(
            seed,
            lambda rng: [reqevolve.mutate_proposition(prop, rng)
                         for _ in range(8)],
            lambda rng: [ref_mutate_proposition(prop, rng) for _ in range(8)])
        assert ours == ref, seed
