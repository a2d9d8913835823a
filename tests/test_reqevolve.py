"""Tests for auxiliary-proposition evolution."""

import itertools
import random

import pytest

from cotune.entropy import MIN_ENTROPY, differential_entropy
from cotune.ga import Member
from cotune.requirement import Fragment, Proposition, validate
from cotune.reqevolve import (
    CASE0,
    CASE1,
    CASE2,
    RequirementEvolutionError,
    detect_case,
    escape_case2,
    mutate_proposition,
    relax_case0,
    tighten_case1,
)


def prop_strict():
    # satisfied only below 1, zero from 2 on
    return Proposition((
        Fragment("E", 0.0, 1.0, 1.0, 1.0),
        Fragment("S", 1.0, 2.0, 1.0, 0.0),
        Fragment("E", 2.0, 10.0, 0.0, 0.0),
    ))


def prop_relaxed():
    return Proposition((
        Fragment("E", 0.0, 6.0, 1.0, 1.0),
        Fragment("S", 6.0, 10.0, 1.0, 0.0),
    ))


def pop_of(prop, perfs):
    return [Member((i,), v, prop.evaluate(v), i) for i, v in enumerate(perfs)]


def replay_escape(p, perfs, pool_target, rng):
    """(proposition, by_entropy) of an independent replay of the escape's
    pool process on rng's draw stream, every draw scored."""
    h_current = differential_entropy([p.evaluate(v) for v in perfs])
    pool = []
    for attempt in range(50 * pool_target):
        m = mutate_proposition(p, rng)
        h = differential_entropy([m.evaluate(v) for v in perfs])
        pool.append((h, attempt, m))
        if len(pool) > pool_target:
            pool.remove(max(pool, key=lambda e: (e[0], -e[1])))
        if len(pool) >= pool_target and min(e[0] for e in pool) < h_current:
            capped = False
            break
    else:
        capped = True
    h, _, best = min(pool, key=lambda e: (e[0], e[1]))
    return best, not capped and h < h_current


class TestDetectCase:
    def test_case0_needs_both_populations_zero(self):
        p = prop_strict()
        zeros = pop_of(p, [5.0, 6.0, 9.0])
        ones = pop_of(p, [0.5, 0.2, 0.1])
        assert detect_case(zeros, zeros, 0, 3) == CASE0
        assert detect_case(ones, zeros, 0, 3) is None

    def test_case1_on_auxiliary_only(self):
        p = prop_strict()
        sat = pop_of(p, [0.5, 0.2, 0.9])
        mixed = pop_of(p, [0.5, 5.0, 9.0])
        assert detect_case(mixed, sat, 0, 3) == CASE1

    def test_case2_on_stagnation(self):
        p = prop_strict()
        mixed = pop_of(p, [0.5, 5.0, 9.0])
        assert detect_case(mixed, mixed, 3, 3) == CASE2
        assert detect_case(mixed, mixed, 2, 3) is None

    def test_priority_case0_first(self):
        p = prop_strict()
        zeros = pop_of(p, [5.0, 6.0, 9.0])
        assert detect_case(zeros, zeros, 10, 3) == CASE0

    def test_ablation_flags(self):
        p = prop_strict()
        zeros = pop_of(p, [5.0, 6.0, 9.0])
        assert detect_case(zeros, zeros, 10, 3,
                           enable=(False, True, True)) == CASE2
        assert detect_case(zeros, zeros, 0, 3,
                           enable=(False, False, False)) is None


class TestRelax:
    def test_spec_example_scores_spread(self):
        p = prop_strict()
        perfs = [3.0, 4.0, 5.0, 6.0, 8.0]
        assert all(p.evaluate(v) == 0.0 for v in perfs)
        out = relax_case0(p, perfs, random.Random(1))
        new_scores = [out.proposition.evaluate(v) for v in perfs]
        assert any(s > 0.0 for s in new_scores)
        assert out.proposition.integral() > p.integral()

    def test_pinned_at_v_max_is_flagged(self):
        p = Proposition((
            Fragment("E", 0.0, 6.0, 1.0, 1.0),
            Fragment("S", 6.0, 10.0, 1.0, 0.0),
        ))
        # one huge move pins the boundary; entropy of all-1 scores stays
        # degenerate so the loop ends at the pin
        out = relax_case0(p, [1.0, 2.0, 3.0], random.Random(0))
        if not out.by_entropy:
            assert out.proposition.fragments[-1].v_hi == 10.0 or \
                out.proposition.fragments[1].v_hi == 10.0

    def test_no_distinguishable_fragment(self):
        p = Proposition((Fragment("E", 0.0, 10.0, 0.0, 0.0),))
        with pytest.raises(RequirementEvolutionError):
            relax_case0(p, [1.0, 2.0], random.Random(0))

    def test_tail_absorption_keeps_tiling(self):
        p = prop_strict()
        rng = random.Random(7)
        for _ in range(50):
            out = relax_case0(p, [5.0, 6.0, 9.0], rng)
            assert validate(out.proposition) == []
            assert out.proposition.v_min == p.v_min
            assert out.proposition.v_max == p.v_max

    def test_integral_grows_over_seeds(self):
        p = prop_strict()
        for seed in range(200):
            out = relax_case0(p, [5.0, 6.0, 9.0], random.Random(seed))
            assert out.proposition.integral() > p.integral()


class TestTighten:
    def test_spec_example(self):
        p = prop_relaxed()
        perfs = [0.5, 1.0, 2.0, 3.5, 5.0]
        assert all(p.evaluate(v) == 1.0 for v in perfs)
        out = tighten_case1(p, perfs, random.Random(3))
        new_scores = [out.proposition.evaluate(v) for v in perfs]
        assert any(s < 1.0 for s in new_scores)
        assert out.proposition.integral() < p.integral()

    def test_pinned_at_v_min_is_flagged(self):
        p = Proposition((Fragment("S", 0.0, 10.0, 1.0, 0.0),))
        out = tighten_case1(p, [20.0, 30.0], random.Random(0))
        assert not out.by_entropy
        assert out.proposition == p  # boundary already at v_min

    def test_integral_shrinks_over_seeds(self):
        p = prop_relaxed()
        perfs = [0.5, 1.0, 2.0, 3.5, 5.0]
        for seed in range(200):
            out = tighten_case1(p, perfs, random.Random(seed))
            assert out.proposition.integral() < p.integral()
            assert validate(out.proposition) == []


class TestMutate:
    def test_switch_s_to_e_collapses_to_left_score(self):
        p = Proposition((Fragment("S", 0.0, 10.0, 1.0, 0.0),))
        rng = random.Random(0)
        for _ in range(50):
            mutant = mutate_proposition(p, rng)
            assert validate(mutant) == []
            assert mutant != p
            frag = mutant.fragments[0]
            if frag.kind == "E":
                assert frag.s_lo == 1.0 and frag.s_hi == 1.0

    def test_boundary_move_stays_within_neighbors(self):
        p = Proposition((
            Fragment("E", 0.0, 2.0, 1.0, 1.0),
            Fragment("S", 2.0, 3.5, 1.0, 0.6),
            Fragment("E", 3.5, 5.0, 0.6, 0.6),
            Fragment("S", 5.0, 8.0, 0.6, 0.0),
        ))
        rng = random.Random(5)
        for _ in range(200):
            mutant = mutate_proposition(p, rng)
            assert validate(mutant) == []
            assert mutant.v_min == 0.0
            assert mutant.v_max == 8.0

    def test_tiling_invariant_over_seeds(self):
        p = prop_strict()
        for seed in range(300):
            mutant = mutate_proposition(p, random.Random(seed))
            assert validate(mutant) == []
            edges = [f.v_lo for f in mutant.fragments] + [mutant.v_max]
            assert edges == sorted(edges)


class TestEscape:
    def test_returns_pool_argmin(self):
        # independent replay of the pool process on the same draw stream;
        # from the sentinel start every draw ties, so the cap's tie rule
        # decides
        p = prop_strict()
        pool_target = 5
        for perfs, seed in itertools.product(
                ([0.5, 1.2, 1.5, 1.8, 5.0], [5.0, 6.0, 9.0]), range(10)):
            rng, replay_rng = random.Random(seed), random.Random(seed)
            out = escape_case2(p, perfs, pool_target, rng)
            expected, by_entropy = replay_escape(p, perfs, pool_target,
                                                 replay_rng)
            assert out.proposition == expected
            assert out.by_entropy == by_entropy
            assert rng.getstate() == replay_rng.getstate()
            assert out.scores == tuple(expected.evaluate(v) for v in perfs)

    def test_flat_mutant_in_the_first_pool_ends_the_search_unscored(self):
        # a mutant scoring every value alike has the sentinel entropy, below
        # a non-flat p_a; among the first pool_target draws it settles the
        # outcome, so only p_a's sample reaches entropy, and the remaining
        # draws still advance rng as the full pool process does
        p = prop_strict()
        perfs = [1.1, 1.3, 1.5, 1.7, 1.9]  # all on the S fragment
        p_sample = tuple(p.evaluate(v) for v in perfs)
        assert differential_entropy(p_sample) > MIN_ENTROPY
        pool_target = 5
        settled = 0
        for seed in range(40):
            peek = random.Random(seed)
            head = [mutate_proposition(p, peek) for _ in range(pool_target)]
            if not any(max(s) == min(s) for s in (
                    [m.evaluate(v) for v in perfs] for m in head)):
                continue
            settled += 1
            lookups = []

            def entropy(sample):
                lookups.append(sample)
                return differential_entropy(sample)

            rng, replay_rng = random.Random(seed), random.Random(seed)
            out = escape_case2(p, perfs, pool_target, rng, entropy=entropy)
            expected, by_entropy = replay_escape(p, perfs, pool_target,
                                                 replay_rng)
            assert lookups == [p_sample]
            assert out.proposition == expected
            assert out.by_entropy == by_entropy
            assert rng.getstate() == replay_rng.getstate()
        assert settled > 0

    def test_lower_entropy_when_loop_terminates(self):
        p = prop_strict()
        perfs = [0.5, 1.2, 1.5, 1.8, 5.0]
        h_old = differential_entropy([p.evaluate(v) for v in perfs])
        for seed in range(30):
            out = escape_case2(p, perfs, 5, random.Random(seed))
            h_new = differential_entropy(
                [out.proposition.evaluate(v) for v in perfs])
            if out.by_entropy:
                assert h_new < h_old

    def test_sentinel_start_caps_and_flags(self):
        p = prop_strict()
        perfs = [5.0, 6.0, 9.0]  # all scores 0: already minimal entropy
        assert differential_entropy(
            [p.evaluate(v) for v in perfs]) == MIN_ENTROPY
        out = escape_case2(p, perfs, 5, random.Random(1))
        assert not out.by_entropy

    def test_constant_score_mutant_wins(self):
        # a mutant producing constant scores has sentinel entropy and must be
        # the argmin of any pool that contains it
        p = prop_strict()
        perfs = [0.5, 1.2, 1.5, 1.8, 5.0]
        for seed in range(40):
            out = escape_case2(p, perfs, 5, random.Random(seed))
            scores = [out.proposition.evaluate(v) for v in perfs]
            if len(set(scores)) == 1:
                assert differential_entropy(scores) == MIN_ENTROPY
                break
        else:
            pytest.skip("no constant-score mutant drawn in 40 seeds")

    def test_valid_propositions_only(self):
        p = prop_relaxed()
        perfs = [0.5, 1.0, 7.0, 8.0, 9.5]
        for seed in range(30):
            out = escape_case2(p, perfs, 5, random.Random(seed))
            assert validate(out.proposition) == []


class TestEntropyInjection:
    """A memoizing ``entropy`` changes neither the outcome nor the draws."""

    @staticmethod
    def memo():
        """(entropy, lookups): differential_entropy behind a dict, and the
        list of samples it was asked for."""
        known, lookups = {}, []

        def entropy(sample):
            lookups.append(sample)
            if sample not in known:
                known[sample] = differential_entropy(sample)
            return known[sample]

        return entropy, lookups

    @staticmethod
    def check(evolve, p, perfs, seeds):
        entropy, lookups = TestEntropyInjection.memo()  # shared by all seeds
        for seed in seeds:
            plain_rng, memo_rng = random.Random(seed), random.Random(seed)
            plain = evolve(p, perfs, plain_rng)
            memo = evolve(p, perfs, memo_rng, entropy=entropy)
            assert memo.proposition == plain.proposition
            assert memo.by_entropy == plain.by_entropy
            assert memo_rng.getstate() == plain_rng.getstate()
        assert len(lookups) > len(set(lookups))  # the memo was used and hit

    def test_relax(self):
        self.check(relax_case0, prop_strict(), [3.0, 4.0, 5.0, 6.0, 8.0],
                   range(30))

    def test_tighten(self):
        self.check(tighten_case1, prop_relaxed(), [0.5, 1.0, 2.0, 3.5, 5.0],
                   range(30))

    def test_escape(self):
        def escape(p, perfs, rng, **kwargs):
            return escape_case2(p, perfs, 5, rng, **kwargs)

        self.check(escape, prop_strict(), [0.5, 1.2, 1.5, 1.8, 5.0],
                   range(30))

    def test_escape_from_the_sentinel_to_its_cap(self):
        def escape(p, perfs, rng, **kwargs):
            return escape_case2(p, perfs, 5, rng, **kwargs)

        self.check(escape, prop_strict(), [5.0, 6.0, 9.0], range(5))
