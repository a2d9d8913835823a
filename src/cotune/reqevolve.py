"""Evolution of the auxiliary requirement proposition.

Three situations trigger a change, with decreasing commonality:

* Case 0: every explored configuration is fully unsatisfied under both
  propositions -> relax a right boundary until scores spread out.
* Case 1: every auxiliary-population configuration is fully satisfied ->
  tighten a left boundary until scores spread out.
* Case 2: the best configuration on the target has stagnated -> random-search
  for a mutant proposition with strictly lower score entropy.

Each case function returns its proposition's scores of the given values with
it, and computes entropy with its ``entropy`` keyword, ``differential_entropy``
by default (a tuner run passes one that memoizes every score sample for the
whole run). It is called with a tuple of scores and must return what
``differential_entropy`` would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .entropy import MIN_ENTROPY, differential_entropy
from .requirement import Fragment, Proposition, validate

CASE0 = "case0"
CASE1 = "case1"
CASE2 = "case2"

MUTATION_ATTEMPT_CAP = 100


class RequirementEvolutionError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvolutionOutcome:
    """Result of one evolution step.

    scores holds the proposition's score of each given performance value.
    by_entropy is True when the step terminated on the entropy condition;
    False means the boundary was pinned at a metric bound (relax/tighten) or
    the attempt cap fired (escape) and the result is a best-effort fallback.
    """

    proposition: Proposition
    scores: tuple
    by_entropy: bool


def detect_case(pop_t, pop_a, stagnation_counter: int, k: int,
                enable=(True, True, True)):
    """Classify the tuning state; priority Case 0 > Case 1 > Case 2.

    Reads each member's fitness, which is its score under the population's
    own proposition: p_t for pop_t, p_a for pop_a.
    """
    if enable[0] and all(m.fitness == 0.0 for m in pop_a) and all(
            m.fitness == 0.0 for m in pop_t):
        return CASE0
    if enable[1] and all(m.fitness == 1.0 for m in pop_a):
        return CASE1
    if enable[2] and stagnation_counter >= k:
        return CASE2
    return None


def _distinguishable(frag: Fragment) -> bool:
    # zero-slope G/S fragments discriminate nothing, same as E
    return frag.kind in ("G", "S") and frag.s_lo != frag.s_hi


def _scores(prop: Proposition, perf_values) -> tuple:
    return tuple(prop.evaluate(v) for v in perf_values)


def _assert_valid(prop: Proposition):
    problems = validate(prop)
    if problems:
        raise RequirementEvolutionError(f"evolved proposition invalid: {problems}")


def _truncate_left(frag: Fragment, new_lo: float) -> Fragment:
    s_lo = frag.score(new_lo)
    return Fragment(frag.kind, new_lo, frag.v_hi,
                    s_lo if frag.kind != "E" else frag.s_lo, frag.s_hi)


def _truncate_right(frag: Fragment, new_hi: float) -> Fragment:
    s_hi = frag.score(new_hi)
    return Fragment(frag.kind, frag.v_lo, new_hi, frag.s_lo,
                    s_hi if frag.kind != "E" else frag.s_hi)


def _move_right_boundary(prop: Proposition, idx: int, new_b: float) -> Proposition:
    """Move fragment idx's right edge to new_b (> current), absorbing any
    fragments it fully overtakes and truncating a partially overtaken one."""
    frags = list(prop.fragments)
    moved = frags[idx]
    out = frags[:idx]
    out.append(Fragment(moved.kind, moved.v_lo, new_b, moved.s_lo, moved.s_hi))
    for frag in frags[idx + 1:]:
        if frag.v_hi <= new_b:
            continue
        if frag.v_lo < new_b:
            out.append(_truncate_left(frag, new_b))
        else:
            out.append(frag)
    return Proposition(tuple(out))


def _move_left_boundary(prop: Proposition, idx: int, new_b: float) -> Proposition:
    """Mirror of _move_right_boundary for a leftward move of the left edge."""
    frags = list(prop.fragments)
    moved = frags[idx]
    out = []
    for frag in frags[:idx]:
        if frag.v_lo >= new_b:
            continue
        if frag.v_hi > new_b:
            out.append(_truncate_right(frag, new_b))
        else:
            out.append(frag)
    out.append(Fragment(moved.kind, new_b, moved.v_hi, moved.s_lo, moved.s_hi))
    out.extend(frags[idx + 1:])
    return Proposition(tuple(out))


def relax_case0(p_a: Proposition, perf_values, rng: random.Random, *,
                entropy=differential_entropy) -> EvolutionOutcome:
    """Relax the first distinguishable fragment from the right.

    Its right boundary b moves rightward by min(b + b*delta, v_max) with
    delta redrawn uniformly from [0.5, 1] per move, until the population's
    score entropy strictly exceeds the entropy under p_a or the boundary
    pins at v_max. The relaxed proposition always has a larger integral.
    """
    v_max = p_a.v_max
    idx = None
    for i in range(len(p_a.fragments) - 1, -1, -1):
        if _distinguishable(p_a.fragments[i]):
            idx = i
            break
    if idx is None:
        raise RequirementEvolutionError("no distinguishable fragment to relax")

    scores = _scores(p_a, perf_values)
    h_old = entropy(scores)
    base_area = p_a.integral()
    current = p_a
    while True:
        frag = current.fragments[idx]
        b = frag.v_hi
        if b >= v_max:
            return EvolutionOutcome(current, scores, False)
        delta = rng.uniform(0.5, 1.0)
        # the literal step b*delta cannot advance a non-positive boundary;
        # fall back to a fraction of the remaining headroom
        step = b * delta if b > 0 else delta * (v_max - b)
        new_b = min(b + step, v_max)
        if new_b <= b:
            return EvolutionOutcome(current, scores, False)
        current = _move_right_boundary(current, idx, new_b)
        _assert_valid(current)
        if not current.integral() > base_area:
            raise RequirementEvolutionError("relaxation did not grow the integral")
        scores = _scores(current, perf_values)
        if entropy(scores) > h_old:
            return EvolutionOutcome(current, scores, True)


def tighten_case1(p_a: Proposition, perf_values, rng: random.Random, *,
                  entropy=differential_entropy) -> EvolutionOutcome:
    """Tighten the first distinguishable fragment from the left.

    Mirror of relax_case0: the left boundary moves leftward toward v_min and
    the tightened proposition always has a smaller integral.
    """
    v_min = p_a.v_min
    idx = None
    for i, frag in enumerate(p_a.fragments):
        if _distinguishable(frag):
            idx = i
            break
    if idx is None:
        raise RequirementEvolutionError("no distinguishable fragment to tighten")

    scores = _scores(p_a, perf_values)
    h_old = entropy(scores)
    base_area = p_a.integral()
    current = p_a
    while True:
        frag = current.fragments[idx]
        b = frag.v_lo
        if b <= v_min:
            return EvolutionOutcome(current, scores, False)
        delta = rng.uniform(0.5, 1.0)
        step = b * delta if b > 0 else delta * (b - v_min)
        new_b = max(b - step, v_min)
        if new_b >= b:
            return EvolutionOutcome(current, scores, False)
        # the leftmost distinguishable fragment may absorb its predecessors,
        # shifting its own index
        shift = sum(1 for f in current.fragments[:idx] if f.v_lo >= new_b)
        current = _move_left_boundary(current, idx, new_b)
        idx -= shift
        _assert_valid(current)
        if not current.integral() < base_area:
            raise RequirementEvolutionError("tightening did not shrink the integral")
        scores = _scores(current, perf_values)
        if entropy(scores) > h_old:
            return EvolutionOutcome(current, scores, True)


def _switch_kind(prop: Proposition, idx: int, new_kind: str) -> Proposition:
    """Switch a fragment's kind, rederiving scores from its left boundary."""
    frags = list(prop.fragments)
    frag = frags[idx]
    if new_kind == "E":
        new = Fragment("E", frag.v_lo, frag.v_hi, frag.s_lo, frag.s_lo)
    elif new_kind == "S":
        # keep the left score; the right score retargets to the successor
        # fragment's left score (0 for the last fragment)
        target = frags[idx + 1].s_lo if idx + 1 < len(frags) else 0.0
        new = Fragment("S", frag.v_lo, frag.v_hi, frag.s_lo, target)
    else:
        # G ascends toward full satisfaction at greater v; under the internal
        # minimization convention this is non-monotone unless already flat,
        # so the validation pass downstream rejects it
        new = Fragment("G", frag.v_lo, frag.v_hi, frag.s_lo, 1.0)
    frags[idx] = new
    return Proposition(tuple(frags))


def _move_boundary(prop: Proposition, j: int, rng: random.Random) -> Proposition:
    """Move boundary j (between fragments j and j+1) uniformly within the
    open interval spanned by its neighboring boundary points."""
    left = prop.fragments[j]
    right = prop.fragments[j + 1]
    new_b = rng.uniform(left.v_lo, right.v_hi)
    if not left.v_lo < new_b < right.v_hi:
        return prop
    frags = list(prop.fragments)
    frags[j] = Fragment(left.kind, left.v_lo, new_b, left.s_lo, left.s_hi)
    frags[j + 1] = Fragment(right.kind, new_b, right.v_hi, right.s_lo, right.s_hi)
    return Proposition(tuple(frags))


def mutate_proposition(p_a: Proposition, rng: random.Random) -> Proposition:
    """Randomly switch a fragment's kind and/or move a boundary point.

    Mutants that break the tiling or monotonicity invariants are redrawn up
    to MUTATION_ATTEMPT_CAP times.
    """
    for _ in range(MUTATION_ATTEMPT_CAP):
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
            candidate = _switch_kind(candidate, idx, new_kind)
        if do_move:
            j = rng.randrange(len(candidate.fragments) - 1)
            candidate = _move_boundary(candidate, j, rng)
        if candidate != p_a and not validate(candidate):
            return candidate
    raise RequirementEvolutionError(
        f"no valid proposition mutant found in {MUTATION_ATTEMPT_CAP} attempts"
    )


def escape_case2(p_a: Proposition, perf_values, pool_target: int,
                 rng: random.Random, *,
                 entropy=differential_entropy) -> EvolutionOutcome:
    """Random search for a mutant with strictly lower score entropy.

    Keeps the draws tied at the lowest entropy so far, in draw order, and
    stops at the first draw from number pool_target on at which that entropy
    is below p_a's, returning the earliest draw at it. After 50 * pool_target
    draws (e.g. from p_a at the sentinel) it returns, flagged, draw number
    max(1, m - pool_target + 1) of the m draws at the lowest entropy, as a
    pool of pool_target evicting its highest, then earliest, entry would.
    The first pool's draws reach entropy once it is full, unless one is flat
    (the MIN_ENTROPY sentinel) while p_a is not: that draw decides, and the
    rest of the first pool only advances rng.
    """
    h_current = entropy(_scores(p_a, perf_values))
    flat_decides = h_current > MIN_ENTROPY
    # low is None while tied holds the unscored draws of the first pool
    low, tied = None, []  # tied: [(mutant, scores)]
    for n in range(1, 50 * pool_target + 1):
        mutant = mutate_proposition(p_a, rng)
        if not (flat_decides and low == MIN_ENTROPY):
            scores = _scores(mutant, perf_values)
            if flat_decides and max(scores) == min(scores):
                low, tied = MIN_ENTROPY, [(mutant, scores)]
            elif low is None:
                tied.append((mutant, scores))
            else:
                h = entropy(scores)
                if h < low:
                    low, tied = h, []
                if h == low:
                    tied.append((mutant, scores))
        if low is None and n == pool_target:
            hs = [entropy(scores) for _, scores in tied]
            low = min(hs)
            tied = [draw for draw, h in zip(tied, hs) if h == low]
        if n >= pool_target and low < h_current:
            return EvolutionOutcome(*tied[0], by_entropy=True)
    return EvolutionOutcome(*tied[max(0, len(tied) - pool_target)],
                            by_entropy=False)
