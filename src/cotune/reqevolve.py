"""Evolution of the auxiliary requirement proposition.

Three situations trigger a change, with decreasing commonality:

* Cases 0 and 1 are one edge shift in two directions, until scores spread
  out. Case 0: every explored configuration is fully unsatisfied under both
  propositions -> relax, moving a right edge toward v_max. Case 1: every
  auxiliary-population configuration is fully satisfied -> tighten, moving
  a left edge toward v_min.
* Case 2: the best configuration on the target has stagnated -> random-search
  for a mutant proposition with strictly lower score entropy.

``fire_case`` runs the case ``detect_case`` picked and reports it as an event.

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
from .ga import _randbelow
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
    return tuple(map(prop.evaluate, perf_values))


def _assert_valid(prop: Proposition):
    problems = validate(prop)
    if problems:
        raise RequirementEvolutionError(f"evolved proposition invalid: {problems}")


def _clip(frag: Fragment, lo: float, hi: float) -> Fragment:
    """frag cut to [lo, hi]: a G or S fragment is rescored at each edge that
    moves, and an E fragment keeps its scores."""
    if frag.kind == "E":
        return Fragment("E", lo, hi, frag.s_lo, frag.s_hi)
    s_lo = frag.score(lo) if lo != frag.v_lo else frag.s_lo
    s_hi = frag.score(hi) if hi != frag.v_hi else frag.s_hi
    return Fragment(frag.kind, lo, hi, s_lo, s_hi)


def _move_edge(prop: Proposition, idx: int, new_b: float,
               relax: bool) -> tuple[Proposition, int]:
    """Move fragment idx's right edge (relax) or left edge (tighten) out to
    new_b, absorbing the neighbours it fully overtakes and clipping one it
    partly overtakes. Returns the proposition and the moved fragment's new
    index, which drops by the predecessors a tightening absorbs."""
    frags = prop.fragments
    moved = frags[idx]
    if relax:
        moved = Fragment(moved.kind, moved.v_lo, new_b, moved.s_lo, moved.s_hi)
        after = [_clip(f, max(f.v_lo, new_b), f.v_hi)
                 for f in frags[idx + 1:] if f.v_hi > new_b]
        return Proposition((*frags[:idx], moved, *after)), idx
    moved = Fragment(moved.kind, new_b, moved.v_hi, moved.s_lo, moved.s_hi)
    before = [_clip(f, f.v_lo, min(f.v_hi, new_b))
              for f in frags[:idx] if f.v_lo < new_b]
    return Proposition((*before, moved, *frags[idx + 1:])), len(before)


def _shift_edge(p_a: Proposition, perf_values, rng: random.Random, entropy,
                relax: bool) -> EvolutionOutcome:
    """relax_case0 (relax) or tighten_case1: one loop, which moves the last
    distinguishable fragment's right edge up or the first one's left edge
    down."""
    # sign * x orders values along the shift; b + -step is b - step exactly
    sign, clamp, bound = (1, min, p_a.v_max) if relax else (-1, max, p_a.v_min)
    order = range(len(p_a.fragments))
    idx = next((i for i in (reversed(order) if relax else order)
                if _distinguishable(p_a.fragments[i])), None)
    if idx is None:
        raise RequirementEvolutionError(
            f"no distinguishable fragment to {'relax' if relax else 'tighten'}")

    scores = _scores(p_a, perf_values)
    h_old = entropy(scores)
    base_area = p_a.integral()
    current = p_a
    while True:
        frag = current.fragments[idx]
        b = frag.v_hi if relax else frag.v_lo
        if sign * b >= sign * bound:
            return EvolutionOutcome(current, scores, False)
        delta = rng.uniform(0.5, 1.0)
        # the literal step b*delta moves a non-positive edge the wrong way
        # or not at all; fall back to a fraction of the remaining headroom
        step = b * delta if b > 0 else delta * abs(bound - b)
        new_b = clamp(b + sign * step, bound)
        if sign * new_b <= sign * b:
            return EvolutionOutcome(current, scores, False)
        current, idx = _move_edge(current, idx, new_b, relax)
        _assert_valid(current)
        if not sign * current.integral() > sign * base_area:
            raise RequirementEvolutionError(
                "relaxation did not grow the integral" if relax
                else "tightening did not shrink the integral")
        scores = _scores(current, perf_values)
        if entropy(scores) > h_old:
            return EvolutionOutcome(current, scores, True)


def relax_case0(p_a: Proposition, perf_values, rng: random.Random, *,
                entropy=differential_entropy) -> EvolutionOutcome:
    """Relax the first distinguishable fragment from the right.

    Its right boundary b moves rightward by min(b + b*delta, v_max) with
    delta redrawn uniformly from [0.5, 1] per move, until the population's
    score entropy strictly exceeds the entropy under p_a or the boundary
    pins at v_max. The relaxed proposition always has a larger integral.
    """
    return _shift_edge(p_a, perf_values, rng, entropy, relax=True)


def tighten_case1(p_a: Proposition, perf_values, rng: random.Random, *,
                  entropy=differential_entropy) -> EvolutionOutcome:
    """Tighten the first distinguishable fragment from the left.

    Mirror of relax_case0: the left boundary moves leftward toward v_min and
    the tightened proposition always has a smaller integral.
    """
    return _shift_edge(p_a, perf_values, rng, entropy, relax=False)


# the kinds a fragment of each kind can switch to, in KINDS order
_OTHER_KINDS = {"G": ("S", "E"), "S": ("G", "E"), "E": ("G", "S")}


def _switch_kind(frags: list, idx: int, new_kind: str) -> None:
    """Switch fragment idx's kind, rederiving scores from its left boundary."""
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


def _move_boundary(frags: list, j: int, rng: random.Random) -> None:
    """Move boundary j (between fragments j and j+1) uniformly within the
    open interval spanned by its neighboring boundary points; a draw on
    either end point leaves it where it is."""
    left = frags[j]
    right = frags[j + 1]
    new_b = rng.uniform(left.v_lo, right.v_hi)
    if left.v_lo < new_b < right.v_hi:
        frags[j] = Fragment(left.kind, left.v_lo, new_b, left.s_lo, left.s_hi)
        frags[j + 1] = Fragment(right.kind, new_b, right.v_hi, right.s_lo,
                                right.s_hi)


def mutate_proposition(p_a: Proposition, rng: random.Random) -> Proposition:
    """Randomly switch a fragment's kind and/or move a boundary point.

    Mutants that break the tiling or monotonicity invariants are redrawn up
    to MUTATION_ATTEMPT_CAP times.
    """
    getrandbits = rng.getrandbits
    count = len(p_a.fragments)
    for _ in range(MUTATION_ATTEMPT_CAP):
        u = rng.random()
        if count < 2:
            do_switch, do_move = True, False
        else:
            do_switch = u < 1 / 3 or u >= 2 / 3
            do_move = u >= 1 / 3
        frags = list(p_a.fragments)
        if do_switch:
            idx = _randbelow(getrandbits, count)
            kinds = _OTHER_KINDS[frags[idx].kind]
            _switch_kind(frags, idx, kinds[_randbelow(getrandbits, len(kinds))])
        if do_move:
            _move_boundary(frags, _randbelow(getrandbits, count - 1), rng)
        candidate = Proposition(tuple(frags))
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


def fire_case(case, p_a: Proposition, pop_a, pool_target: int,
              rng: random.Random, entropy):
    """Run one firing case on p_a and pop_a, whose fitness holds p_a's scores.

    Returns (proposition, scores, event): the proposition the run keeps, its
    scores of pop_a when it replaces p_a (else None) and the firing's event
    without its iteration. Case 2 is skipped when pop_a's fitness is flat, as
    the escape could only run to its cap, and its result is rejected when it
    scores pop_a flat; either keeps p_a, flagged with a reason.
    """
    perfs = [m.perf for m in pop_a]
    old_entropy = entropy(tuple(m.fitness for m in pop_a))
    outcome = reason = None
    try:
        if case == CASE0:
            outcome = relax_case0(p_a, perfs, rng, entropy=entropy)
        elif case == CASE1:
            outcome = tighten_case1(p_a, perfs, rng, entropy=entropy)
        elif len({m.fitness for m in pop_a}) == 1:
            reason = "p_a scores pop_a with zero variance; escape skipped"
        else:
            outcome = escape_case2(p_a, perfs, pool_target, rng,
                                   entropy=entropy)
            if max(outcome.scores) == min(outcome.scores):
                reason = (f"escape result {outcome.proposition.encode()}"
                          " scores pop_a with zero variance; rejected")
    except RequirementEvolutionError as exc:
        return p_a, None, {"case": case, "error": str(exc)}
    adopted = reason is None and outcome.proposition != p_a
    new = outcome.proposition if adopted else p_a
    scores = outcome.scores if adopted else None
    event = {
        "case": case,
        "flagged": reason is not None or not outcome.by_entropy,
        "old_encoding": p_a.encode(),
        "new_encoding": new.encode(),
        "old_integral": p_a.integral(),
        "new_integral": new.integral(),
        "old_entropy": old_entropy,
        "new_entropy": entropy(scores) if adopted else old_entropy,
    }
    if reason is not None:
        event["reason"] = reason
    return new, scores, event
