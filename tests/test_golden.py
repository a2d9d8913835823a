"""Golden-behaviour fingerprints pinned across versions of the program.

AC5 and AC10 compare two runs made within one process, so they cannot see a
change that moves every run the same way. The digests below were recorded
from the program before requirement scoring was precomputed and vectorised;
a speed-up or a refactor that keeps behaviour leaves every one of them
unchanged. A deliberate semantic change updates them and says why.

Each tuner cell pins the sha256 of its three per-seed trajectory
fingerprints (computed as ``test_acceptance.fingerprint`` does), each
followed by the run's best configuration, for seeds 0-2 with
``TunerParams(early_stop=False)`` on the acceptance landscapes.
The requirement digest pins the ``repr`` of the fragments of every
``generate_target`` output for the three requirement types at each level of
``DEFAULT_D_LEVELS`` on one rugged 2^12 space.

The edge-shift digest pins ``relax_case0`` and ``tighten_case1`` on 1,000
seeded random valid propositions of 1-6 fragments, one call of each per
proposition, and was recorded before the two cases shared one routine. Each
entry holds the outcome's fragments, scores and ``by_entropy`` (or the
error text) and the next 64 bits the call's ``rng`` draws, which pin how many
draws the call took. The performance values of a call come from a band at
the end of the range its case moves away from: a narrow band scores flat, a
wide one spread, so the entries cover adoption on entropy, pinning at the
bound (with and without absorbed fragments) and the error paths.

The events digest pins every event of the CoTune tuner cells, in run order,
each hashed as ``repr(list(event.items()))`` so that its key order counts
too. It was recorded before case firing moved from the tuner loop into
``reqevolve``. The benchmark's tracer counts each case's outcomes from these
events.
"""

import functools
import hashlib
import math
import random

import pytest

from cotune import entropy, harness, requirement, tuners
from cotune.entropy import differential_entropy
from cotune.landscape import synth
from cotune.reqevolve import RequirementEvolutionError, relax_case0, tighten_case1
from cotune.requirement import Fragment, Proposition
from cotune.reqgen import DEFAULT_D_LEVELS, TYPE_PATTERNS, GenSpec, generate_target
from cotune.tuners import TunerParams, cotune_run, ga_run, random_run

LANDSCAPES = {
    "synth-rugged-7": dict(seed=7, n_options=12, domain_sizes=2, shape="rugged"),
    "synth-additive-3": dict(seed=3, n_options=10, domain_sizes=2,
                             shape="additive"),
    "synth-rugged-11": dict(seed=11, n_options=6,
                            domain_sizes=[4, 3, 4, 3, 2, 2], shape="rugged"),
}
SEEDS = (0, 1, 2)

GOLDEN_RUNS = {
    ("synth-rugged-7", 0.001, "CoTune"):
        "86131bb4d548012bb451abbfb831558cada7407b735f3e84fa0619a8f3f6ecd9",
    ("synth-rugged-7", 0.001, "GA_p"):
        "105cf488e1bc4e625451aa3181e80026278fa5d12baedcc2f351097e7dd37f17",
    ("synth-rugged-7", 0.001, "GA_r"):
        "bd7058020c4be1fb337b76407bea1b666de75b9f8cad35ec043a4c8b6c00bd0f",
    ("synth-rugged-7", 0.001, "Random"):
        "45603ee2804ef041779e491aac1c25c17b70123f0a96935acdb75ac1f4b18cf7",
    ("synth-rugged-7", 0.5, "CoTune"):
        "c2bd9462eaccac83355fa72d8c86a16d87420314fc158907b9db52d5d620bd58",
    ("synth-rugged-7", 0.5, "GA_p"):
        "62185ca069f7b3b83dff6777c41768f550ec4e519dea3b9e08a5011a51c4fe1f",
    ("synth-rugged-7", 0.5, "GA_r"):
        "9650192a51e5d8034c917e0f690b43062becf3d4f1918a666a422ccfdc748326",
    ("synth-rugged-7", 0.5, "Random"):
        "3423811fb7bd51c8d67032316e64d7dd912e36f7443bd85e01cbe231854b5c18",
    ("synth-additive-3", 0.001, "CoTune"):
        "37c020d5f6690a18a0cd4b8bf85ff1395cba5c797289f148f3ef7f43b2dac926",
    ("synth-additive-3", 0.001, "GA_p"):
        "861962b841061ef35ed3cf2205f3720a53fdd535367aeaadd38ce1ea775ba0ae",
    ("synth-additive-3", 0.001, "GA_r"):
        "58c9b4b1f53fcde306b1dee254cd6c126d5ada90739c99633091a1ea544b8efb",
    ("synth-additive-3", 0.001, "Random"):
        "d9750f46c022c38917c7cbdcf99880c27ff48a32a69c5617f7375eddc0bd0360",
    ("synth-additive-3", 0.5, "CoTune"):
        "bc2fa80c40168bdeeb35a51d097c2b3bce9d1b147b5d12a9ee9eccb506a5e6f1",
    ("synth-additive-3", 0.5, "GA_p"):
        "b5d7b18922c797aec35da8162741442837d5da5488aa5d56fdcdded946c8cc11",
    ("synth-additive-3", 0.5, "GA_r"):
        "40ef99e82ad6311998db25392d8b72e0d3064a8c0dfb6887d5b6a81ebe633d9b",
    ("synth-additive-3", 0.5, "Random"):
        "b1d603193d8cd66ca5807c90a8c9b77d3eb6c64a61426ca560936056fd7a8ba1",
    ("synth-rugged-11", 0.001, "CoTune"):
        "b426627114c1c8ef4aca8079ed096217a4cc1985650f16340def2c57c6ff0133",
    ("synth-rugged-11", 0.001, "GA_p"):
        "3466103c53f072f873b04d69a4df25c686c2dd43aeac394d9edaa63979eca327",
    ("synth-rugged-11", 0.001, "GA_r"):
        "1e5a671bd7f6c4d454b54f2347ff39bd04de1d0c09a86fd9143cb926df08719d",
    ("synth-rugged-11", 0.001, "Random"):
        "35a510f6953d9f59dd1c39a47e2ba37070db5eb97cf5dd554fa36eac2a9683cd",
    ("synth-rugged-11", 0.5, "CoTune"):
        "c5e75880655eb293160ce18303e40ef3a35250467322a801f48f4ffb585485d1",
    ("synth-rugged-11", 0.5, "GA_p"):
        "5a14356620f62a2ce5ed26a59c04902984b3c89700f9e443a9c3861241922371",
    ("synth-rugged-11", 0.5, "GA_r"):
        "45176c14374a94121a6afa41c2ac71faa91490698c304a3a7dcc2acfea783464",
    ("synth-rugged-11", 0.5, "Random"):
        "78dcabe3db2f1af302fca8d82fbc54319a623de99b680167a02baa2afabdb4cd",
}

GOLDEN_REQUIREMENTS = (
    "7df5504a33c67567392993ec16df26e36a7545d58e0f34ced29257a7d0c75a94")

GOLDEN_EDGE_SHIFTS = (
    "a41c428a2d03a76164f2ec7a0a5561fd3751974ad9c871c9f1bd43c19a78e64b")

GOLDEN_EVENTS = (
    "320c7b5aa32eac8f2c8d0c2a67b471a79693dcfd1e1ca953ee00e2d3cff3901d")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(result):
    return sha256("\n".join(
        f"{r.iteration},{r.budget_used},{r.best_pt_score!r},"
        f"{r.guiding_proposition},{r.case_fired},{r.theta!r},{r.entropy_pa!r}"
        for r in result.trajectory))


def run_tuner(tuner, land, prop, seed):
    params = TunerParams(early_stop=False)
    if tuner == "CoTune":
        return cotune_run(land, prop, params, seed)
    if tuner == "GA_p":
        return ga_run(land, prop, params, seed)
    if tuner == "GA_r":
        return ga_run(land, prop, params, seed, objective="raw")
    return random_run(land, prop, params, seed)


@pytest.fixture(scope="module")
def targets():
    """(landscape name, d) -> (landscape, target), as the acceptance sweep
    draws them."""
    out = {}
    for name, kwargs in LANDSCAPES.items():
        land = synth(**kwargs)
        for d in (0.001, 0.5):
            out[name, d] = land, generate_target(
                land, d, GenSpec(), random.Random(42))
    return out


@pytest.mark.parametrize("cell", sorted(GOLDEN_RUNS),
                         ids=lambda c: f"{c[0]}-d{c[1]}-{c[2]}")
def test_tuner_trajectories_match_golden(targets, cell):
    name, d, tuner = cell
    land, prop = targets[name, d]
    runs = [run_tuner(tuner, land, prop, seed) for seed in SEEDS]
    digest = sha256("\n".join(
        f"{fingerprint(r)} {r.best_config!r}" for r in runs))
    assert digest == GOLDEN_RUNS[cell]


def outcome(event):
    """An event's case and outcome, as the benchmark's tracer names them."""
    if "error" in event:
        kind = "error"
    elif "reason" in event:
        kind = "skipped" if "skipped" in event["reason"] else "rejected"
    elif not event["flagged"]:
        kind = "adopted"
    else:
        kind = "capped" if event["case"] == "case2" else "pinned"
    return f"{event['case']}.{kind}"


def test_cotune_events_match_golden(targets):
    events = [event for land, prop in targets.values()
              for seed in SEEDS
              for event in run_tuner("CoTune", land, prop, seed).events]
    assert len(events) == 428
    assert {"case0.adopted", "case1.adopted", "case1.pinned", "case2.adopted",
            "case2.rejected", "case2.skipped"} <= set(map(outcome, events))
    assert sha256("\n".join(
        repr(list(event.items())) for event in events)) == GOLDEN_EVENTS


def compensated_sum(iterable, start=0):
    """``sum()`` as Python 3.12 and later add floats: Neumaier's compensated
    summation, its correction added once at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    correction = 0.0
    for x in items:
        if type(x) is not float:
            total = total + x
            continue
        t = total + x
        if abs(total) >= abs(x):
            correction += (total - t) + x
        else:
            correction += (x - t) + total
        total = t
    if correction and math.isfinite(correction):
        total += correction
    return total


def test_tuner_cell_holds_under_compensated_sum(targets, monkeypatch):
    # every float sum of a run must give the same bits on 3.12 and later as
    # on 3.11, where sum() adds left to right ([0.1] * 10 sums to 1 - 2^-53)
    assert compensated_sum([0.1] * 10) == 1.0
    for module in (entropy, harness, requirement, tuners):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_tuner_trajectories_match_golden(
        targets, ("synth-rugged-7", 0.001, "CoTune"))


def test_generated_requirements_match_golden():
    land = synth(seed=7, n_options=12, domain_sizes=2, shape="rugged")
    rng = random.Random(0)
    lines = [
        repr(generate_target(land, d, GenSpec(), rng, type_index).fragments)
        for type_index in range(len(TYPE_PATTERNS))
        for d in DEFAULT_D_LEVELS
    ]
    assert sha256("\n".join(lines)) == GOLDEN_REQUIREMENTS


def random_proposition(rng):
    """A valid proposition of 1-6 G, S or E fragments with non-increasing
    scores, over a range across 0 or one of positive values. Some G and S
    fragments are flat, so a shift may clip one and rescore it. Kept apart
    from other tests' generators, so that the digest's inputs stay fixed."""
    n = rng.randint(1, 6)
    lo = rng.choice((-20.0, 0.5))
    edges = sorted(rng.uniform(lo, lo + 40.0) for _ in range(n + 1))
    while any(b - a < 1e-6 for a, b in zip(edges, edges[1:])):
        edges = sorted(rng.uniform(lo, lo + 40.0) for _ in range(n + 1))
    scores = sorted((rng.random() for _ in range(n + 1)), reverse=True)
    frags = []
    for i in range(n):
        kind = rng.choice("GSES")
        if kind == "E" or rng.random() < 0.25:
            scores[i + 1] = scores[i]
        frags.append(Fragment(kind, edges[i], edges[i + 1], scores[i],
                              scores[i + 1]))
    return Proposition(tuple(frags))


def test_edge_shifts_match_golden():
    # memoized as cotune_run memoizes it; the outcomes are those of
    # differential_entropy itself
    entropy = functools.cache(differential_entropy)
    draw = random.Random(2024)
    lines = []
    for _ in range(1000):
        prop = random_proposition(draw)
        lo, hi = prop.v_min, prop.v_max
        seed = draw.randrange(2**32)
        for evolve in (relax_case0, tighten_case1):
            reach = draw.random() * (hi - lo)
            band = ((hi - reach, hi + 1.0) if evolve is relax_case0
                    else (lo - 1.0, lo + reach))
            perfs = [draw.uniform(*band) for _ in range(draw.randint(2, 8))]
            rng = random.Random(seed)
            try:
                out = evolve(prop, perfs, rng, entropy=entropy)
                text = (f"{out.proposition.fragments!r} {out.scores!r} "
                        f"{out.by_entropy}")
            except RequirementEvolutionError as exc:
                text = f"error: {exc}"
            lines.append(f"{text} {rng.getrandbits(64)}")
    assert sha256("\n".join(lines)) == GOLDEN_EDGE_SHIFTS
