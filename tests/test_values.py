"""The small values every tuner run builds keep their observable forms.

``Fragment``, ``ga.Member`` and ``tuners.TrajectoryRow`` are tuples with
named fields, and a ``Proposition`` builds its scoring lines on first
scoring. Their reprs, JSON, pickles and CSV columns are pinned here, and
``validate`` and ``preserve_top`` are checked against verbatim copies of the
code they replaced: trajectories and golden digests depend on every one.
"""

import csv
import json
import pickle
import random

import pytest

from cotune import tuners
from cotune.ga import Member, preserve_top
from cotune.harness import _write_trajectory
from cotune.landscape import synth
from cotune.requirement import Fragment, Proposition, PropositionError, validate

PROP = Proposition((Fragment("E", 0.0, 1.5, 1.0, 1.0),
                    Fragment("S", 1.5, 4.0, 1.0, 0.25),
                    Fragment("E", 4.0, 10.0, 0.25, 0.25)))

TRAJECTORY_COLUMNS = ["iteration", "budget_used", "best_pt_score",
                      "guiding_proposition", "case_fired", "theta",
                      "entropy_pa"]


def fresh():
    return Proposition(PROP.fragments)


def built(prop) -> bool:
    """Whether prop has built its scoring lines."""
    return "_scoring" in vars(prop)


# -- the replaced code, verbatim ---------------------------------------------

def ref_validate(prop):
    eps = 1e-9
    violations = []
    frags = prop.fragments
    for i, f in enumerate(frags):
        if f.v_lo >= f.v_hi:
            violations.append(f"fragment {i}: zero-width interval")
        for s in (f.s_lo, f.s_hi):
            if not -eps <= s <= 1 + eps:
                violations.append(f"fragment {i}: score {s} out of range")
        if f.kind == "E" and f.s_lo != f.s_hi:
            violations.append(f"fragment {i}: E fragment with unequal scores")
        if f.s_lo < f.s_hi - eps:
            violations.append(f"fragment {i}: non-monotone (score rises with v)")
    for i, (prev, cur) in enumerate(zip(frags, frags[1:])):
        if abs(prev.v_hi - cur.v_lo) > eps:
            violations.append(f"tiling gap at fragment {i + 1} ({cur.v_lo})")
        if cur.s_lo > prev.s_hi + eps:
            violations.append(
                f"fragment {i + 1}: non-monotone (score jumps up at boundary)"
            )
    return violations


def ref_preserve_top(candidates, n):
    ranked = sorted(candidates, key=lambda m: (-m.fitness, m.order))
    return ranked[:n]


# -- tests -------------------------------------------------------------------

class TestFragment:
    def test_repr(self):
        assert (repr(Fragment("S", 1.5, 4.0, 1.0, 0.25))
                == "Fragment(kind='S', v_lo=1.5, v_hi=4.0, s_lo=1.0, s_hi=0.25)")

    def test_keywords_and_fields(self):
        frag = Fragment(kind="S", v_lo=1.5, v_hi=4.0, s_lo=1.0, s_hi=0.25)
        assert frag == Fragment("S", 1.5, 4.0, 1.0, 0.25)
        assert (frag.kind, frag.v_lo, frag.v_hi, frag.s_lo, frag.s_hi) == (
            "S", 1.5, 4.0, 1.0, 0.25)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PROP.fragments[0].s_lo = 0.5

    def test_unknown_kind_keyword(self):
        with pytest.raises(PropositionError, match="unknown fragment kind"):
            Fragment(kind="X", v_lo=0.0, v_hi=1.0, s_lo=1.0, s_hi=0.0)


class TestProposition:
    def test_to_json_is_pinned(self):
        assert json.dumps(PROP.to_json()) == (
            '{"v_min": 0.0, "v_max": 10.0, "fragments": ['
            '{"kind": "E", "v_lo": 0.0, "v_hi": 1.5, "s_lo": 1.0, "s_hi": 1.0}, '
            '{"kind": "S", "v_lo": 1.5, "v_hi": 4.0, "s_lo": 1.0, "s_hi": 0.25}, '
            '{"kind": "E", "v_lo": 4.0, "v_hi": 10.0, "s_lo": 0.25, '
            '"s_hi": 0.25}]}')
        assert Proposition.loads(PROP.dumps()) == PROP

    @pytest.mark.parametrize("score_first", [False, True])
    def test_pickles_equal(self, score_first):
        prop = fresh()
        if score_first:
            prop.evaluate(2.0)
        copy = pickle.loads(pickle.dumps(prop))
        assert copy == prop
        assert built(copy) == score_first
        assert [copy.evaluate(v) for v in (0.5, 2.0, 4.0, 7.0)] == [
            prop.evaluate(v) for v in (0.5, 2.0, 4.0, 7.0)]

    def test_validate_and_encode_build_no_scoring_lines(self):
        prop = fresh()
        assert validate(prop) == []
        prop.encode()
        prop.to_json()
        prop.integral()
        assert prop == PROP and hash(prop) == hash(PROP)
        assert not built(prop)

    @pytest.mark.parametrize("score", [lambda p: p.evaluate(2.0),
                                       lambda p: p.evaluate_many([2.0])])
    def test_scoring_builds_the_lines_once(self, score):
        prop = fresh()
        score(prop)
        assert built(prop)
        lines = vars(prop)["_scoring"]
        score(prop)
        assert vars(prop)["_scoring"] is lines


def random_fragments(rng):
    """1 to 5 fragments, often broken: gaps, zero widths, rising, unequal E
    scores and out-of-range scores, in any combination."""
    edges = sorted(rng.choice((0.0, 1.0, rng.uniform(-5, 5)))
                   for _ in range(rng.randint(2, 6)))
    scores = [rng.choice((0.0, 1.0, 1.0 + 1e-8, -1e-8, rng.random()))
              for _ in edges]
    frags = []
    for lo, hi, s_lo, s_hi in zip(edges, edges[1:], scores, scores[1:]):
        if rng.random() < 0.2:
            lo += rng.choice((1e-6, -1e-6))  # a gap or an overlap
        if rng.random() < 0.2:
            s_lo = rng.random()  # a jump at the boundary
        frags.append(Fragment(rng.choice("GSE"), lo, hi, s_lo, s_hi))
    return frags


VIOLATIONS = ("zero-width interval", "out of range", "unequal scores",
              "score rises with v", "tiling gap", "jumps up at boundary")


def test_validate_reports_as_before():
    rng = random.Random(29)
    seen = set()
    for _ in range(3000):
        prop = Proposition(random_fragments(rng))
        got = validate(prop)
        assert got == ref_validate(prop), prop
        seen.update(kind for kind in VIOLATIONS for text in got if kind in text)
    assert seen == set(VIOLATIONS)


def test_preserve_top_ranks_as_before():
    rng = random.Random(3)
    for _ in range(500):
        count = rng.randint(1, 25)
        members = [Member((i,), rng.random(),
                          rng.choice((0.0, 0.5, 1.0, -0.0, rng.random())),
                          rng.randrange(40))
                   for i in range(count)]
        n = rng.randint(1, count)
        assert preserve_top(members, n) == ref_preserve_top(members, n)


class TestRecords:
    def test_member_fields(self):
        member = Member((0, 1), 2.5, 0.5, 3)
        assert repr(member) == "Member(config=(0, 1), perf=2.5, fitness=0.5, order=3)"
        assert member._fields == ("config", "perf", "fitness", "order")

    def test_trajectory_csv_columns_and_rows(self, tmp_path):
        land = synth(seed=3, n_options=6, domain_sizes=2, shape="additive")
        params = tuners.TunerParams(budget=60, generations=3,
                                    early_stop=False)
        result = tuners.cotune_run(land, PROP, params, seed=5)
        path = tmp_path / "traj" / "seed0.csv"
        _write_trajectory(path, result)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRAJECTORY_COLUMNS
        assert list(tuners.TrajectoryRow._fields) == TRAJECTORY_COLUMNS
        assert rows[1:] == [[str(x) for x in row] for row in result.trajectory]
        assert rows[1:] == [
            [repr(row.iteration), repr(row.budget_used),
             repr(row.best_pt_score), row.guiding_proposition,
             row.case_fired, repr(row.theta), repr(row.entropy_pa)]
            for row in result.trajectory]
