"""Tests for the piecewise satisfaction model."""

import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotune.requirement import (
    Fragment,
    Proposition,
    PropositionError,
    validate,
)


def reference_score(fragments, v):
    """Independent evaluator: clamp, pick the owning piece (left wins at a
    shared boundary), apply the linear/constant membership directly."""
    v_min, v_max = fragments[0][1], fragments[-1][2]
    v = min(max(v, v_min), v_max)
    owner = fragments[-1]
    for frag in fragments:
        kind, lo, hi, s_lo, s_hi = frag
        if v <= hi:
            owner = frag
            break
    kind, lo, hi, s_lo, s_hi = owner
    if kind == "E":
        return s_lo
    return ((s_lo - s_hi) / (lo - hi)) * v + (s_hi * lo - s_lo * hi) / (lo - hi)


def random_valid_proposition(rng):
    n = rng.randint(1, 6)
    edges = sorted(rng.uniform(-20.0, 20.0) for _ in range(n + 1))
    while any(b - a < 1e-6 for a, b in zip(edges, edges[1:])):
        edges = sorted(rng.uniform(-20.0, 20.0) for _ in range(n + 1))
    scores = sorted((rng.random() for _ in range(n + 1)), reverse=True)
    frags = []
    for i in range(n):
        kind = rng.choice(["S", "E", "S"])
        if kind == "E":
            s_lo = s_hi = scores[i]
            scores[i + 1] = scores[i]
        else:
            s_lo, s_hi = scores[i], scores[i + 1]
        frags.append(Fragment(kind, edges[i], edges[i + 1], s_lo, s_hi))
    return Proposition(tuple(frags))


EXAMPLE = Proposition((
    Fragment("E", 0.0, 2.0, 1.0, 1.0),
    Fragment("S", 2.0, 3.5, 1.0, 0.6),
    Fragment("E", 3.5, 5.0, 0.6, 0.6),
    Fragment("S", 5.0, 8.0, 0.6, 0.0),
))


class TestFragment:
    def test_linear_score_endpoints(self):
        f = Fragment("S", 2.0, 4.0, 1.0, 0.5)
        assert f.score(2.0) == pytest.approx(1.0)
        assert f.score(4.0) == pytest.approx(0.5)
        assert f.score(3.0) == pytest.approx(0.75)

    def test_constant_score(self):
        f = Fragment("E", 0.0, 3.0, 0.4, 0.4)
        for v in (0.0, 1.7, 3.0):
            assert f.score(v) == 0.4

    def test_e_fragment_is_a_line_of_slope_0(self):
        f = Fragment("E", -3.0, 5.0, 0.4, 0.4)
        assert list(map(bits, f.line())) == [bits(0.0), bits(0.4)]
        values = [-3.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.5, 5.0, -1e300,
                  1e300]
        assert [bits(f.score(v)) for v in values] == [bits(0.4)] * len(values)
        prop = Proposition((f,))
        clamps = [-math.inf, -4.0, 6.0, math.inf]
        assert [bits(prop.evaluate(v)) for v in values + clamps] == (
            [bits(0.4)] * len(values + clamps))
        assert_bitwise_equal(prop.evaluate_many(values + clamps),
                             [0.4] * len(values + clamps))

    def test_e_fragment_at_minus_zero(self):
        # 0.0 * v + -0.0 is +0.0 at v >= 0 and -0.0 below: equal to 0.0
        # everywhere, but only its sign below 0 is kept
        f = Fragment("E", -2.0, 2.0, -0.0, -0.0)
        assert list(map(bits, f.line())) == [bits(0.0), bits(-0.0)]
        assert bits(f.score(-1.0)) == bits(-0.0)
        assert bits(f.score(0.0)) == bits(f.score(1.0)) == bits(0.0)
        prop = Proposition((f,))
        values = [-3.0, -1.0, 0.0, 1.0, 3.0]
        scores = [-0.0, -0.0, 0.0, 0.0, 0.0]
        assert [bits(prop.evaluate(v)) for v in values] == list(map(bits, scores))
        assert_bitwise_equal(prop.evaluate_many(values), scores)

    def test_area(self):
        assert Fragment("E", 0.0, 2.0, 0.5, 0.5).area() == pytest.approx(1.0)
        assert Fragment("S", 0.0, 2.0, 1.0, 0.0).area() == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PropositionError):
            Fragment("Q", 0.0, 1.0, 1.0, 0.0)


class TestEvaluate:
    def test_matches_reference_on_random_propositions(self):
        rng = random.Random(7)
        for _ in range(300):
            prop = random_valid_proposition(rng)
            spec = [(f.kind, f.v_lo, f.v_hi, f.s_lo, f.s_hi)
                    for f in prop.fragments]
            for _ in range(30):
                v = rng.uniform(prop.v_min - 5.0, prop.v_max + 5.0)
                assert prop.evaluate(v) == pytest.approx(
                    reference_score(spec, v), abs=1e-12)

    def test_clamping(self):
        assert EXAMPLE.evaluate(-100.0) == 1.0
        assert EXAMPLE.evaluate(100.0) == 0.0

    def test_left_fragment_wins_at_boundary(self):
        # at v=2 the E fragment (score 1) applies, not the descending S
        assert EXAMPLE.evaluate(2.0) == 1.0
        assert EXAMPLE.evaluate(3.5) == pytest.approx(0.6)

    def test_scores_bounded(self):
        rng = random.Random(13)
        prop = random_valid_proposition(rng)
        for _ in range(200):
            v = rng.uniform(prop.v_min - 1, prop.v_max + 1)
            assert 0.0 <= prop.evaluate(v) <= 1.0


def bits(x):
    return struct.pack("<d", x)


def assert_bitwise_equal(many, scalar):
    assert many.dtype == np.float64
    assert many.tobytes() == np.array(scalar, dtype=np.float64).tobytes()


def probe_values(prop, rng):
    """Every fragment boundary and its float neighbours, clamped values
    below v_min and above v_max, a grid spanning the range and random
    draws around it."""
    edges = [prop.v_min] + [f.v_hi for f in prop.fragments]
    span = prop.v_max - prop.v_min
    return (
        edges
        + [math.nextafter(e, math.inf) for e in edges]
        + [math.nextafter(e, -math.inf) for e in edges]
        + [-math.inf, prop.v_min - 1.0, prop.v_max + 1.0, math.inf]
        + [prop.v_min + span * i / 256 for i in range(257)]
        + [rng.uniform(prop.v_min - 5.0, prop.v_max + 5.0) for _ in range(50)]
    )


class TestEvaluateMany:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equals_scalar_evaluate(self, seed):
        rng = random.Random(seed)
        prop = random_valid_proposition(rng)
        values = probe_values(prop, rng)
        assert_bitwise_equal(prop.evaluate_many(values),
                             [prop.evaluate(v) for v in values])

    def test_accepts_an_array_and_an_empty_input(self):
        values = np.linspace(-1.0, 9.0, 41)
        assert_bitwise_equal(EXAMPLE.evaluate_many(values),
                             [EXAMPLE.evaluate(v) for v in values])
        assert EXAMPLE.evaluate_many([]).shape == (0,)

    def test_scalar_evaluate_is_fragment_score(self):
        rng = random.Random(5)
        for _ in range(200):
            prop = random_valid_proposition(rng)
            first, last = prop.fragments[0], prop.fragments[-1]
            for v in probe_values(prop, rng):
                if v <= prop.v_min:
                    expected = first.score(first.v_lo)
                elif v >= prop.v_max:
                    expected = last.score(prop.v_max)
                else:
                    owner = next(f for f in prop.fragments if v <= f.v_hi)
                    expected = owner.score(v)
                assert bits(prop.evaluate(v)) == bits(expected)

    def test_zero_width_interior_fragment_scores_on_both_paths(self):
        prop = Proposition((
            Fragment("E", 0.0, 1.0, 1.0, 1.0),
            Fragment("S", 1.0, 1.0, 1.0, 0.8),
            Fragment("S", 1.0, 3.0, 0.8, 0.0),
        ))
        assert any("zero-width" in v for v in validate(prop))
        values = [-1.0, 0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, 3.0, 4.0]
        scalar = [prop.evaluate(v) for v in values]
        assert_bitwise_equal(prop.evaluate_many(values), scalar)

    def test_zero_width_end_fragment_divides_on_both_paths(self):
        # clamped values score the first fragment at v_min, where a
        # zero-width line divides by zero; interior values do not reach it
        prop = Proposition((
            Fragment("S", 0.0, 0.0, 1.0, 0.5),
            Fragment("E", 0.0, 2.0, 0.5, 0.5),
        ))
        with pytest.raises(ZeroDivisionError):
            prop.evaluate(-1.0)
        with pytest.raises(ZeroDivisionError):
            prop.evaluate_many([1.0, -1.0])
        assert_bitwise_equal(prop.evaluate_many([1.0, 2.0, 3.0]),
                             [0.5, 0.5, 0.5])


class TestIntegral:
    def test_example_closed_form(self):
        # 2*1 + 1.5*(1+0.6)/2 + 1.5*0.6 + 3*0.6/2
        assert EXAMPLE.integral() == pytest.approx(2 + 1.2 + 0.9 + 0.9)

    def test_matches_quadrature(self):
        rng = random.Random(23)
        for _ in range(50):
            prop = random_valid_proposition(rng)
            total = 0.0
            for f in prop.fragments:
                xs = [f.v_lo + (f.v_hi - f.v_lo) * i / 64 for i in range(65)]
                ys = [prop.evaluate(x) if x > f.v_lo else f.score(f.v_lo)
                      for x in xs]
                total += sum(
                    0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i])
                    for i in range(64))
            assert prop.integral() == pytest.approx(total, abs=1e-9)


class TestEncodeDecode:
    def test_known_encoding(self):
        assert EXAMPLE.encode() == ["E", 2.0, "S", 3.5, "E", 5.0, "S"]


class TestJson:
    def test_round_trip(self):
        assert Proposition.loads(EXAMPLE.dumps()) == EXAMPLE

    def test_bounds_checked(self):
        obj = json.loads(EXAMPLE.dumps())
        obj["v_max"] = 99.0
        with pytest.raises(PropositionError):
            Proposition.from_json(obj)

    @pytest.mark.parametrize("key", ["v_min", "v_max", "v_lo", "v_hi",
                                     "s_lo", "s_hi"])
    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_numbers_rejected(self, key, token):
        # json reads these tokens as floats; an E fragment would score
        # 0.0 * inf, which is NaN, at an infinite bound
        obj = json.loads(EXAMPLE.dumps())
        if key in ("v_min", "v_max"):
            obj[key] = "@"
            frag = obj["fragments"][0 if key == "v_min" else -1]
            frag["v_lo" if key == "v_min" else "v_hi"] = "@"
        else:
            obj["fragments"][2][key] = "@"
        text = json.dumps(obj).replace('"@"', token)
        with pytest.raises(PropositionError, match="finite"):
            Proposition.loads(text)


class TestValidate:
    def test_valid_example(self):
        assert validate(EXAMPLE) == []

    def test_zero_width(self):
        prop = Proposition((Fragment("E", 1.0, 1.0, 0.5, 0.5),))
        assert any("zero-width" in v for v in validate(prop))

    def test_tiling_gap(self):
        prop = Proposition((
            Fragment("E", 0.0, 1.0, 1.0, 1.0),
            Fragment("S", 2.0, 3.0, 1.0, 0.0),
        ))
        assert any("gap" in v for v in validate(prop))

    def test_score_out_of_range(self):
        prop = Proposition((Fragment("E", 0.0, 1.0, 1.5, 1.5),))
        assert any("out of range" in v for v in validate(prop))

    def test_rising_fragment_rejected(self):
        prop = Proposition((Fragment("G", 0.0, 1.0, 0.2, 0.9),))
        assert any("non-monotone" in v for v in validate(prop))

    def test_upward_jump_rejected(self):
        prop = Proposition((
            Fragment("S", 0.0, 1.0, 1.0, 0.2),
            Fragment("E", 1.0, 2.0, 0.8, 0.8),
        ))
        assert any("jumps up" in v for v in validate(prop))

    def test_unequal_e_scores_rejected(self):
        prop = Proposition((Fragment("E", 0.0, 1.0, 0.9, 0.3),))
        assert any("unequal" in v for v in validate(prop))

    def test_flat_g_fragment_is_valid(self):
        prop = Proposition((Fragment("G", 0.0, 1.0, 0.5, 0.5),))
        assert validate(prop) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_valid_propositions_pass(self, seed):
        prop = random_valid_proposition(random.Random(seed))
        assert validate(prop) == []


def test_evaluate_monotone_non_increasing():
    rng = random.Random(99)
    for _ in range(100):
        prop = random_valid_proposition(rng)
        vs = sorted(rng.uniform(prop.v_min, prop.v_max) for _ in range(50))
        scores = [prop.evaluate(v) for v in vs]
        for a, b in zip(scores, scores[1:]):
            assert b <= a + 1e-9
