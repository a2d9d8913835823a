"""Quantified performance requirements as piecewise fuzzy satisfaction functions.

A requirement over a (minimized) performance metric is expressed as a
*proposition*: an ordered sequence of fragments tiling ``[v_min, v_max]``.
Each fragment maps metric values to a satisfaction score in ``[0, 1]`` via a
linear membership function: the line through its end scores (kind ``G`` or
``S``) or the line of slope 0 at its score (kind ``E``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._sums import left_sum

KINDS = ("G", "S", "E")

# Slack for float comparisons in validation; boundary moves and score
# rederivations otherwise trip spurious monotonicity violations.
_EPS = 1e-9


class PropositionError(ValueError):
    """Raised when constructing or loading an ill-formed proposition."""


@dataclass(frozen=True)
class Fragment:
    """One piece of a requirement over the metric interval [v_lo, v_hi].

    kind "G": a greater value is preferred, score runs linearly s_lo -> s_hi.
    kind "S": a smaller value is preferred, same linear form.
    kind "E": every value in the interval is equally preferred at s_lo.
    """

    kind: str
    v_lo: float
    v_hi: float
    s_lo: float
    s_hi: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PropositionError(f"unknown fragment kind {self.kind!r}")

    def score(self, v: float) -> float:
        """Membership value at a finite v; v is assumed inside [v_lo, v_hi]."""
        slope, intercept = self.line()
        return slope * v + intercept

    def line(self) -> tuple[float, float]:
        """(slope, intercept) of the membership function: slope 0 at s_lo
        for an E fragment; through the end scores for a G or S fragment,
        which raises ZeroDivisionError if it has zero width."""
        if self.kind == "E":
            return 0.0, self.s_lo
        dv = self.v_lo - self.v_hi
        return ((self.s_lo - self.s_hi) / dv,
                (self.s_hi * self.v_lo - self.s_lo * self.v_hi) / dv)

    def area(self) -> float:
        """Exact area under the membership function over [v_lo, v_hi]."""
        width = self.v_hi - self.v_lo
        if self.kind == "E":
            return self.s_lo * width
        return 0.5 * (self.s_lo + self.s_hi) * width


@dataclass(frozen=True)
class Proposition:
    """A piecewise satisfaction function p(v) over [v_min, v_max].

    Fragments must tile the metric range exactly: the first fragment starts
    at v_min, the last ends at v_max and adjacent fragments share a boundary
    point. Instances are immutable; every transformation returns a new value.
    """

    fragments: tuple[Fragment, ...]

    def __post_init__(self):
        if not self.fragments:
            raise PropositionError("proposition needs at least one fragment")
        object.__setattr__(self, "fragments", tuple(self.fragments))

    @cached_property
    def _scoring(self) -> tuple:
        """(v_min, v_max, right edges, lines), computed on first scoring.

        The lines hold each fragment's Fragment.line(). A zero-width G or S
        fragment has none (None): scoring it calls Fragment.line, which
        divides by zero as it always has, and validate reports it. A
        proposition that is only validated or encoded never builds these.
        """
        lines = tuple(None if f.kind != "E" and f.v_lo == f.v_hi else f.line()
                      for f in self.fragments)
        bounds = tuple(f.v_hi for f in self.fragments)
        return self.v_min, self.v_max, bounds, lines

    @property
    def v_min(self) -> float:
        return self.fragments[0].v_lo

    @property
    def v_max(self) -> float:
        return self.fragments[-1].v_hi

    def evaluate(self, v: float) -> float:
        """Satisfaction score of a performance value.

        Values outside [v_min, v_max] are clamped to the nearest bound. At a
        boundary point shared by two fragments the left fragment's value
        applies.
        """
        v_min, v_max, bounds, lines = self._scoring
        if v <= v_min:
            idx, v = 0, v_min
        elif v >= v_max:
            idx, v = -1, v_max
        else:
            # first fragment whose right edge reaches v: v in (v_lo, v_hi]
            idx = bisect_left(bounds, v)
        # a zero-width G or S fragment's line divides by zero
        slope, intercept = lines[idx] or self.fragments[idx].line()
        return slope * v + intercept

    def evaluate_many(self, values) -> np.ndarray:
        """Satisfaction scores of a 1-D sequence of values, as float64.

        Equal bit for bit to ``[self.evaluate(v) for v in values]``: the
        same clamping, the same fragment choice (searchsorted with
        side="left" is bisect_left) and the same multiply-then-add on the
        same cached lines, one array operation each.
        """
        v_min, v_max, bounds, lines = self._scoring
        if None in lines:
            # a zero-width G or S fragment: score value by value, so that
            # scoring it divides by zero exactly where evaluate does
            return np.array([self.evaluate(v) for v in values], dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        low = values <= v_min
        high = (values >= v_max) & ~low
        idx = np.searchsorted(bounds, values, side="left")
        idx[low] = 0
        idx[high] = len(lines) - 1
        v = np.where(low, v_min, np.where(high, v_max, values))
        slopes, intercepts = np.array(lines, dtype=np.float64).T
        return slopes[idx] * v + intercepts[idx]

    def integral(self) -> float:
        """Closed-form area under p(v) over [v_min, v_max]."""
        return left_sum(f.area() for f in self.fragments)

    def encode(self) -> list:
        """Token sequence kind, boundary, kind, ... excluding v_min/v_max."""
        tokens: list = []
        for frag in self.fragments[:-1]:
            tokens.extend((frag.kind, frag.v_hi))
        tokens.append(self.fragments[-1].kind)
        return tokens

    def to_json(self) -> dict:
        return {"v_min": self.v_min, "v_max": self.v_max,
                "fragments": [asdict(f) for f in self.fragments]}

    @classmethod
    def from_json(cls, obj: dict) -> "Proposition":
        """The proposition of a to_json object. A bound or score that is not
        finite raises PropositionError (an E line's 0.0 * inf is NaN)."""
        frags = tuple(
            Fragment(f["kind"], f["v_lo"], f["v_hi"], f["s_lo"], f["s_hi"])
            for f in obj["fragments"]
        )
        if not all(math.isfinite(x) for f in frags
                   for x in (f.v_lo, f.v_hi, f.s_lo, f.s_hi)):
            raise PropositionError("bounds and scores must be finite numbers")
        prop = cls(frags)
        if prop.v_min != obj["v_min"] or prop.v_max != obj["v_max"]:
            raise PropositionError("fragment range disagrees with declared bounds")
        return prop

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @classmethod
    def loads(cls, text: str) -> "Proposition":
        return cls.from_json(json.loads(text))


def validate(prop: Proposition) -> list[str]:
    """Check every proposition invariant; returns a list of violations.

    Never raises: an empty list means the proposition is well formed and its
    satisfaction function is non-increasing (minimization convention).
    """
    violations = []
    frags = prop.fragments
    for i, f in enumerate(frags):
        if f.v_lo >= f.v_hi:
            violations.append(f"fragment {i}: zero-width interval")
        for s in (f.s_lo, f.s_hi):
            if not -_EPS <= s <= 1 + _EPS:
                violations.append(f"fragment {i}: score {s} out of range")
        if f.kind == "E" and f.s_lo != f.s_hi:
            violations.append(f"fragment {i}: E fragment with unequal scores")
        if f.s_lo < f.s_hi - _EPS:
            violations.append(f"fragment {i}: non-monotone (score rises with v)")
    for i, (prev, cur) in enumerate(zip(frags, frags[1:])):
        if abs(prev.v_hi - cur.v_lo) > _EPS:
            violations.append(f"tiling gap at fragment {i + 1} ({cur.v_lo})")
        if cur.s_lo > prev.s_hi + _EPS:
            violations.append(
                f"fragment {i + 1}: non-monotone (score jumps up at boundary)"
            )
    return violations
