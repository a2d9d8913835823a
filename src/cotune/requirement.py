"""Quantified performance requirements as piecewise fuzzy satisfaction functions.

A requirement over a (minimized) performance metric is expressed as a
*proposition*: an ordered sequence of fragments tiling ``[v_min, v_max]``.
Each fragment maps metric values to a satisfaction score in ``[0, 1]`` via a
linear (kind ``G`` or ``S``) or constant (kind ``E``) membership function.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        """Membership value at v; v is assumed inside [v_lo, v_hi]."""
        if self.kind == "E":
            return self.s_lo
        slope, intercept = self.line()
        return slope * v + intercept

    def line(self) -> tuple[float, float]:
        """(slope, intercept) of a G or S fragment's membership function.

        Raises ZeroDivisionError on a zero-width fragment.
        """
        slope = (self.s_lo - self.s_hi) / (self.v_lo - self.v_hi)
        intercept = (self.s_hi * self.v_lo - self.s_lo * self.v_hi) / (
            self.v_lo - self.v_hi
        )
        return slope, intercept

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

        The lines hold, per fragment, the (slope, intercept) that
        Fragment.score computes. The slope is None for an E fragment, whose
        intercept is then its constant score. A zero-width G or S fragment
        has no line (None): scoring it goes through Fragment.score, which
        divides by zero as it always has, and validate reports it. A
        proposition that is only validated or encoded never builds these.
        """
        lines = []
        for f in self.fragments:
            if f.kind == "E":
                lines.append((None, f.s_lo))
            elif f.v_lo == f.v_hi:
                lines.append(None)
            else:
                lines.append(f.line())
        bounds = tuple(f.v_hi for f in self.fragments)
        return self.v_min, self.v_max, bounds, tuple(lines)

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
        line = lines[idx]
        if line is None:
            return self.fragments[idx].score(v)
        slope, intercept = line
        return intercept if slope is None else slope * v + intercept

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
        constant = np.array([slope is None for slope, _ in lines])
        slopes = np.array([0.0 if slope is None else slope for slope, _ in lines],
                          dtype=np.float64)
        intercepts = np.array([intercept for _, intercept in lines],
                              dtype=np.float64)
        at = intercepts[idx]
        return np.where(constant[idx], at, slopes[idx] * v + at)

    def integral(self) -> float:
        """Closed-form area under p(v) over [v_min, v_max]."""
        return sum(f.area() for f in self.fragments)

    def encode(self) -> list:
        """Token sequence kind, boundary, kind, ... excluding v_min/v_max."""
        tokens: list = []
        for frag in self.fragments[:-1]:
            tokens.extend((frag.kind, frag.v_hi))
        tokens.append(self.fragments[-1].kind)
        return tokens

    def to_json(self) -> dict:
        return {
            "v_min": self.v_min,
            "v_max": self.v_max,
            "fragments": [
                {
                    "kind": f.kind,
                    "v_lo": f.v_lo,
                    "v_hi": f.v_hi,
                    "s_lo": f.s_lo,
                    "s_hi": f.s_hi,
                }
                for f in self.fragments
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Proposition":
        frags = tuple(
            Fragment(f["kind"], f["v_lo"], f["v_hi"], f["s_lo"], f["s_hi"])
            for f in obj["fragments"]
        )
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
