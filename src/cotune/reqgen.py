"""Target-proposition synthesis at controlled satisfiability levels.

A generated proposition is a monotone five-fragment curve whose zero-score
onset is calibrated (by bisection against the exhaustive landscape) so that a
requested fraction d of all configurations gets a nonzero score. Lower d
means a stricter requirement.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .landscape import Landscape, satisfiability_fraction
from .requirement import Fragment, Proposition, validate

DEFAULT_D_LEVELS = (0.001, 0.01, 0.05, 0.2, 0.5, 0.9)

# kind patterns for the shaped (nonzero) region of each requirement type;
# the fifth fragment is the tail appended during construction
TYPE_PATTERNS = (
    ("E", "S", "E", "S"),
    ("S", "E", "S", "S"),
    ("S", "S", "E", "S"),
)

BISECTION_STEPS = 200

# a generated proposition's satisfiable fraction may miss d by this fraction
# of d (or by one configuration, if that is more)
RELATIVE_TOLERANCE = 0.1


class CalibrationError(RuntimeError):
    pass


@dataclass
class GenSpec:
    d_levels: tuple = DEFAULT_D_LEVELS
    types: int = 3
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < d <= 1.0 for d in self.d_levels):
            raise ValueError("d levels must lie in (0, 1]")
        levels = [f"{d:g}" for d in self.d_levels]  # as labels() has them
        if len(set(levels)) < len(levels):
            raise ValueError("d levels must differ in their first 6 "
                             f"significant digits: {', '.join(levels)}")
        if not 1 <= self.types <= len(TYPE_PATTERNS):
            raise ValueError(f"types must be between 1 and {len(TYPE_PATTERNS)}")

    def labels(self) -> list:
        """Each requirement's label, t<type>_d<level>, in generate_suite's
        order; it names the requirement's file and its sweep cell."""
        return [f"t{t + 1}_d{d:g}" for t in range(self.types)
                for d in self.d_levels]

    def tolerance(self, d: float, space_size: int) -> float:
        return max(RELATIVE_TOLERANCE * d, 1.0 / space_size)


def _shape_scores(pattern, rng: random.Random):
    """Boundary scores s0..s4 for the shaped region: start at 1, end at 0,
    equal across E fragments, strictly descending across S fragments."""
    scores = [1.0, None, None, None, 0.0]
    for i, kind in enumerate(pattern):
        if kind == "E" and scores[i] is not None:
            scores[i + 1] = scores[i]
    # fill the remaining free scores with sorted uniform draws
    free = [i for i in range(1, 4) if scores[i] is None]
    draws = sorted((rng.uniform(0.02, 0.98) for _ in free), reverse=True)
    for i, s in zip(free, draws):
        scores[i] = s
    # repair: E equality may have been set before a free predecessor
    for i, kind in enumerate(pattern):
        if kind == "E":
            scores[i + 1] = scores[i]
    # enforce strict descent over S fragments by nudging collisions apart
    for i, kind in enumerate(pattern):
        if kind == "S" and scores[i + 1] >= scores[i]:
            scores[i + 1] = scores[i] * (0.5 if i + 1 < 4 else 0.0)
    return scores


def _build(pattern, v_min, v_max, onset, ratios, scores, tail_score=0.0):
    """Assemble the proposition: four shaped fragments on [v_min, onset] at
    the given interior ratios, then an E tail on [onset, v_max]."""
    bounds = [v_min + r * (onset - v_min) for r in (0.0, *ratios, 1.0)]
    frags = []
    for i, kind in enumerate(pattern):
        s_lo, s_hi = scores[i], scores[i + 1]
        if kind == "E":
            s_hi = s_lo
        frags.append(Fragment(kind, bounds[i], bounds[i + 1], s_lo, s_hi))
    if tail_score > 0.0:
        # fully satisfiable variant: the curve never reaches zero
        frags[-1] = Fragment(pattern[-1], bounds[-2], bounds[-1],
                             scores[-2], tail_score)
        frags.append(Fragment("E", onset, v_max, tail_score, tail_score))
    else:
        frags.append(Fragment("E", onset, v_max, 0.0, 0.0))
    return Proposition(tuple(frags))


def generate_target(landscape: Landscape, d: float, spec: GenSpec,
                    rng: random.Random, type_index: int = 0) -> Proposition:
    """Generate one calibrated proposition.

    The shaped region's interior boundary ratios and scores are drawn once
    per call; the zero-score onset is then bisected so the achieved
    satisfiable fraction lands within spec's tolerance of d.
    """
    if not 0.0 < d <= 1.0:
        raise ValueError("d must lie in (0, 1]")
    v_min, v_max = landscape.v_min, landscape.v_max
    if v_min >= v_max:
        raise CalibrationError(
            f"{landscape.name}: constant performance, nothing to calibrate")
    pattern = TYPE_PATTERNS[type_index % len(TYPE_PATTERNS)]
    ratios = sorted(rng.uniform(0.05, 0.95) for _ in range(3))
    # keep interior boundaries strictly separated
    for i in range(1, 3):
        if ratios[i] <= ratios[i - 1]:
            ratios[i] = ratios[i - 1] + 0.01
    scores = _shape_scores(pattern, rng)
    tolerance = spec.tolerance(d, landscape.space_size)
    span = v_max - v_min

    def try_onset(onset):
        """The proposition with this onset and its satisfiable fraction."""
        prop = _build(pattern, v_min, v_max, onset, ratios, scores)
        try:
            return prop, satisfiability_fraction(landscape, prop)
        except ZeroDivisionError as exc:
            # the onset came so close to v_min that shaped fragments
            # collapsed to zero width, and scoring one divides by zero
            raise CalibrationError(
                f"{landscape.name}: cannot realize d={d}: at onset {onset!r} "
                "the shaped fragments collapse to zero width (more than a "
                "fraction d of the space may share the best value)") from exc

    if abs(1.0 - d) <= tolerance:
        prop = _build(pattern, v_min, v_max, v_max - 1e-9 * span, ratios,
                      scores, tail_score=0.05 * scores[3] + 0.01)
        _check(prop, satisfiability_fraction(landscape, prop), d, tolerance)
        return prop

    lo, hi = v_min, v_max
    best_prop, best_frac, best_err = None, None, float("inf")
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not v_min < mid < v_max:
            break
        prop, frac = try_onset(mid)
        err = abs(frac - d)
        if err < best_err:
            best_prop, best_frac, best_err = prop, frac, err
        if err <= tolerance:
            break
        if frac < d:
            lo = mid
        else:
            hi = mid
    if best_prop is None or best_err > tolerance:
        raise CalibrationError(
            f"{landscape.name}: cannot realize d={d} within ±{tolerance:.4g} "
            f"(best error {best_err:.4g})")
    _check(best_prop, best_frac, d, tolerance)
    return best_prop


def _check(prop, achieved, d, tolerance):
    """Reject an invalid proposition or one whose satisfiable fraction
    ``achieved`` drifted from d."""
    problems = validate(prop)
    if problems:
        raise CalibrationError(f"generated proposition invalid: {problems}")
    if abs(achieved - d) > tolerance:
        raise CalibrationError(
            f"calibration drifted: achieved {achieved}, wanted {d}±{tolerance}")


@dataclass
class SuiteEntry:
    type_index: int
    d_requested: float
    d_achieved: float
    proposition: Proposition
    file: str = ""


def generate_suite(landscape: Landscape, spec: GenSpec,
                   out_dir=None) -> list:
    """Cross-product of requirement types and d levels (default 3 x 6 = 18).

    With out_dir set, each proposition is written as JSON (with achieved-d
    metadata) next to a manifest CSV indexing the suite.
    """
    rng = random.Random(spec.seed)
    entries = []
    for type_index in range(spec.types):
        for d in spec.d_levels:
            prop = generate_target(landscape, d, spec, rng, type_index)
            entries.append(SuiteEntry(
                type_index, d, satisfiability_fraction(landscape, prop), prop))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry, label in zip(entries, spec.labels()):
            fname = f"req_{label}.json"
            payload = entry.proposition.to_json()
            payload["metadata"] = {
                "landscape": landscape.name,
                "type_index": entry.type_index,
                "d_requested": entry.d_requested,
                "d_achieved": entry.d_achieved,
            }
            (out_dir / fname).write_text(
                json.dumps(payload, indent=2), encoding="utf-8")
            entry.file = fname
        with open(out_dir / "manifest.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["landscape", "type_index", "d_requested", "d_achieved", "file"])
            for entry in entries:
                writer.writerow([
                    landscape.name, entry.type_index, entry.d_requested,
                    entry.d_achieved, entry.file,
                ])
    return entries
