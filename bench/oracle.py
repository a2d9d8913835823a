"""Reference computations the benchmark checks cotune's outputs against.

Nothing here imports cotune. A requirement is handled as a plain list of
``(kind, v_lo, v_hi, s_lo, s_hi)`` tuples and scored with its own formula, so
a fault in the program's scorer, meter, writers or generator cannot hide
behind the same fault in the check. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Slack for comparing a score from the program with one computed here: the
# two scorers round differently (the program goes through a slope and an
# intercept), but never by more than a few ulps.
SCORE_TOL = 1e-12


def score(frags, v: float) -> float:
    """Satisfaction of value v under a requirement given as fragment tuples.

    Values outside [v_min, v_max] are clamped. At a boundary shared by two
    fragments the left fragment applies, so a fragment owns (v_lo, v_hi] and
    the first one also owns v_min.
    """
    v = min(max(v, frags[0][1]), frags[-1][2])
    for kind, v_lo, v_hi, s_lo, s_hi in frags:
        if v <= v_hi:
            if kind == "E":
                return s_lo
            return s_lo + (s_hi - s_lo) * ((v - v_lo) / (v_hi - v_lo))
    raise AssertionError("unreachable: v is clamped to the last fragment")


def fingerprint(rows) -> str:
    """sha256 of a trajectory, in the text form of the acceptance suite.

    rows are (iteration, budget_used, best_pt_score, guiding_proposition,
    case_fired, theta, entropy_pa) tuples with ints and floats typed.
    """
    text = "\n".join(
        f"{it},{budget},{best!r},{guiding},{case},{theta!r},{entropy!r}"
        for it, budget, best, guiding, case, theta, entropy in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def digest(fingerprints) -> str:
    """One sha256 over many trajectory fingerprints, in the order given."""
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


def _trajectory_problems(rows, budget: int, what: str) -> list[str]:
    problems = []
    for prev, cur in zip(rows, rows[1:]):
        if cur[1] < prev[1]:
            problems.append(f"{what}: budget_used falls at iteration {cur[0]}")
        if cur[2] < prev[2]:
            problems.append(f"{what}: best score falls at iteration {cur[0]}")
    if rows and rows[-1][1] > budget:
        problems.append(f"{what}: budget_used {rows[-1][1]} exceeds {budget}")
    return problems


def evals_to_best(rows) -> int:
    """Distinct measurements spent when the run first reached its final best."""
    final = rows[-1][2]
    return next(budget for _, budget, best, *_ in rows if best == final)


def check_tuner_run(frags, measurements: dict, optimum: float, budget: int,
                    best_config, best_score: float, budget_consumed: int,
                    meter_consumed: int, meter_cache_size: int,
                    rows) -> list[str]:
    """A direct tuner run against the landscape table and the budget.

    optimum is the best reference score over the whole space.
    """
    problems = []
    if best_config not in measurements:
        return [f"best configuration {best_config} is not in the space"]
    expected = score(frags, measurements[best_config])
    if abs(best_score - expected) > SCORE_TOL:
        problems.append(f"best_score {best_score!r} but the best "
                        f"configuration scores {expected!r}")
    if best_score > optimum + SCORE_TOL:
        problems.append(f"best_score {best_score!r} beats the optimum "
                        f"{optimum!r} of the whole space")
    if not meter_consumed == meter_cache_size == budget_consumed <= budget:
        problems.append(
            f"budget: meter {meter_consumed}, cache {meter_cache_size}, "
            f"reported {budget_consumed}, cap {budget}")
    problems += _trajectory_problems(rows, budget, "trajectory")
    if rows and rows[-1][2] != best_score:
        problems.append(f"trajectory ends at {rows[-1][2]!r}, "
                        f"not at best_score {best_score!r}")
    return problems


def read_trajectory(path) -> list[tuple]:
    """Rows of a trajectory CSV written by a sweep, typed as in fingerprint."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(it), int(budget), float(best), guiding, case,
                 float(theta), float(entropy))
                for it, budget, best, guiding, case, theta, entropy in reader]


def _parse_rank_output(text: str) -> dict:
    """tuner -> (mean, rank) from the lines `cotune rank` prints per tuner."""
    ranked = {}
    for line in text.splitlines():
        if line.startswith("  ") and "(rank " in line:
            name, rest = line.strip().split(": ", 1)
            ranked[name] = (float(rest.split(" ", 1)[0]),
                            int(rest.rsplit("(rank ", 1)[1].rstrip(")")))
    return ranked


def _rank_problems(mean_rank: dict, what: str) -> list[str]:
    problems = []
    ranks = sorted({rank for _, rank in mean_rank.values()})
    if ranks != list(range(1, len(ranks) + 1)):
        problems.append(f"{what}: ranks {ranks} are not contiguous from 1")
    top = max(mean_rank, key=lambda t: mean_rank[t][0])
    if mean_rank[top][1] != 1:
        problems.append(f"{what}: {top} has the highest mean but rank "
                        f"{mean_rank[top][1]}")
    return problems


def check_sweep_cell(out_dir, tuners, repeats: int, budget: int,
                     run_rc: int, rank_rc: int, rank_text: str):
    """One `cotune run` + `cotune rank` cell.

    Returns (problems, fingerprints, runs): the fingerprints of the
    trajectories in sorted path order, and each run's final best score with
    its evaluations-to-best, both read from the trajectory CSVs.
    """
    out_dir = Path(out_dir)
    problems = []
    if run_rc != 0 or rank_rc != 0:
        problems.append(f"exit codes: run {run_rc}, rank {rank_rc}")
    failures = json.loads(
        (out_dir / "manifest.json").read_text(encoding="utf-8"))["failures"]
    if failures:
        problems.append(f"manifest lists failures: {failures}")

    finals: dict[str, list[float]] = {}
    fingerprints, runs = [], []
    for path in sorted(out_dir.glob("*/*/*/seed*.csv")):
        rows = read_trajectory(path)
        problems += _trajectory_problems(rows, budget, str(path))
        fingerprints.append(fingerprint(rows))
        finals.setdefault(path.parent.name, []).append(rows[-1][2])
        runs.append((rows[-1][2], evals_to_best(rows)))

    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = {row["tuner"]: row for row in csv.DictReader(fh)}
    if sorted(summary) != sorted(tuners):
        problems.append(f"summary covers {sorted(summary)}, not {sorted(tuners)}")
        return problems, fingerprints, runs
    mean_rank = {}
    for tuner, row in summary.items():
        scores = finals.get(tuner, [])
        if int(row["runs"]) != repeats or len(scores) != repeats:
            problems.append(f"{tuner}: summary runs {row['runs']}, "
                            f"{len(scores)} trajectories, {repeats} repeats")
            continue
        mean = math.fsum(scores) / len(scores)
        if float(row["mean"]) != mean:
            problems.append(f"{tuner}: summary mean {row['mean']} but the "
                            f"trajectories give {mean!r}")
        mean_rank[tuner] = (mean, int(row["rank"]))
    if mean_rank:
        problems += _rank_problems(mean_rank, "summary.csv")
    printed = _parse_rank_output(rank_text)
    if sorted(printed) != sorted(tuners):
        problems.append(f"cotune rank printed {sorted(printed)}")
    else:
        problems += _rank_problems(printed, "cotune rank")
    return problems, fingerprints, runs


def satisfiable_count(frags, values) -> int:
    """How many of the values score above zero."""
    return sum(1 for v in values if score(frags, v) > 0)


def check_calibration(frags, hits: int, n: int, d: float, violations,
                      program_fraction: float) -> list[str]:
    """A generated target requirement on an exhaustive space of n
    configurations, hits of which satisfiable_count finds satisfiable.

    program_fraction is the satisfiable fraction the program reports for the
    same requirement.
    """
    problems = [f"validate: {v}" for v in violations]
    tolerance = max(0.1 * d, 1.0 / n)
    if abs(hits / n - d) > tolerance:
        problems.append(f"{hits}/{n} configurations satisfiable, "
                        f"not within {tolerance:.3g} of d={d}")
    if program_fraction != hits / n:
        problems.append(f"program reports fraction {program_fraction!r}, "
                        f"counted {hits}/{n}")
    v_min, v_max = frags[0][1], frags[-1][2]
    grid = sorted({v_min + (v_max - v_min) * i / 4096 for i in range(4097)}
                  | {f[2] for f in frags})
    scores = [score(frags, v) for v in grid]
    for (va, sa), (vb, sb) in zip(zip(grid, scores), zip(grid[1:], scores[1:])):
        if sb > sa + SCORE_TOL:
            problems.append(f"score rises from {sa!r} at {va!r} "
                            f"to {sb!r} at {vb!r}")
            break
    return problems
