"""Experiment harness: sweeps, trajectory persistence and statistical ranking.

A sweep is landscapes x requirements x tuners x seeds. Each run writes one
trajectory CSV under ``<out>/<landscape>/<req>/<tuner>/seed<k>.csv``; the
sweep writes ``summary.csv`` (mean, std and rank per cell and tuner) plus
``manifest.json`` with the resolved configuration, the runs it wrote and the
failure log; ``read_trajectories`` reads back the runs that it lists.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from scipy import stats as scipy_stats

from . import landscape as landscape_mod
from . import reqgen, tuners
from .requirement import Proposition

TRAJECTORY_COLUMNS = (
    "iteration", "budget_used", "best_pt_score",
    "guiding_proposition", "case_fired", "theta", "entropy_pa",
)


class HarnessError(ValueError):
    pass


@dataclass
class TunerSpec:
    name: str
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        kind_of = {label: k for k, (label, *_) in tuners.TUNER_KINDS.items()}
        self.kind = self.kind or kind_of.get(self.name, "")
        if self.kind not in tuners.TUNER_KINDS:
            raise HarnessError(f"tuner {self.name!r}: kind must be one of "
                               f"{tuple(tuners.TUNER_KINDS)}")


@dataclass
class ExperimentConfig:
    landscapes: list
    requirements: list
    tuners: list
    out_dir: str
    repeats: int = 30
    seed_base: int = 0
    early_stop: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.repeats < 2:
            raise HarnessError("repeats must be at least 2 for ranking")
        self.tuners = [
            t if isinstance(t, TunerSpec) else TunerSpec(**t)
            for t in self.tuners
        ]

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        config = cls(**obj)
        base = Path(path).parent
        for entry in config.landscapes:
            if "csv" in entry:
                p = base / entry["csv"]
                if not p.exists():
                    raise HarnessError(f"landscape file missing: {p}")
                entry["csv"] = str(p)
        for entry in config.requirements:
            if "file" in entry:
                p = base / entry["file"]
                if not p.exists():
                    raise HarnessError(f"requirement file missing: {p}")
                entry["file"] = str(p)
        return config


def _resolve_landscape(entry) -> landscape_mod.Landscape:
    if "csv" in entry:
        return landscape_mod.load_csv(entry["csv"], name=entry.get("name"))
    if "synth" in entry:
        spec = dict(entry["synth"])
        return landscape_mod.synth(
            seed=spec["seed"],
            n_options=spec["n_options"],
            domain_sizes=spec["domain_sizes"],
            shape=spec["shape"],
            name=entry.get("name"),
        )
    raise HarnessError(f"landscape entry needs 'csv' or 'synth': {entry}")


def _resolve_requirements(entries, land):
    """Yield (label, proposition) pairs from files or a generation spec."""
    out = []
    for entry in entries:
        if "file" in entry:
            prop = Proposition.loads(
                Path(entry["file"]).read_text(encoding="utf-8"))
            out.append((entry.get("name", Path(entry["file"]).stem), prop))
        elif "gen" in entry:
            spec_args = dict(entry["gen"])
            spec = reqgen.GenSpec(
                d_levels=tuple(spec_args.get("d_levels", reqgen.DEFAULT_D_LEVELS)),
                types=spec_args.get("types", 3),
                seed=spec_args.get("seed", 0),
            )
            for item in reqgen.generate_suite(land, spec):
                out.append((
                    f"t{item.type_index + 1}_d{item.d_requested:g}",
                    item.proposition,
                ))
        else:
            raise HarnessError(f"requirement entry needs 'file' or 'gen': {entry}")
    return out


def _trajectory_path(out: Path, landscape, requirement, tuner, seed) -> Path:
    return out / landscape / requirement / tuner / f"seed{seed}.csv"


def _write_trajectory(path: Path, result) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in result.trajectory:
            writer.writerow([
                row.iteration, row.budget_used, repr(row.best_pt_score),
                row.guiding_proposition, row.case_fired,
                repr(row.theta), repr(row.entropy_pa),
            ])


def run_experiment(config: ExperimentConfig):
    """Execute the full sweep; per-run failures are logged, never fatal.

    Returns a dict with the output directory, the summary rows, the failure
    log and the best-rank roll-up. Deterministic for a fixed seed base.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    written = []  # the runs whose trajectories this sweep wrote
    cells = {}  # (landscape, req) -> {tuner: [best scores]}

    work = []
    for land_entry in config.landscapes:
        try:
            land = _resolve_landscape(land_entry)
        except Exception as exc:  # noqa: BLE001 - sweep isolation
            failures.append({"landscape": str(land_entry), "error": str(exc)})
            continue
        try:
            reqs = _resolve_requirements(config.requirements, land)
        except Exception as exc:  # noqa: BLE001
            failures.append({"landscape": land.name, "error": str(exc)})
            continue
        for req_name, prop in reqs:
            for spec in config.tuners:
                for k in range(config.repeats):
                    work.append((land, req_name, prop, spec, k))

    def execute(item):
        land, req_name, prop, spec, k = item
        try:
            params = tuners.TunerParams(early_stop=config.early_stop,
                                        **spec.params)
            result = tuners.run_tuner(spec.kind, land, prop, params,
                                      config.seed_base + k, label=spec.name)
        except Exception as exc:  # noqa: BLE001
            return (land.name, req_name, spec.name, k, None, str(exc))
        return (land.name, req_name, spec.name, k, result, None)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(execute, work))
    else:
        outcomes = [execute(item) for item in work]

    for land_name, req_name, tuner_name, k, result, error in outcomes:
        run = {"landscape": land_name, "requirement": req_name,
               "tuner": tuner_name, "seed": k}
        if error is not None:
            failures.append({**run, "error": error})
            continue
        _write_trajectory(
            _trajectory_path(out, land_name, req_name, tuner_name, k), result)
        written.append(run)
        cells.setdefault((land_name, req_name), {}).setdefault(
            tuner_name, []).append(result.best_score)

    summary_rows = []
    best_rank_counts = {spec.name: 0 for spec in config.tuners}
    for (land_name, req_name) in sorted(cells):
        samples = cells[(land_name, req_name)]
        cell = rank_cell(samples)
        for spec in config.tuners:
            if spec.name not in cell:
                summary_rows.append([land_name, req_name, spec.name,
                                     "", "", "", 0, "x"])
                continue
            mean, std, rank = cell[spec.name]
            if rank == 1:
                best_rank_counts[spec.name] += 1
            summary_rows.append([
                land_name, req_name, spec.name, repr(mean), repr(std),
                "" if rank is None else rank, len(samples[spec.name]), "",
            ])

    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["landscape", "requirement", "tuner",
                         "mean", "std", "rank", "runs", "failed"])
        writer.writerows(summary_rows)

    manifest = {
        "config": {
            "landscapes": config.landscapes,
            "requirements": config.requirements,
            "tuners": [
                {"name": t.name, "kind": t.kind, "params": t.params}
                for t in config.tuners
            ],
            "repeats": config.repeats,
            "seed_base": config.seed_base,
            "early_stop": config.early_stop,
        },
        "runs": written,
        "failures": failures,
        "best_rank_counts": best_rank_counts,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")

    return {
        "out_dir": str(out),
        "summary": summary_rows,
        "failures": failures,
        "best_rank_counts": best_rank_counts,
    }


def cohens_d(a, b) -> float:
    """Effect size between two samples under a pooled standard deviation."""
    na, nb = len(a), len(b)
    mean_gap = abs(statistics.fmean(a) - statistics.fmean(b))
    var_a = statistics.variance(a) if na > 1 else 0.0
    var_b = statistics.variance(b) if nb > 1 else 0.0
    denom = (na + nb - 2) or 1
    pooled = math.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / denom)
    if pooled == 0.0:
        return math.inf if mean_gap > 0 else 0.0
    return mean_gap / pooled


def _split_significant(a, b, test: str, alpha: float) -> bool:
    if statistics.pstdev(a) == 0.0 and statistics.pstdev(b) == 0.0:
        return statistics.fmean(a) != statistics.fmean(b)
    if test == "kruskal":
        _, p = scipy_stats.kruskal(a, b)
    else:
        _, p = scipy_stats.ttest_ind(a, b, equal_var=False)
    return bool(p < alpha)


def scott_knott_esd(samples: dict, effect_threshold: float = 0.2,
                    test: str = "welch", alpha: float = 0.05) -> list:
    """Partition tuners into statistically distinct rank groups.

    Tuners are sorted by mean score (descending) and recursively split at the
    point maximizing the between-group sum of squares; a split stands only
    when the two sides differ significantly (Welch's t-test by default,
    Kruskal-Wallis with test="kruskal") with at least a small effect size
    (Cohen's d >= effect_threshold). Returns groups best-first; rank = index + 1.
    """
    if len(samples) < 2:
        return [sorted(samples)]
    if any(len(s) < 2 for s in samples.values()):
        raise HarnessError("every tuner needs at least 2 scores for ranking")
    names = sorted(samples, key=lambda t: (-statistics.fmean(samples[t]), t))

    def partition(group):
        if len(group) < 2:
            return [group]
        means = [statistics.fmean(samples[t]) for t in group]
        sizes = [len(samples[t]) for t in group]
        grand = sum(m * n for m, n in zip(means, sizes)) / sum(sizes)
        best_cut, best_ssb = None, -1.0
        for cut in range(1, len(group)):
            ssb = 0.0
            for side in (group[:cut], group[cut:]):
                n = sum(len(samples[t]) for t in side)
                m = sum(
                    statistics.fmean(samples[t]) * len(samples[t])
                    for t in side) / n
                ssb += n * (m - grand) ** 2
            if ssb > best_ssb:
                best_cut, best_ssb = cut, ssb
        left, right = group[:best_cut], group[best_cut:]
        pooled_left = [x for t in left for x in samples[t]]
        pooled_right = [x for t in right for x in samples[t]]
        if (cohens_d(pooled_left, pooled_right) >= effect_threshold
                and _split_significant(pooled_left, pooled_right, test, alpha)):
            return partition(left) + partition(right)
        return [group]

    return partition(names)


def ranks(samples: dict, **kwargs) -> dict:
    """Convenience view of scott_knott_esd: tuner -> rank number (1 = best)."""
    groups = scott_knott_esd(samples, **kwargs)
    return {t: i + 1 for i, group in enumerate(groups) for t in group}


def rank_cell(samples: dict, test: str = "welch") -> dict:
    """tuner -> (mean, population std, rank) of one cell's final scores;
    tuners with fewer than two scores get rank None."""
    rank_of = ranks({t: s for t, s in samples.items() if len(s) >= 2},
                    test=test)
    return {t: (statistics.fmean(s), statistics.pstdev(s), rank_of.get(t))
            for t, s in samples.items()}


def read_trajectories(result_dir):
    """(runs, missing) of the latest sweep in result_dir.

    Only the runs that its ``manifest.json`` lists are read, so trajectories
    an earlier sweep left in the directory are not mixed in. runs holds
    ((landscape, requirement, tuner, seed), [(budget_used, best_pt_score)])
    pairs in sweep order; missing, each listed file that is absent or empty.
    """
    result_dir = Path(result_dir)
    try:
        listed = json.loads((result_dir / "manifest.json").read_text(
            encoding="utf-8"))["runs"]
    except (FileNotFoundError, KeyError):
        raise HarnessError(
            f"no manifest.json listing the runs under {result_dir}") from None
    runs, missing = [], []
    for run in listed:
        key = (run["landscape"], run["requirement"], run["tuner"], run["seed"])
        path = _trajectory_path(result_dir, *key)
        points = []
        if path.exists():
            with open(path, newline="", encoding="utf-8") as fh:
                points = [(int(row["budget_used"]), float(row["best_pt_score"]))
                          for row in csv.DictReader(fh)]
        if points:
            runs.append((key, points))
        else:
            missing.append(str(path))
    return runs, missing


def rank_results(result_dir, test: str = "welch") -> list:
    """[((landscape, requirement), [(tuner, mean, std, rank), ...])] for
    each cell of the latest sweep in result_dir with two or more ranked
    tuners, re-ranked from the trajectories; best rank first, ties by name."""
    cells = {}  # (landscape, req) -> {tuner: [final best scores]}
    for (land, req, tuner, _), points in read_trajectories(result_dir)[0]:
        cells.setdefault((land, req), {}).setdefault(tuner, []).append(
            points[-1][1])
    out = []
    for key in sorted(cells):
        cell = rank_cell(cells[key], test)
        ranked = sorted((rank, t) for t, (*_, rank) in cell.items()
                        if rank is not None)
        if len(ranked) >= 2:
            out.append((key, [(t, *cell[t]) for _, t in ranked]))
    return out


def emit_trajectory_plots_data(result_dir, step: int = 10,
                               out_name: str = "trajectories.csv"):
    """Aggregate the latest sweep's trajectories into plot-ready rows.

    Each tuner's best-so-far curves (over every cell and seed) are resampled
    onto a common budget grid and summarized as mean with a normal-theory 95%
    confidence interval. Returns (rows, missing) and writes the CSV.
    """
    result_dir = Path(result_dir)
    curves = {}  # tuner -> list of [(budget, best), ...]
    runs, missing = read_trajectories(result_dir)
    for (_, _, tuner, _), points in runs:
        curves.setdefault(tuner, []).append(points)
    if not curves:
        raise HarnessError(f"no trajectories under {result_dir}")

    max_budget = max(
        pts[-1][0] for runs in curves.values() for pts in runs)
    grid = list(range(0, max_budget + 1, step))
    if grid[-1] != max_budget:
        grid.append(max_budget)

    rows = []
    for tuner in sorted(curves):
        runs = curves[tuner]
        for budget in grid:
            values = []
            for pts in runs:
                best = None
                for b, s in pts:
                    if b <= budget:
                        best = s
                    else:
                        break
                if best is not None:
                    values.append(best)
            if not values:
                continue
            mean = statistics.fmean(values)
            if len(values) > 1:
                half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
            else:
                half = 0.0
            rows.append([tuner, budget, mean, mean - half, mean + half])

    with open(result_dir / out_name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tuner", "budget", "mean_best", "ci_low", "ci_high"])
        for row in rows:
            writer.writerow([row[0], row[1]] + [repr(v) for v in row[2:]])
    return rows, missing
