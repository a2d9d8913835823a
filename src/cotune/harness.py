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

import numpy as np

from . import landscape as landscape_mod
from . import reqgen, tuners
from .requirement import Proposition

TRAJECTORY_COLUMNS = (
    "iteration", "budget_used", "best_pt_score",
    "guiding_proposition", "case_fired", "theta", "entropy_pa",
)

# the effect size and significance level a Scott-Knott ESD split must reach
EFFECT_THRESHOLD = 0.2
ALPHA = 0.05

# budget spacing of the common grid that trajectories.csv resamples onto
PLOT_STEP = 10


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
        for key in ("repeats", "seed_base", "jobs"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise HarnessError(f"{key} must be an integer, not {value!r}")
        if not isinstance(self.early_stop, bool):
            raise HarnessError(
                f"early_stop must be true or false, not {self.early_stop!r}")
        if self.repeats < 2:
            raise HarnessError("repeats must be at least 2 for ranking")
        if self.jobs < 1:
            raise HarnessError(f"jobs must be at least 1, not {self.jobs}")
        self.tuners = [
            t if isinstance(t, TunerSpec) else TunerSpec(**t)
            for t in self.tuners
        ]

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config file. A file that cannot be read or is not a JSON
        object, an unknown key, and a landscape or requirement entry that is
        not an object or names a missing file raise HarnessError."""
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise HarnessError(f"cannot read config {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise HarnessError(f"config {path} is not a JSON object")
        try:
            config = cls(**obj)
        except TypeError as exc:  # an unknown or missing key
            raise HarnessError(f"config {path}: {exc}") from None
        base = Path(path).parent
        for kind, entries, key in (("landscape", config.landscapes, "csv"),
                                   ("requirement", config.requirements, "file")):
            if not (isinstance(entries, list)
                    and all(isinstance(e, dict) for e in entries)):
                raise HarnessError(
                    f"config {path}: {kind}s must be a list of JSON objects")
            for entry in entries:
                if key in entry:
                    p = base / entry[key]
                    if not p.exists():
                        raise HarnessError(f"{kind} file missing: {p}")
                    entry[key] = str(p)
        return config


# the keys of a landscape entry's "synth" object: landscape.synth's arguments
SYNTH_KEYS = ("seed", "n_options", "domain_sizes", "shape")


def _check_landscape_entry(entry) -> None:
    """Raise HarnessError for an entry that names neither a CSV nor a
    synth spec, or whose synth spec lacks one of SYNTH_KEYS or has another
    key."""
    if "csv" in entry:
        return
    if "synth" not in entry:
        raise HarnessError(f"landscape entry needs 'csv' or 'synth': {entry}")
    spec = entry["synth"]
    if not isinstance(spec, dict):
        raise HarnessError(f"landscape entry {entry}: 'synth' must be an "
                           "object")
    missing = [key for key in SYNTH_KEYS if key not in spec]
    unknown = sorted(set(spec) - set(SYNTH_KEYS))
    if missing or unknown:
        raise HarnessError(
            f"landscape entry {entry}: 'synth' needs exactly the keys "
            f"{', '.join(SYNTH_KEYS)}; missing: {missing}, unknown: {unknown}")


def _resolve_landscape(entry) -> landscape_mod.Landscape:
    if "csv" in entry:
        # an unnamed CSV landscape is named by its file stem: its path may be
        # absolute, and out_dir / name would then drop out_dir
        return landscape_mod.load_csv(
            entry["csv"], name=entry.get("name") or Path(entry["csv"]).stem)
    return landscape_mod.synth(**entry["synth"], name=entry.get("name"))


def _load_requirements(entries) -> list:
    """Each requirement entry as (labels, source): a file's proposition,
    labelled by its 'name' or file stem, or a GenSpec, which only a landscape
    can resolve, with its labels(). A file that cannot be read or parsed, a
    spec that GenSpec rejects (or with an unknown key), an entry with neither
    key, and two requirements of one label raise HarnessError."""
    out = []
    for entry in entries:
        if "file" not in entry and "gen" not in entry:
            raise HarnessError(
                f"requirement entry needs 'file' or 'gen': {entry}")
        try:
            if "file" in entry:
                path = Path(entry["file"])
                prop = Proposition.loads(path.read_text(encoding="utf-8"))
                out.append(([entry.get("name", path.stem)], prop))
            else:
                spec = reqgen.GenSpec(**entry["gen"])
                out.append((spec.labels(), spec))
        # an unreadable file, bad JSON or a bad value (ValueError), a missing
        # key, or an unknown key or a value of the wrong type (TypeError)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise HarnessError(f"requirement {entry}: {detail}") from None
    # results are filed by requirement label: two requirements of one label
    # would share trajectory files and summary cells
    labels = [label for item_labels, _ in out for label in item_labels]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise HarnessError(
            f"two requirements are labelled {repeated[0]!r}; give each file "
            "entry a distinct 'name' and gen entries distinct d levels or types")
    return out


def _resolve_requirements(loaded, land):
    """(label, proposition) pairs of the loaded entries on one landscape:
    a GenSpec is calibrated against it."""
    out = []
    for labels, source in loaded:
        props = ([gen.proposition for gen in reqgen.generate_suite(land, source)]
                 if isinstance(source, reqgen.GenSpec) else [source])
        out.extend(zip(labels, props))
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
    """Execute the full sweep; a run that fails, or whose trajectory cannot
    be written, is logged as a failure, never fatal, and so is a landscape
    on which a generation spec cannot be calibrated. A landscape entry that
    ``_check_landscape_entry`` rejects, a landscape that cannot be built, a
    requirement entry that ``_load_requirements`` rejects, a tuner's params
    that ``TunerParams`` rejects, or two landscapes or two requirements of
    one name, raise HarnessError before any run starts.

    Returns a dict with the output directory, the summary rows, the failure
    log and the best-rank roll-up. Deterministic for a fixed seed base.
    """
    for entry in config.landscapes:
        _check_landscape_entry(entry)
    run_params = []  # each tuner's TunerParams, in config.tuners order
    for spec in config.tuners:
        try:
            run_params.append(tuners.TunerParams(
                early_stop=config.early_stop, **spec.params))
        except (TypeError, ValueError) as exc:
            raise HarnessError(f"tuner {spec.name!r}: {exc}") from None
    lands, names = [], set()
    for entry in config.landscapes:
        try:
            land = _resolve_landscape(entry)
        # a CSV that cannot be read or parsed, or a synth value that synth
        # rejects (TypeError: a value of the wrong type)
        except (OSError, ValueError, TypeError) as exc:
            raise HarnessError(f"landscape {entry}: {exc}") from None
        # results are filed by landscape name: two landscapes of one name
        # would share trajectory files and summary cells
        if land.name in names:
            raise HarnessError(f"two landscapes are named {land.name!r}; "
                               "give each a distinct 'name'")
        names.add(land.name)
        lands.append(land)
    loaded = _load_requirements(config.requirements)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    written = []  # the runs whose trajectories this sweep wrote
    cells = {}  # (landscape, req) -> {tuner: [best scores]}

    work = []
    for land in lands:
        try:
            reqs = _resolve_requirements(loaded, land)
        except Exception as exc:  # noqa: BLE001
            failures.append({"landscape": land.name, "error": str(exc)})
            continue
        for req_name, prop in reqs:
            for spec, params in zip(config.tuners, run_params):
                for k in range(config.repeats):
                    work.append((land, req_name, prop, spec, params, k))

    def execute(item):
        land, req_name, prop, spec, params, k = item
        try:
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
        if error is None:
            try:
                _write_trajectory(_trajectory_path(
                    out, land_name, req_name, tuner_name, k), result)
            except OSError as exc:
                error = f"trajectory not written: {exc}"
        if error is not None:
            failures.append({**run, "error": error})
            continue
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


# the incomplete beta's continued fraction stops at this relative step, or
# after _CF_TERMS terms; at most about 40 are needed for nu from 1 to 1e5
_CF_EPS = 1e-15
_CF_TERMS = 1000
_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method; converges fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            c = 1.0 + num / c
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            break
    return h


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b); y is 1 - x, passed separately
    so that neither side loses digits to the subtraction."""
    if x == 0.0 or y == 0.0:
        return x  # 0.0 or 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _mean_and_var_over_n(sample) -> tuple:
    """A sample's mean, and its variance (the mean squared deviation times
    n / (n - 1)) divided by n."""
    x = np.asarray(sample, dtype=np.float64)
    n = len(x)
    mean = x.mean()
    return float(mean), float(((x - mean) ** 2).mean() * (n / (n - 1))) / n


def _welch_p(a, b) -> float:
    """Two-sided p-value of Welch's t-test on two samples of two or more
    values, with nu the Welch-Satterthwaite degrees of freedom: the
    Student t tail is I_{nu/(nu+t^2)}(nu/2, 1/2)."""
    (mean_a, vn_a), (mean_b, vn_b) = map(_mean_and_var_over_n, (a, b))
    gap, vn = mean_a - mean_b, vn_a + vn_b
    if vn == 0.0:  # both variances round to zero: t is infinite or 0/0
        return 1.0 if gap == 0.0 else 0.0
    nu = vn ** 2 / (vn_a ** 2 / (len(a) - 1) + vn_b ** 2 / (len(b) - 1))
    t2 = gap * gap / vn
    return _betainc(nu / 2, 0.5, nu / (nu + t2), t2 / (nu + t2))


def _kruskal_p(a, b) -> float:
    """p-value of the Kruskal-Wallis H test on two samples: average ranks,
    the tie correction, and the chi-square tail at one degree of freedom,
    erfc(sqrt(H / 2)). Needs at least two distinct values."""
    data = np.concatenate((np.asarray(a, dtype=np.float64),
                           np.asarray(b, dtype=np.float64)))
    n = len(data)
    order = np.argsort(data, kind="stable")
    ordered = data[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ties = np.diff(np.r_[first, n])  # the length of each run of equal values
    ranked = np.empty(n)
    ranked[order] = np.repeat(first + (ties + 1) / 2, ties)
    correction = 1.0 - float(np.sum(ties ** 3 - ties)) / (n ** 3 - n)
    ssbn = (ranked[:len(a)].sum() ** 2 / len(a)
            + ranked[len(a):].sum() ** 2 / len(b))
    h = (12.0 / (n * (n + 1)) * float(ssbn) - 3 * (n + 1)) / correction
    return math.erfc(math.sqrt(max(h, 0.0) / 2))


def _split_significant(a, b, test: str) -> bool:
    if statistics.pstdev(a) == 0.0 and statistics.pstdev(b) == 0.0:
        return statistics.fmean(a) != statistics.fmean(b)
    p = _kruskal_p(a, b) if test == "kruskal" else _welch_p(a, b)
    return p < ALPHA


def scott_knott_esd(samples: dict, test: str = "welch") -> list:
    """Partition tuners into statistically distinct rank groups.

    Tuners are sorted by mean score (descending) and recursively split at the
    point maximizing the between-group sum of squares; a split stands only
    when the two sides differ significantly (Welch's t-test by default,
    Kruskal-Wallis with test="kruskal") at p < ALPHA, with at least a small
    effect size (Cohen's d >= EFFECT_THRESHOLD). Returns groups best-first;
    rank = index + 1.
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
        if (cohens_d(pooled_left, pooled_right) >= EFFECT_THRESHOLD
                and _split_significant(pooled_left, pooled_right, test)):
            return partition(left) + partition(right)
        return [group]

    return partition(names)


def ranks(samples: dict, test: str = "welch") -> dict:
    """Convenience view of scott_knott_esd: tuner -> rank number (1 = best)."""
    groups = scott_knott_esd(samples, test)
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


def emit_trajectory_plots_data(result_dir):
    """Aggregate the latest sweep's trajectories into plot-ready rows.

    Each tuner's best-so-far curves (over every cell and seed) are resampled
    onto a common budget grid every PLOT_STEP and summarized as mean with a
    normal-theory 95% confidence interval. Returns (rows, missing) and
    writes them to ``trajectories.csv`` in result_dir.
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
    grid = list(range(0, max_budget + 1, PLOT_STEP))
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

    with open(result_dir / "trajectories.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tuner", "budget", "mean_best", "ci_low", "ci_high"])
        for row in rows:
            writer.writerow([row[0], row[1]] + [repr(v) for v in row[2:]])
    return rows, missing
