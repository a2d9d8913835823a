"""Experiment harness: sweeps, trajectory persistence and statistical ranking.

A sweep is landscapes x requirements x tuners x seeds. Each run writes one
trajectory CSV under ``<out>/<landscape>/<req>/<tuner>/seed<k>.csv``; the
sweep writes ``summary.csv`` (mean, std and rank per cell and tuner) plus
``manifest.json`` with the resolved configuration, a record of each run it
wrote (its key and final best score) and the failure log. ``_cells`` builds
the ranked cells from those records, for ``summary.csv`` and for
``rank_results``; only ``emit_trajectory_plots_data`` reads trajectories.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import landscape as landscape_mod
from . import reqgen, tuners
from ._sums import left_sum
from .requirement import Proposition

# the effect size and significance level a Scott-Knott ESD split must reach
EFFECT_THRESHOLD = 0.2
ALPHA = 0.05

# budget spacing of the common grid that trajectories.csv resamples onto
PLOT_STEP = 10


class HarnessError(ValueError):
    pass


def _check_names(kind: str, names: list) -> None:
    """Raise HarnessError unless each name is one path component and no two
    are equal: results are filed under ``<out>/<landscape>/<req>/<tuner>``,
    and any other name would write outside its cell or out_dir, or share
    trajectory files and summary cells with another."""
    for name in names:
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or "\\" in name):
            raise HarnessError(f"{kind} name {name!r} must be one path "
                               "component: not empty, '.' or '..', and "
                               "without '/' or '\\'")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        how = ("labelled {!r}; give each file entry a distinct 'name' and gen "
               "entries distinct d levels or types" if kind == "requirement"
               else "named {!r}; give each a distinct 'name'")
        raise HarnessError(f"two {kind}s are " + how.format(repeated[0]))


def _tuner_params(spec, early_stop: bool):
    """The TunerParams of one tuner's runs; params that TunerParams rejects
    raise HarnessError."""
    try:
        # a tuner does not stop by a rule of its own: the sweep sets it
        if "early_stop" in spec.params:
            raise TypeError("early_stop is not a tuner param; set the "
                            "config's top-level early_stop")
        return tuners.TunerParams(early_stop=early_stop, **spec.params)
    except (TypeError, ValueError) as exc:
        raise HarnessError(f"tuner {spec.name!r}: {exc}") from None


@dataclass
class TunerSpec:
    name: str
    kind: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_names("tuner", [self.name])
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
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise HarnessError(f"out_dir must be a path, not {self.out_dir!r}")
        if self.repeats < 2:
            raise HarnessError("repeats must be at least 2 for ranking")
        if self.jobs < 1:
            raise HarnessError(f"jobs must be at least 1, not {self.jobs}")
        self.tuners = [
            t if isinstance(t, TunerSpec) else TunerSpec(**t)
            for t in self.tuners
        ]
        _check_names("tuner", [t.name for t in self.tuners])
        for spec in self.tuners:
            _tuner_params(spec, self.early_stop)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config file. A file that cannot be read or is not a JSON
        object, an unknown key, and a landscape or requirement entry that is
        not an object or whose path is not a string or names a missing file
        raise HarnessError."""
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
                    if not isinstance(entry[key], str):
                        raise HarnessError(f"config {path}: {kind} {key!r} "
                                           f"must be a path, not {entry[key]!r}")
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
        # load_csv names an unnamed landscape by its file stem, not by its
        # path, which may be absolute: out_dir / name would drop out_dir
        return landscape_mod.load_csv(entry["csv"], name=entry.get("name"))
    return landscape_mod.synth(**entry["synth"], name=entry.get("name"))


def _load_requirements(entries) -> list:
    """Each requirement entry as (labels, source): a file's proposition,
    labelled by its 'name' or file stem, or a GenSpec, which only a landscape
    can resolve, with its labels(). A file that cannot be read or parsed, a
    spec that GenSpec rejects (or with an unknown key), an entry with neither
    key, a label that is not one path component, and two requirements of
    one label raise HarnessError."""
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
    _check_names("requirement",
                 [label for labels, _ in out for label in labels])
    return out


def _resolve_requirements(loaded, land):
    """(label, proposition, error) of each loaded requirement on one
    landscape: a GenSpec is calibrated against it (see generate_suite)."""
    out = []
    for labels, source in loaded:
        if isinstance(source, reqgen.GenSpec):
            out += [(entry.label, entry.proposition, entry.error)
                    for entry in reqgen.generate_suite(land, source)]
        else:
            out.append((labels[0], source, ""))
    return out


def _trajectory_path(out: Path, run) -> Path:
    """Where the trajectory of a run, identified by its record's landscape,
    requirement, tuner and seed, is filed under out."""
    return (out / run["landscape"] / run["requirement"] / run["tuner"]
            / f"seed{run['seed']}.csv")


def _write_trajectory(path: Path, result) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(tuners.TrajectoryRow))
        # csv writes str(x), which is repr(x) for an int or a float
        writer.writerows(vars(row).values() for row in result.trajectory)


def run_experiment(config: ExperimentConfig):
    """Execute the full sweep; a run that fails, or whose trajectory cannot
    be written, is logged as a failure, never fatal, and so is a generated
    requirement that cannot be calibrated on its landscape. A landscape
    entry that ``_check_landscape_entry`` rejects, a landscape that cannot
    be built, a requirement entry that ``_load_requirements`` rejects, a
    tuner's params that ``TunerParams`` rejects, or a landscape or tuner
    name that breaks ``_check_names``' rule (checked again here, so that a
    config changed after it was built is held to it), raise HarnessError
    before any run starts.

    Returns a dict with the output directory, the failure log and the
    best-rank roll-up. Deterministic for a fixed seed base.
    """
    _check_names("tuner", [spec.name for spec in config.tuners])
    for entry in config.landscapes:
        _check_landscape_entry(entry)
    # each tuner's TunerParams, in config.tuners order
    run_params = [_tuner_params(spec, config.early_stop)
                  for spec in config.tuners]
    lands = []
    for entry in config.landscapes:
        try:
            lands.append(_resolve_landscape(entry))
        # a CSV that cannot be read or parsed, or a synth value that synth
        # rejects (TypeError: a value of the wrong type)
        except (OSError, ValueError, TypeError) as exc:
            raise HarnessError(f"landscape {entry}: {exc}") from None
    _check_names("landscape", [land.name for land in lands])
    loaded = _load_requirements(config.requirements)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures = []

    work = []
    for land in lands:
        try:
            reqs = _resolve_requirements(loaded, land)
        except Exception as exc:  # noqa: BLE001
            failures.append({"landscape": land.name, "error": str(exc)})
            continue
        for req_name, prop, error in reqs:
            if error:
                failures.append({"landscape": land.name,
                                 "requirement": req_name, "error": error})
                continue
            for spec, params in zip(config.tuners, run_params):
                for k in range(config.repeats):
                    work.append((land, req_name, prop, spec, params, k))

    def execute(item):
        """Run one tuner and write its trajectory; the run's record, with
        its final ``best``, or its ``error`` if either step failed."""
        land, req_name, prop, spec, params, k = item
        run = {"landscape": land.name, "requirement": req_name,
               "tuner": spec.name, "seed": k}
        try:
            result = tuners.run_tuner(spec.kind, land, prop, params,
                                      config.seed_base + k, label=spec.name)
        except Exception as exc:  # noqa: BLE001
            return {**run, "error": str(exc)}
        try:
            _write_trajectory(_trajectory_path(out, run), result)
        except OSError as exc:
            return {**run, "error": f"trajectory not written: {exc}"}
        return {**run, "best": result.best_score}

    # pool.map keeps the work order, so the records keep it too
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(execute, work))
    else:
        outcomes = [execute(item) for item in work]
    failures += [run for run in outcomes if "error" in run]
    records = [run for run in outcomes if "error" not in run]

    best_rank_counts = {spec.name: 0 for spec in config.tuners}
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["landscape", "requirement", "tuner",
                         "mean", "std", "rank", "runs", "failed"])
        for (land_name, req_name), samples in _cells(records):
            cell = rank_cell(samples)
            for spec in config.tuners:
                if spec.name not in cell:
                    writer.writerow([land_name, req_name, spec.name,
                                     "", "", "", 0, "x"])
                    continue
                mean, std, rank = cell[spec.name]
                if rank == 1:
                    best_rank_counts[spec.name] += 1
                writer.writerow([land_name, req_name, spec.name, mean, std,
                                 "" if rank is None else rank,
                                 len(samples[spec.name]), ""])

    # the config's fields, less where the sweep was written and how many
    # workers ran it: neither changes a result
    settings = {key: value for key, value in vars(config).items()
                if key not in ("out_dir", "jobs")}
    manifest = {
        "config": {**settings,
                   "tuners": [vars(spec) for spec in config.tuners]},
        "runs": records,
        "failures": failures,
        "best_rank_counts": best_rank_counts,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")

    return {
        "out_dir": str(out),
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
    mean = {t: statistics.fmean(s) for t, s in samples.items()}
    names = sorted(samples, key=lambda t: (-mean[t], t))

    def partition(group):
        if len(group) < 2:
            return [group]
        grand = (left_sum(mean[t] * len(samples[t]) for t in group)
                 / sum(len(samples[t]) for t in group))
        best_cut, best_ssb = None, -1.0
        for cut in range(1, len(group)):
            ssb = 0.0
            for side in (group[:cut], group[cut:]):
                n = sum(len(samples[t]) for t in side)
                m = left_sum(mean[t] * len(samples[t]) for t in side) / n
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


def _cells(records) -> list:
    """[((landscape, requirement), {tuner: [best, ...]})] of run records,
    in sorted cell order; each tuner's scores keep the records' order."""
    cells = {}
    for run in records:
        cell = cells.setdefault((run["landscape"], run["requirement"]), {})
        cell.setdefault(run["tuner"], []).append(run["best"])
    return [(key, cells[key]) for key in sorted(cells)]


def _manifest_runs(result_dir) -> list:
    """The run records of the latest sweep in result_dir: the ones its
    ``manifest.json`` lists, so that files an earlier sweep left in the
    directory are not mixed in."""
    try:
        return json.loads((Path(result_dir) / "manifest.json").read_text(
            encoding="utf-8"))["runs"]
    except (FileNotFoundError, KeyError):
        raise HarnessError(
            f"no manifest.json listing the runs under {result_dir}") from None


def rank_results(result_dir, test: str = "welch") -> list:
    """[((landscape, requirement), [(tuner, mean, std, rank), ...])] for
    each cell of the latest sweep in result_dir with two or more ranked
    tuners, re-ranked from the runs' records in ``manifest.json``; best rank
    first, ties by name."""
    records = _manifest_runs(result_dir)
    if any("best" not in run for run in records):
        raise HarnessError(f"manifest.json under {result_dir} records no "
                           "final best score per run; run the sweep again")
    out = []
    for key, samples in _cells(records):
        cell = rank_cell(samples, test)
        ranked = sorted((rank, t) for t, (*_, rank) in cell.items()
                        if rank is not None)
        if len(ranked) >= 2:
            out.append((key, [(t, *cell[t]) for _, t in ranked]))
    return out


def emit_trajectory_plots_data(result_dir):
    """Aggregate the latest sweep's trajectories into plot-ready rows.

    Each tuner's best-so-far curves (over every cell and seed) are resampled
    onto a common budget grid every PLOT_STEP and summarized as mean with a
    normal-theory 95% confidence interval. Returns (rows, missing), missing
    being each listed trajectory that is absent or empty, and writes the
    rows to ``trajectories.csv`` in result_dir.
    """
    result_dir = Path(result_dir)
    curves = {}  # tuner -> [(budgets, bests), ...], budgets non-decreasing
    missing = []
    for run in _manifest_runs(result_dir):
        path = _trajectory_path(result_dir, run)
        points = []
        if path.exists():
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is not None:
                    used = header.index("budget_used")
                    best = header.index("best_pt_score")
                    points = [(int(row[used]), float(row[best]))
                              for row in reader if row]
        if points:
            curves.setdefault(run["tuner"], []).append(tuple(zip(*points)))
        else:
            missing.append(str(path))
    if not curves:
        raise HarnessError(f"no trajectories under {result_dir}")

    max_budget = max(
        budgets[-1] for runs in curves.values() for budgets, _ in runs)
    grid = list(range(0, max_budget + 1, PLOT_STEP))
    if grid[-1] != max_budget:
        grid.append(max_budget)

    rows = []
    for tuner in sorted(curves):
        for budget in grid:
            # each run's best at its last point within this budget
            values = [bests[i - 1] for budgets, bests in curves[tuner]
                      if (i := bisect.bisect_right(budgets, budget))]
            if not values:
                continue
            mean = statistics.fmean(values)
            if min(values) == max(values):
                half = 0.0  # the stdev of equal values is exactly 0.0
            else:
                half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
            rows.append([tuner, budget, mean, mean - half, mean + half])

    with open(result_dir / "trajectories.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tuner", "budget", "mean_best", "ci_low", "ci_high"])
        writer.writerows(rows)
    return rows, missing
