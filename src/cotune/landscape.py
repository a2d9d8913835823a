"""Finite configuration spaces backed by measurement oracles.

Landscapes come from tabular CSV datasets (exact replay, no surrogate
modeling) or from deterministic synthetic generators. Measurements are
metered: the budget counts distinct configurations measured, and repeat
lookups are served from a cache for free.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .requirement import Proposition


class LandscapeError(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    """Raised when a first-time measurement is requested with no budget left."""


@dataclass(frozen=True)
class OptionSpec:
    """A configuration option with a finite ordered domain of values."""

    name: str
    domain: tuple

    def __post_init__(self):
        if not self.domain:
            raise LandscapeError(f"option {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise LandscapeError(f"option {self.name!r} has duplicate values")


# A configuration is a tuple of domain indices, one per option, in space order.
Configuration = tuple


class Landscape:
    """An immutable mapping from configurations to a performance value.

    Maximizing metrics are assumed to have been negated at ingestion; lower
    is always better internally.
    """

    def __init__(self, options, measurements, name="landscape"):
        self.options = tuple(options)
        self.measurements = dict(measurements)
        self.name = name
        if not self.measurements:
            raise LandscapeError("landscape has no measurements")
        for config in self.measurements:
            self._check_config(config)
        values = self.measurements.values()
        self.v_min = min(values)
        self.v_max = max(values)

    def _check_config(self, config):
        if len(config) != len(self.options):
            raise LandscapeError(f"configuration {config} has wrong length")
        for idx, opt in zip(config, self.options):
            if not 0 <= idx < len(opt.domain):
                raise LandscapeError(
                    f"index {idx} out of range for option {opt.name!r}"
                )

    @property
    def space_size(self) -> int:
        size = 1
        for opt in self.options:
            size *= len(opt.domain)
        return size

    @property
    def exhaustive(self) -> bool:
        return len(self.measurements) == self.space_size

    def lookup(self, config) -> float:
        try:
            return self.measurements[tuple(config)]
        except KeyError:
            raise LandscapeError(
                f"configuration {config} absent from dataset (no surrogate lookup)"
            ) from None

    def performance_values(self):
        return list(self.measurements.values())

    @cached_property
    def performance_array(self) -> np.ndarray:
        """Every measured value as float64, built once for bulk scoring."""
        return np.fromiter(self.measurements.values(), dtype=np.float64,
                           count=len(self.measurements))

    def random_config(self, rng: random.Random) -> Configuration:
        return tuple(rng.randrange(len(opt.domain)) for opt in self.options)


@dataclass
class BudgetMeter:
    """Single-owner measurement meter for one tuning run.

    ``consumed`` equals the number of distinct configurations measured.
    """

    cap: int
    consumed: int = 0
    cache: dict = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.consumed >= self.cap


def measure(landscape: Landscape, meter: BudgetMeter, config) -> float:
    """Measure one configuration, consuming budget only for first-time lookups."""
    config = tuple(config)
    if config in meter.cache:
        return meter.cache[config]
    if meter.exhausted:
        raise BudgetExhausted(f"budget of {meter.cap} exhausted")
    value = landscape.lookup(config)
    meter.consumed += 1
    meter.cache[config] = value
    return value


def satisfiability_fraction(landscape: Landscape, prop: Proposition) -> float:
    """Fraction of the configuration space with nonzero satisfaction.

    Generator-side oracle: inspects the full distribution and consumes no
    budget. Requires an exhaustively measured landscape.
    """
    if not landscape.exhaustive:
        raise LandscapeError(
            "satisfiability fraction needs an exhaustively measured landscape"
        )
    scores = prop.evaluate_many(landscape.performance_array)
    return int(np.count_nonzero(scores > 0)) / len(landscape.measurements)


def _parse_cell(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell.strip()


def load_csv(path, name=None) -> Landscape:
    """Load a tabular landscape: option columns then one performance column.

    Option domains are inferred as the sorted distinct values per column;
    duplicate configuration rows are rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LandscapeError(f"{path}: empty file") from None
        if len(header) < 2:
            raise LandscapeError(f"{path}: need at least one option column")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise LandscapeError(f"{path}: row {lineno} has wrong arity")
            try:
                perf = float(row[-1])
            except ValueError:
                raise LandscapeError(
                    f"{path}: row {lineno}: unparsable performance {row[-1]!r}"
                ) from None
            rows.append((lineno, tuple(_parse_cell(c) for c in row[:-1]), perf))
    if not rows:
        raise LandscapeError(f"{path}: no data rows")

    n_opts = len(header) - 1
    domains = []
    for col in range(n_opts):
        seen = {values[col] for _, values, _ in rows}
        if any(isinstance(v, str) for v in seen):
            domain = tuple(sorted(str(v) for v in seen))
        else:
            domain = tuple(sorted(seen))
        domains.append(domain)
    options = [OptionSpec(header[i], domains[i]) for i in range(n_opts)]

    measurements = {}
    for lineno, values, perf in rows:
        config = tuple(domains[i].index(values[i]) for i in range(n_opts))
        if config in measurements:
            raise LandscapeError(f"{path}: row {lineno}: duplicate configuration")
        measurements[config] = perf
    return Landscape(options, measurements, name=name or str(path))


def write_csv(landscape: Landscape, path) -> None:
    """Export a landscape in the load_csv format (performance column last)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([opt.name for opt in landscape.options] + ["performance"])
        for config in sorted(landscape.measurements):
            row = [
                landscape.options[i].domain[idx] for i, idx in enumerate(config)
            ]
            writer.writerow(row + [repr(landscape.measurements[config])])


SHAPES = ("rugged", "additive", "plateau")


def synth(
    seed: int,
    n_options: int,
    domain_sizes,
    shape: str,
    enumeration_cap: int = 1_000_000,
    name=None,
) -> Landscape:
    """Deterministic synthetic landscape over a fully enumerated space.

    shape "additive": independent per-option contributions.
    shape "rugged": each option interacts with two random neighbors.
    shape "plateau": additive base with the lower ~60% collapsed to one value.
    """
    if shape not in SHAPES:
        raise LandscapeError(f"unknown shape {shape!r}")
    if isinstance(domain_sizes, int):
        domain_sizes = [domain_sizes] * n_options
    if len(domain_sizes) != n_options:
        raise LandscapeError("one domain size required per option")
    size = 1
    for s in domain_sizes:
        size *= s
    if size > enumeration_cap:
        raise LandscapeError(
            f"space of {size} configurations exceeds enumeration cap {enumeration_cap}"
        )

    rng = random.Random(seed)
    options = [
        OptionSpec(f"o{i}", tuple(range(domain_sizes[i]))) for i in range(n_options)
    ]

    if shape == "rugged":
        neighbors = []
        for i in range(n_options):
            others = [j for j in range(n_options) if j != i]
            neighbors.append(tuple(sorted(rng.sample(others, min(2, len(others))))))
        tables = [{} for _ in range(n_options)]
    else:
        contrib = [
            [rng.uniform(0.0, 10.0) for _ in range(domain_sizes[i])]
            for i in range(n_options)
        ]

    measurements = {}
    for config in itertools.product(*(range(s) for s in domain_sizes)):
        if shape == "rugged":
            total = 0.0
            for i in range(n_options):
                key = (config[i],) + tuple(config[j] for j in neighbors[i])
                table = tables[i]
                if key not in table:
                    table[key] = rng.uniform(0.0, 10.0)
                total += table[key]
            measurements[config] = total / n_options
        else:
            measurements[config] = sum(
                contrib[i][config[i]] for i in range(n_options)
            )

    if shape == "plateau":
        values = sorted(measurements.values())
        modal = values[int(0.6 * len(values))]
        measurements = {
            c: (modal if v <= modal else v) for c, v in measurements.items()
        }

    return Landscape(
        options, measurements, name=name or f"synth-{shape}-{seed}"
    )
