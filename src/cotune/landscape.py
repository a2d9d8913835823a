"""Finite configuration spaces backed by measurement oracles.

Landscapes come from tabular CSV datasets (exact replay, no surrogate
modeling) or from deterministic synthetic generators. Measurements are
metered: the budget counts distinct configurations measured, and repeat
lookups are served from a cache for free.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .ga import _randbelow
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

    A configuration's *code* is its mixed-radix number over the option domain
    sizes: its position in ``itertools.product`` order, the last option
    varying fastest. ``performance_array`` holds one float64 value per
    measured configuration, in code order. When ``codes`` is None the space
    is exhaustive and the array has one value per configuration, so a value
    sits at its configuration's code. Otherwise the space is partial (say, a
    CSV that does not cover every configuration), and ``codes`` is the sorted
    array of the measured configurations' codes, one per value. The values
    are checked as a whole when the landscape is built; a configuration's
    length and range are checked when it is looked up.

    Maximizing metrics are assumed to have been negated at ingestion; lower
    is always better internally.
    """

    def __init__(self, options, values, codes=None, name="landscape"):
        self.options = tuple(options)
        self.name = name
        self.sizes = tuple(len(opt.domain) for opt in self.options)
        self.space_size = math.prod(self.sizes)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or not values.size:
            raise LandscapeError("landscape has no measurements")
        if codes is not None:
            codes = np.asarray(codes, dtype=_code_dtype(self.space_size))
            if (codes.shape != values.shape or codes[0] < 0
                    or codes[-1] >= self.space_size
                    or not (codes[1:] > codes[:-1]).all()):
                raise LandscapeError("codes must be sorted, distinct, inside "
                                     "the space and one per value")
            if codes.size == self.space_size:
                codes = None  # sorted, distinct and in range: every code
        elif values.size != self.space_size:
            raise LandscapeError(f"{values.size} values for a space of "
                                 f"{self.space_size} configurations")
        finite = np.isfinite(values)
        if not finite.all():
            at = int(np.argmin(finite))
            code = at if codes is None else int(codes[at])
            raise LandscapeError(
                f"configuration {self._decode(code)} has non-finite "
                f"performance {values.item(at)!r}")
        self.codes = codes
        self.performance_array = values
        self.v_min = values.min().item()
        self.v_max = values.max().item()

    def __getstate__(self):
        state = dict(vars(self))
        state.pop("measurements", None)  # rebuilt on first access
        return state

    @property
    def exhaustive(self) -> bool:
        return self.codes is None

    def _decode(self, code) -> Configuration:
        """The configuration whose code is ``code``."""
        config = []
        for size in reversed(self.sizes):
            code, idx = divmod(code, size)
            config.append(idx)
        return tuple(reversed(config))

    def configs(self):
        """Every measured configuration, in code order."""
        if self.codes is None:
            return itertools.product(*map(range, self.sizes))
        return map(self._decode, self.codes.tolist())

    def lookup(self, config) -> float:
        if len(config) != len(self.sizes):
            raise LandscapeError(f"configuration {config} has wrong length")
        code = 0
        for idx, size, opt in zip(config, self.sizes, self.options):
            if not 0 <= idx < size:
                raise LandscapeError(
                    f"index {idx} out of range for option {opt.name!r}")
            code = code * size + idx
        if self.codes is not None:
            at = int(np.searchsorted(self.codes, code))
            if at == self.codes.size or self.codes[at] != code:
                raise LandscapeError(f"configuration {config} absent from "
                                     "dataset (no surrogate lookup)")
            code = at
        # a Python float: numpy 2 writes a numpy scalar's repr as
        # np.float64(...), and values reach written CSVs through repr
        return self.performance_array.item(code)

    def performance_values(self):
        return self.performance_array.tolist()

    @cached_property
    def measurements(self):
        """A read-only view, configuration -> value in code order, built on
        first access. For tests and checks: no tuner or calibration path
        reads it."""
        return MappingProxyType(dict(zip(self.configs(),
                                         self.performance_array.tolist())))

    def random_config(self, rng: random.Random) -> Configuration:
        """One rng.randrange(size) per option, in option order."""
        getrandbits = rng.getrandbits
        return tuple([_randbelow(getrandbits, size) for size in self.sizes])


def _code_dtype(space_size):
    """int64 while every code of the space fits in it, else Python ints."""
    return np.int64 if space_size <= 2**63 else object


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


# Bulk scoring runs on blocks of this many values. A block's float64
# temporaries (64 KiB each) stay below glibc's default 128 KiB mmap threshold,
# so they are reused from the heap; whole-array temporaries of a 2^14 space
# were mapped and page-faulted in again on every call (about 600 minor faults
# per generate_target call on a 2-core Linux host).
SCORE_BLOCK = 8192


def satisfiability_fraction(landscape: Landscape, prop: Proposition) -> float:
    """Fraction of the configuration space with nonzero satisfaction.

    Generator-side oracle: inspects the full distribution and consumes no
    budget. Requires an exhaustively measured landscape.
    """
    if not landscape.exhaustive:
        raise LandscapeError(
            "satisfiability fraction needs an exhaustively measured landscape"
        )
    values = landscape.performance_array
    hits = sum(
        int(np.count_nonzero(prop.evaluate_many(values[at:at + SCORE_BLOCK]) > 0))
        for at in range(0, values.size, SCORE_BLOCK))
    return hits / landscape.space_size


def _column(cells):
    """(domain, values) of one option column: floats when every cell parses
    as one, else the stripped text of every cell (a column that mixes
    numbers and words reads "1" as "1", not 1.0)."""
    try:
        values = list(map(float, cells))
    except ValueError:
        values = [c.strip() for c in cells]
    return tuple(sorted(set(values))), values


def _row_problem(path, records, width):
    """The first malformed data row of a CSV's records (the header's
    successors, blank ones included), as load_csv reports it, or None."""
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != width:
            return f"{path}: row {lineno} has wrong arity"
        try:
            perf = float(row[-1])
        except ValueError:
            return f"{path}: row {lineno}: unparsable performance {row[-1]!r}"
        if not math.isfinite(perf):
            return f"{path}: row {lineno}: non-finite performance {row[-1]!r}"
    return None


def load_csv(path, name=None) -> Landscape:
    """Load a tabular landscape: option columns then one performance column.

    Option domains are inferred as the sorted distinct values per column;
    duplicate configuration rows and non-finite performance values are
    rejected. Without a name, the landscape is named by the file's stem.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LandscapeError(f"{path}: empty file") from None
        if len(header) < 2:
            raise LandscapeError(f"{path}: need at least one option column")
        records = list(reader)
    rows = list(filter(None, records))  # blank lines read as empty rows
    if not rows:
        raise LandscapeError(f"{path}: no data rows")
    # the rows are checked as a whole; a failed check looks for the first
    # malformed row in file order, so that its message names that row
    perfs = None
    if set(map(len, rows)) == {len(header)}:
        *option_cells, perf_cells = zip(*rows)  # one tuple per column
        try:
            perfs = np.array(list(map(float, perf_cells)))
        except ValueError:
            pass
    if perfs is None or not np.isfinite(perfs).all():
        raise LandscapeError(_row_problem(path, records, len(header)))

    options, columns = [], []  # columns[i][r]: row r's index into option i
    for title, cells in zip(header, option_cells):
        domain, values = _column(cells)
        options.append(OptionSpec(title, domain))
        index = {v: i for i, v in enumerate(domain)}
        columns.append(list(map(index.__getitem__, values)))
    dtype = _code_dtype(math.prod(len(opt.domain) for opt in options))
    codes = 0  # codes[r]: the code of row r's configuration
    for column, opt in zip(columns, options):
        codes = codes * len(opt.domain) + np.array(column, dtype=dtype)

    # a stable sort keeps equal codes in row order, so the first repeat in
    # file order is the earliest row that follows its own first occurrence
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    repeats = np.flatnonzero(codes[1:] == codes[:-1])
    if repeats.size:
        linenos = [n for n, row in enumerate(records, start=2) if row]
        lineno = linenos[int(order[repeats + 1].min())]
        raise LandscapeError(f"{path}: row {lineno}: duplicate configuration")
    perfs = perfs[order]
    return Landscape(options, perfs, codes=codes, name=name or Path(path).stem)


def write_csv(landscape: Landscape, path) -> None:
    """Export a landscape in the load_csv format (performance column last),
    one row per measured configuration in code order."""
    domains = [opt.domain for opt in landscape.options]
    if landscape.exhaustive:
        rows = itertools.product(*domains)
    else:
        rows = ([domain[idx] for domain, idx in zip(domains, config)]
                for config in landscape.configs())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([opt.name for opt in landscape.options] + ["performance"])
        writer.writerows([*row, repr(value)] for row, value in
                         zip(rows, landscape.performance_array.tolist()))


SHAPES = ("rugged", "additive", "plateau")

# the most configurations synth enumerates
ENUMERATION_CAP = 1_000_000


def synth(
    seed: int,
    n_options: int,
    domain_sizes,
    shape: str,
    name=None,
) -> Landscape:
    """Deterministic synthetic landscape over a fully enumerated space.

    shape "additive": independent per-option contributions.
    shape "rugged": each option interacts with two random neighbors.
    shape "plateau": additive base with the lower ~60% collapsed to one value.

    Values are stored in code (``itertools.product``) order. Every value
    comes from one ``random.Random(seed)``, drawn with ``uniform(0.0, 10.0)``:
    additive and plateau draw each option's contributions, option by option;
    rugged first samples each option's two neighbours, then draws one value
    per (option, neighbours) table key in the order in which a walk over the
    configurations, and within one over the options, first meets the key. A
    value is its options' terms added left to right from 0.0 (rugged then
    divides by ``n_options``), so it does not depend on the interpreter:
    ``sum()`` over floats, which compensates from Python 3.12 on, would.
    """
    if shape not in SHAPES:
        raise LandscapeError(f"unknown shape {shape!r}")
    if n_options < 1:
        raise LandscapeError("a space needs at least one option")
    if isinstance(domain_sizes, int):
        domain_sizes = [domain_sizes] * n_options
    if len(domain_sizes) != n_options:
        raise LandscapeError("one domain size required per option")
    size = math.prod(domain_sizes)
    if size > ENUMERATION_CAP:
        raise LandscapeError(f"space of {size} configurations exceeds "
                             f"enumeration cap {ENUMERATION_CAP}")

    rng = random.Random(seed)
    options = [
        OptionSpec(f"o{i}", tuple(range(domain_sizes[i]))) for i in range(n_options)
    ]

    # values are built on the grid of the space's options in itertools.product
    # order (the last option varies fastest); options with one value are left
    # out of it, so a space of any number of options fits numpy's rank limit
    grid = [s for s in domain_sizes if s > 1]

    def spread(table, at):
        """A table over the options ``at`` (its axes, in ascending option
        order) as an array that broadcasts over the grid."""
        return table.reshape([s if j in at else 1
                              for j, s in enumerate(domain_sizes) if s > 1])

    values = np.zeros(grid)
    if shape == "rugged":
        neighbors = []
        for i in range(n_options):
            others = [j for j in range(n_options) if j != i]
            neighbors.append(tuple(sorted(rng.sample(others, min(2, len(others))))))
        # option i's table holds one draw per value of (config[i],
        # config[n1], config[n2]), its axes in ascending option order. Every
        # key occurs, first in the configuration that holds 0 at every other
        # option; draws follow the order in which a walk over the
        # configurations, and within one over the options, first meets a key.
        strides = [math.prod(domain_sizes[i + 1:]) for i in range(n_options)]
        axes = [sorted((i,) + neighbors[i]) for i in range(n_options)]
        tables, firsts = [], []
        for i, at in enumerate(axes):
            tables.append(np.empty([domain_sizes[j] for j in at]))
            for key in np.ndindex(tables[i].shape):
                first = sum(k * strides[j] for k, j in zip(key, at))
                firsts.append((first, i, key))
        for _, i, key in sorted(firsts):
            tables[i][key] = rng.uniform(0.0, 10.0)
        for table, at in zip(tables, axes):
            values += spread(table, at)
        values /= n_options
    else:
        for i in range(n_options):
            contrib = [rng.uniform(0.0, 10.0) for _ in range(domain_sizes[i])]
            values += spread(np.array(contrib), (i,))

    values = values.ravel()
    if shape == "plateau":
        k = int(0.6 * size)
        modal = np.partition(values, k)[k]
        values[values <= modal] = modal

    return Landscape(options, values, name=name or f"synth-{shape}-{seed}")
