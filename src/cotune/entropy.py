"""Differential entropy of satisfaction scores via Gaussian KDE.

The spread of a proposition's scores over a configuration population is the
discriminative-power signal driving requirement evolution: high entropy means
configurations are easy to tell apart, low entropy means they all look alike.
"""

from __future__ import annotations

import math

import numpy as np

from ._sums import left_sum

GRID_POINTS = 512
BANDWIDTH_FLOOR = 1e-4

# Zero-variance samples carry no discriminative information at all; the
# sentinel compares below every finite entropy.
MIN_ENTROPY = float("-inf")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class EntropyError(ValueError):
    pass


def _quantile(ordered, q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def silverman_bandwidth(sample) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * n^(-1/5).

    sigma = min(std, IQR / 1.34), floored so near-constant samples still
    yield a usable kernel.
    """
    xs = sorted(float(x) for x in sample)
    n = len(xs)
    mean = left_sum(xs) / n
    std = math.sqrt(left_sum((x - mean) ** 2 for x in xs) / n)
    iqr = _quantile(xs, 0.75) - _quantile(xs, 0.25)
    sigma = min(std, iqr / 1.34) if iqr > 0 else std
    bw = 1.06 * sigma * n ** (-0.2)
    return max(bw, BANDWIDTH_FLOOR)


# np.linspace's sample indices; the grid is built as linspace builds it
_STEPS = np.arange(GRID_POINTS, dtype=float)

# numpy's pairwise summation (DOUBLE_pairwise_sum) adds runs shorter than
# this one by one, and runs up to _PAIRWISE_BLOCK long in eight accumulators
_UNROLL = 8
_PAIRWISE_BLOCK = 128


def _grid(start: float, stop: float):
    """np.linspace(start, stop, GRID_POINTS), without its argument handling."""
    grid = _STEPS * ((stop - start) / (GRID_POINTS - 1))
    grid += start
    grid[-1] = stop
    return grid


def _pairwise_sum(rows):
    """The elementwise sum of a 2-D array's rows, each column added in the
    order in which numpy's pairwise summation adds a contiguous row: the
    bits of np.ascontiguousarray(rows.T).sum(axis=1)."""
    n = len(rows)
    if n < _UNROLL:
        # numpy starts from 0.0, and 0.0 + x is x for every x but -0.0,
        # which no kernel value is
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    if n <= _PAIRWISE_BLOCK:
        blocked = n - n % _UNROLL
        acc = rows[:_UNROLL]
        for at in range(_UNROLL, blocked, _UNROLL):
            acc = acc + rows[at:at + _UNROLL]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        acc = acc[0::2] + acc[1::2]
        acc = acc[0::2] + acc[1::2]
        total = acc[0] + acc[1]
        for row in rows[blocked:]:
            total += row
        return total
    half = n // 2
    half -= half % _UNROLL
    return _pairwise_sum(rows[:half]) + _pairwise_sum(rows[half:])


def _density(arr):
    """(bandwidth, grid, density) of the Gaussian KDE of a float64 array on
    GRID_POINTS points of [0 - 3bw, 1 + 3bw].

    The kernel row over the grid is computed once per distinct score; the
    members' rows are then added as ``np.subtract.outer(grid, arr)`` summed
    over its members' axis would add them, so the density has the same bits.
    """
    values = arr.tolist()  # Python floats iterate faster
    bw = silverman_bandwidth(values)
    grid = _grid(0.0 - 3.0 * bw, 1.0 + 3.0 * bw)
    row_of = {}
    rows = [row_of.setdefault(v, len(row_of)) for v in values]
    # u - g is -(g - u) exactly, and squaring drops the sign
    z = np.subtract.outer(np.fromiter(row_of, float, len(row_of)), grid)
    z /= bw
    # -0.5 * z * z: scaling by a power of two is exact, so squaring first
    # gives the same bits
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    density = _pairwise_sum(z[rows])
    density /= arr.size * bw * _SQRT_2PI
    return bw, grid, density


def differential_entropy(sample) -> float:
    """h = -integral of beta log beta over the score axis (trapezoidal).

    Zero-variance samples return the minimal-entropy sentinel so the
    co-evolution logic can still compare against them.
    """
    if not len(sample):
        raise EntropyError("empty sample")
    if max(sample) == min(sample):
        return MIN_ENTROPY
    _, grid, beta = _density(np.asarray(sample, dtype=float))
    if beta.min() > 0.0:
        integrand = -beta * np.log(beta)
    else:
        # 0 * log 0 := 0
        positive = beta > 0.0
        integrand = np.where(
            positive, -beta * np.log(np.where(positive, beta, 1.0)), 0.0)
    # np.trapezoid's own expression, without its argument handling
    area = grid[1:] - grid[:-1]
    area *= integrand[1:] + integrand[:-1]
    area /= 2.0
    return float(area.sum())
