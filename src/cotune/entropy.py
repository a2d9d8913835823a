"""Differential entropy of satisfaction scores via Gaussian KDE.

The spread of a proposition's scores over a configuration population is the
discriminative-power signal driving requirement evolution: high entropy means
configurations are easy to tell apart, low entropy means they all look alike.
"""

from __future__ import annotations

import math

import numpy as np

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
    mean = sum(xs) / n
    std = math.sqrt(sum((x - mean) ** 2 for x in xs) / n)
    iqr = _quantile(xs, 0.75) - _quantile(xs, 0.25)
    sigma = min(std, iqr / 1.34) if iqr > 0 else std
    bw = 1.06 * sigma * n ** (-0.2)
    return max(bw, BANDWIDTH_FLOOR)


def _density(arr):
    """(bandwidth, grid, density) of the Gaussian KDE of a float64 array on
    GRID_POINTS points of [0 - 3bw, 1 + 3bw].

    The GRID_POINTS x n matrix of standardized distances is built once and
    turned into kernel values in place.
    """
    bw = silverman_bandwidth(arr.tolist())  # Python floats iterate faster
    grid = np.linspace(0.0 - 3.0 * bw, 1.0 + 3.0 * bw, GRID_POINTS)
    z = np.subtract.outer(grid, arr)
    z /= bw
    # -0.5 * z * z: scaling by a power of two is exact, so squaring first
    # gives the same bits
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    density = z.sum(axis=1) / (arr.size * bw * _SQRT_2PI)
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
    # 0 * log 0 := 0
    positive = beta > 0.0
    integrand = np.where(
        positive, -beta * np.log(np.where(positive, beta, 1.0)), 0.0)
    # np.trapezoid's own expression, without its argument handling
    return float(
        (np.diff(grid) * (integrand[1:] + integrand[:-1]) / 2.0).sum())
