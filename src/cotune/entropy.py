"""Differential entropy of satisfaction scores via Gaussian KDE.

The spread of a proposition's scores over a configuration population is the
discriminative-power signal driving requirement evolution: high entropy means
configurations are easy to tell apart, low entropy means they all look alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 512
BANDWIDTH_FLOOR = 1e-4

# Zero-variance samples carry no discriminative information at all; the
# sentinel compares below every finite entropy.
MIN_ENTROPY = float("-inf")


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


@dataclass
class DensityEstimate:
    """Gaussian KDE of satisfaction scores on a fixed evaluation grid."""

    sample: np.ndarray
    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    degenerate: bool


def kde(sample, grid_points: int = GRID_POINTS) -> DensityEstimate:
    """Estimate the score density on [0 - 3bw, 1 + 3bw]."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise EntropyError("empty sample")
    degenerate = bool(arr.max() == arr.min())
    bw = silverman_bandwidth(arr)
    grid = np.linspace(0.0 - 3.0 * bw, 1.0 + 3.0 * bw, grid_points)
    # mean of Gaussian kernels centered at the sample points
    z = (grid[:, None] - arr[None, :]) / bw
    density = np.exp(-0.5 * z * z).sum(axis=1) / (
        arr.size * bw * math.sqrt(2.0 * math.pi)
    )
    return DensityEstimate(arr, bw, grid, density, degenerate)


def differential_entropy(sample, grid_points: int = GRID_POINTS) -> float:
    """h = -integral of beta log beta over the score axis (trapezoidal).

    Zero-variance samples return the minimal-entropy sentinel so the
    co-evolution logic can still compare against them.
    """
    if not len(sample):
        raise EntropyError("empty sample")
    if max(sample) == min(sample):
        return MIN_ENTROPY
    est = kde(sample, grid_points)
    beta = est.density
    # 0 * log 0 := 0
    integrand = np.where(beta > 0.0, -beta * np.log(np.where(beta > 0, beta, 1.0)), 0.0)
    return float(np.trapezoid(integrand, est.grid))
