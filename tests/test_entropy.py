"""Tests for the score-entropy machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cotune.entropy import (
    BANDWIDTH_FLOOR,
    MIN_ENTROPY,
    EntropyError,
    differential_entropy,
    kde,
    silverman_bandwidth,
)

SAMPLE = [0.1, 0.2, 0.3, 0.5, 0.9, 0.4, 0.4, 0.1, 0.0, 1.0]


def oracle_entropy(sample):
    """Independent recomputation with numpy/scipy primitives."""
    arr = np.asarray(sample, dtype=float)
    std = arr.std()
    q75, q25 = np.percentile(arr, [75, 25])
    iqr = q75 - q25
    sigma = min(std, iqr / 1.34) if iqr > 0 else std
    bw = max(1.06 * sigma * arr.size ** (-0.2), BANDWIDTH_FLOOR)
    grid = np.linspace(-3 * bw, 1 + 3 * bw, 512)
    dens = np.exp(-0.5 * ((grid[:, None] - arr) / bw) ** 2).sum(axis=1)
    dens /= arr.size * bw * math.sqrt(2 * math.pi)
    mask = dens > 0
    integrand = np.where(mask, dens * np.log(np.where(mask, dens, 1.0)), 0.0)
    return -trapezoid(integrand, grid)


class TestBandwidth:
    def test_matches_oracle(self):
        assert silverman_bandwidth(SAMPLE) == pytest.approx(
            0.17469042895682962, abs=1e-15)

    def test_iqr_term(self):
        arr = np.array(SAMPLE)
        q75, q25 = np.percentile(arr, [75, 25])
        sigma = min(arr.std(), (q75 - q25) / 1.34)
        assert silverman_bandwidth(SAMPLE) == pytest.approx(
            1.06 * sigma * 10 ** -0.2)

    def test_floor_for_constant_sample(self):
        assert silverman_bandwidth([0.5] * 10) == BANDWIDTH_FLOOR

    def test_zero_iqr_falls_back_to_std(self):
        sample = [0.0] * 9 + [1.0]
        std = np.asarray(sample).std()
        assert silverman_bandwidth(sample) == pytest.approx(
            1.06 * std * 10 ** -0.2)


class TestKde:
    def test_grid_span(self):
        est = kde(SAMPLE)
        assert est.grid[0] == pytest.approx(-3 * est.bandwidth)
        assert est.grid[-1] == pytest.approx(1 + 3 * est.bandwidth)
        assert len(est.grid) == 512

    def test_density_integrates_to_one(self):
        est = kde(SAMPLE)
        # mass within the grid (tails clipped at 3 bandwidths): close to 1
        assert trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=0.02)

    def test_empty_sample(self):
        with pytest.raises(EntropyError):
            kde([])


class TestDifferentialEntropy:
    def test_matches_oracle_value(self):
        assert differential_entropy(SAMPLE) == pytest.approx(
            0.33811761002964724, abs=1e-12)
        assert differential_entropy(SAMPLE) == pytest.approx(
            oracle_entropy(SAMPLE), abs=1e-12)

    def test_oracle_on_other_samples(self):
        for sample in (
            [0.0] * 9 + [1.0],
            [0.2, 0.21, 0.22, 0.8, 0.81, 0.82],
            list(np.linspace(0, 1, 25)),
        ):
            assert differential_entropy(sample) == pytest.approx(
                oracle_entropy(sample), abs=1e-12)

    def test_degenerate_sentinel(self):
        assert differential_entropy([0.7] * 10) == MIN_ENTROPY
        assert differential_entropy([0.0]) == MIN_ENTROPY

    def test_sentinel_below_everything(self):
        assert MIN_ENTROPY < differential_entropy([0.0] * 9 + [1.0])

    def test_spread_increases_entropy(self):
        tight = [0.5, 0.5, 0.5, 0.51, 0.49]
        wide = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert differential_entropy(wide) > differential_entropy(tight)
