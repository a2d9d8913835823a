"""Tests for the score-entropy machinery."""

import math
import random

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cotune.entropy import (
    BANDWIDTH_FLOOR,
    GRID_POINTS,
    MIN_ENTROPY,
    EntropyError,
    _density,
    differential_entropy,
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
        bw, grid, _ = _density(np.asarray(SAMPLE, dtype=float))
        assert grid[0] == pytest.approx(-3 * bw)
        assert grid[-1] == pytest.approx(1 + 3 * bw)
        assert len(grid) == 512

    def test_density_integrates_to_one(self):
        _, grid, density = _density(np.asarray(SAMPLE, dtype=float))
        # mass within the grid (tails clipped at 3 bandwidths): close to 1
        assert trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)

    def test_empty_sample(self):
        with pytest.raises(EntropyError):
            differential_entropy([])


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


def reference_kde(sample, grid_points=GRID_POINTS):
    """The kernel as first written: (bandwidth, grid, density)."""
    arr = np.asarray(sample, dtype=float)
    bw = silverman_bandwidth(arr)
    grid = np.linspace(0.0 - 3.0 * bw, 1.0 + 3.0 * bw, grid_points)
    # mean of Gaussian kernels centered at the sample points
    z = (grid[:, None] - arr[None, :]) / bw
    density = np.exp(-0.5 * z * z).sum(axis=1) / (
        arr.size * bw * math.sqrt(2.0 * math.pi)
    )
    return bw, grid, density


def reference_entropy(sample, grid_points=GRID_POINTS):
    """differential_entropy as first written, on reference_kde."""
    if max(sample) == min(sample):
        return MIN_ENTROPY
    _, grid, beta = reference_kde(sample, grid_points)
    # 0 * log 0 := 0
    integrand = np.where(beta > 0.0, -beta * np.log(np.where(beta > 0, beta, 1.0)), 0.0)
    return float(np.trapezoid(integrand, grid))


class TestKernelExactness:
    """The kernel gives the bits of the formula it replaced, not just close
    values: trajectories and their digests depend on every entropy."""

    # numpy adds fewer than 8 terms one by one, up to 128 in eight
    # accumulators plus a tail, and more by halves: every branch and edge
    SIZES = (2, 3, 5, 7, 8, 9, 10, 11, 16, 17, 20, 128, 129, 300)

    @staticmethod
    def samples(n, rng, count=540):
        for i in range(count):
            if i % 4 == 0:  # spread scores
                yield [rng.random() for _ in range(n)]
            elif i % 4 == 1:  # ties at both ends of the score range
                yield [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
            elif i % 4 == 2:  # near-constant: the bandwidth floor applies
                base = rng.random()
                yield [base + rng.choice((0.0, 1e-9, 1e-7)) for _ in range(n)]
            else:  # tie-heavy: 1 to 4 distinct scores
                scores = [rng.random() for _ in range(1 + i // 4 % 4)]
                yield [rng.choice(scores) for _ in range(n)]

    def test_entropy_bits_match_the_reference(self):
        rng = random.Random(2024)
        floored = checked = 0
        for n in self.SIZES:
            for sample in self.samples(n, rng):
                expected = reference_entropy(sample)
                got = differential_entropy(sample)
                assert got == expected, sample
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)
                checked += 1
                if (expected != MIN_ENTROPY
                        and silverman_bandwidth(sample) == BANDWIDTH_FLOOR):
                    floored += 1
        assert checked == 7560
        assert floored > 100

    def test_density_bits_match_the_reference(self):
        rng = random.Random(7)
        for n in self.SIZES:
            for sample in self.samples(n, rng, count=30):
                bw, grid, density = reference_kde(sample)
                got_bw, got_grid, got_density = _density(
                    np.asarray(sample, dtype=float))
                assert got_bw == bw
                assert np.array_equal(got_grid, grid)
                assert np.array_equal(got_density, density)
