"""Tests for landscape loading, budget metering and synthetic generators."""

import math
import random

import pytest

from cotune.landscape import (
    SHAPES,
    BudgetExhausted,
    BudgetMeter,
    Landscape,
    LandscapeError,
    OptionSpec,
    load_csv,
    measure,
    satisfiability_fraction,
    synth,
    write_csv,
)
from cotune.requirement import Fragment, Proposition


def tiny_landscape():
    options = [OptionSpec("a", (0, 1)), OptionSpec("b", (10, 20, 30))]
    measurements = {
        (i, j): float(i * 3 + j) for i in range(2) for j in range(3)
    }
    return Landscape(options, measurements, name="tiny")


class TestOptionSpec:
    def test_empty_domain_rejected(self):
        with pytest.raises(LandscapeError):
            OptionSpec("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(LandscapeError):
            OptionSpec("x", (1, 1, 2))


class TestLandscape:
    def test_space_size_and_exhaustive(self):
        land = tiny_landscape()
        assert land.space_size == 6
        assert land.exhaustive

    def test_value_range(self):
        land = tiny_landscape()
        assert land.v_min == 0.0
        assert land.v_max == 5.0

    def test_lookup_missing_config_raises(self):
        land = Landscape([OptionSpec("a", (0, 1))], {(0,): 1.0})
        with pytest.raises(LandscapeError):
            land.lookup((1,))

    def test_bad_config_shape_rejected(self):
        with pytest.raises(LandscapeError):
            Landscape([OptionSpec("a", (0, 1))], {(0, 1): 1.0})

    def test_random_config_in_domain(self):
        land = tiny_landscape()
        rng = random.Random(3)
        for _ in range(100):
            config = land.random_config(rng)
            assert config in land.measurements


class TestBudgetMeter:
    def test_distinct_counting_with_cache(self):
        land = tiny_landscape()
        meter = BudgetMeter(cap=3)
        assert measure(land, meter, (0, 0)) == 0.0
        assert measure(land, meter, (0, 0)) == 0.0  # cached, free
        assert meter.consumed == 1
        measure(land, meter, (0, 1))
        measure(land, meter, (0, 2))
        assert meter.consumed == 3
        with pytest.raises(BudgetExhausted):
            measure(land, meter, (1, 0))
        # revisits still served after exhaustion
        assert measure(land, meter, (0, 1)) == 1.0


class TestSatisfiabilityFraction:
    def test_counts_nonzero_scores(self):
        land = tiny_landscape()
        prop = Proposition((
            Fragment("S", 0.0, 2.0, 1.0, 0.0),
            Fragment("E", 2.0, 5.0, 0.0, 0.0),
        ))
        # values 0 and 1 score > 0; 2..5 score 0
        assert satisfiability_fraction(land, prop) == pytest.approx(2 / 6)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_the_per_value_count(self, shape):
        # plateau spaces tie 60% of their configurations at v_min
        land = synth(seed=4, n_options=9, domain_sizes=2, shape=shape)
        lo, hi = land.v_min, land.v_max
        values = sorted(land.measurements.values())
        rng = random.Random(3)
        onsets = [math.nextafter(lo, math.inf), values[1], values[40],
                  values[len(values) // 2], values[-2]]
        onsets += [rng.uniform(lo, hi) for _ in range(20)]
        props = [
            Proposition((Fragment("E", lo, hi, 0.0, 0.0),)),
            Proposition((Fragment("S", lo, hi, 1.0, 0.0),)),
            Proposition((Fragment("S", lo, hi, 1.0, 0.2),)),
        ]
        for onset in (o for o in onsets if lo < o < hi):
            props.append(Proposition((
                Fragment("S", lo, onset, 1.0, 0.0),
                Fragment("E", onset, hi, 0.0, 0.0),
            )))
            props.append(Proposition((
                Fragment("E", lo, onset, 0.4, 0.4),
                Fragment("S", onset, hi, 0.4, 0.0),
            )))
        for prop in props:
            hits = sum(1 for v in land.measurements.values()
                       if prop.evaluate(v) > 0)
            assert satisfiability_fraction(land, prop) == hits / len(values)

    def test_requires_exhaustive(self):
        land = Landscape([OptionSpec("a", (0, 1))], {(0,): 1.0})
        prop = Proposition((Fragment("E", 0.0, 1.0, 1.0, 1.0),))
        with pytest.raises(LandscapeError):
            satisfiability_fraction(land, prop)


class TestCsv:
    def test_round_trip(self, tmp_path):
        land = synth(seed=4, n_options=3, domain_sizes=3, shape="additive")
        path = tmp_path / "land.csv"
        write_csv(land, path)
        loaded = load_csv(path)
        assert loaded.space_size == land.space_size
        assert loaded.measurements == land.measurements

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,performance\n1,2,3.0\n1,2,4.0\n")
        with pytest.raises(LandscapeError, match="duplicate"):
            load_csv(path)

    def test_bad_performance_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,performance\n1,fast\n")
        with pytest.raises(LandscapeError, match="unparsable"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LandscapeError):
            load_csv(path)

    def test_string_domains(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "mode,n,performance\nfast,1,2.0\nslow,1,5.0\nfast,2,1.0\nslow,2,6.0\n")
        land = load_csv(path)
        assert land.options[0].domain == ("fast", "slow")
        assert land.exhaustive


class TestSynth:
    def test_deterministic(self):
        a = synth(seed=9, n_options=6, domain_sizes=2, shape="rugged")
        b = synth(seed=9, n_options=6, domain_sizes=2, shape="rugged")
        assert a.measurements == b.measurements

    def test_seed_changes_landscape(self):
        a = synth(seed=9, n_options=6, domain_sizes=2, shape="rugged")
        b = synth(seed=10, n_options=6, domain_sizes=2, shape="rugged")
        assert a.measurements != b.measurements

    def test_additive_structure(self):
        land = synth(seed=2, n_options=4, domain_sizes=2, shape="additive")
        m = land.measurements
        # independent contributions: flipping one option shifts performance
        # by the same amount regardless of the rest of the configuration
        delta = m[(1, 0, 0, 0)] - m[(0, 0, 0, 0)]
        assert m[(1, 1, 1, 0)] - m[(0, 1, 1, 0)] == pytest.approx(delta)

    def test_plateau_collapses_lower_values(self):
        land = synth(seed=5, n_options=8, domain_sizes=2, shape="plateau")
        values = sorted(land.measurements.values())
        modal = land.v_min
        share = sum(1 for v in values if v == modal) / len(values)
        assert share >= 0.6

    def test_enumeration_cap(self):
        with pytest.raises(LandscapeError, match="cap"):
            synth(seed=1, n_options=30, domain_sizes=2, shape="additive")

    def test_unknown_shape(self):
        with pytest.raises(LandscapeError):
            synth(seed=1, n_options=2, domain_sizes=2, shape="spiky")

    def test_exhaustive_and_mixed_domains(self):
        land = synth(seed=3, n_options=3, domain_sizes=[2, 3, 4], shape="rugged")
        assert land.space_size == 24
        assert land.exhaustive
