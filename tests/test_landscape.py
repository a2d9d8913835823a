"""Tests for landscape loading, budget metering and synthetic generators."""

import hashlib
import math
import pickle
import random

import pytest

from cotune import landscape as landscape_mod
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
from cotune.reqgen import GenSpec, generate_target
from cotune.requirement import Fragment, Proposition
from cotune.tuners import TunerParams, cotune_run, ga_run, random_run


def tiny_landscape():
    """Configuration (i, j) performs i * 3 + j: its code."""
    options = [OptionSpec("a", (0, 1)), OptionSpec("b", (10, 20, 30))]
    return Landscape(options, [float(code) for code in range(6)], name="tiny")


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
        land = Landscape([OptionSpec("a", (0, 1))], [1.0], codes=[0])
        with pytest.raises(LandscapeError):
            land.lookup((1,))

    def test_bad_config_shape_rejected(self):
        options = [OptionSpec("a", (0, 1))]
        with pytest.raises(LandscapeError, match="3 values for a space of 2"):
            Landscape(options, [1.0, 2.0, 3.0])
        with pytest.raises(LandscapeError, match="inside the space"):
            Landscape(options, [1.0], codes=[2])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_performance_rejected(self, value):
        with pytest.raises(LandscapeError, match=r"\(1,\).*non-finite"):
            Landscape([OptionSpec("a", (0, 1))], [1.0, value])

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
        land = Landscape([OptionSpec("a", (0, 1))], [1.0], codes=[0])
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

    def test_an_unnamed_landscape_is_named_by_its_stem(self, tmp_path):
        path = tmp_path / "x264" / "data.csv"
        path.parent.mkdir()
        write_csv(synth(seed=4, n_options=3, domain_sizes=2,
                        shape="additive"), path)
        assert load_csv(path).name == "data"
        assert load_csv(str(path)).name == "data"
        assert load_csv(path, name="x264").name == "x264"

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

    def test_column_mixing_numbers_and_text_reads_as_text(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,b,perf\nx,1,1.0\n 1 ,1,2.0\nauto,2,3.0\n")
        land = load_csv(path)
        assert land.options[0].domain == ("1", "auto", "x")
        assert land.options[1].domain == (1.0, 2.0)
        assert land.measurements == {(2, 0): 1.0, (0, 0): 2.0, (1, 1): 3.0}

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_performance_rejected(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"a,perf\n0,1.0\n1,{cell}\n")
        with pytest.raises(LandscapeError, match="row 3: non-finite"):
            load_csv(path)

    def test_spellings_of_one_number_are_one_value(self, tmp_path):
        path = tmp_path / "ones.csv"
        path.write_text("a,b,perf\n1,0,1.0\n1.0,1,2.0\n 1,2,3.0\n")
        land = load_csv(path)
        assert land.options[0].domain == (1.0,)
        assert land.options[1].domain == (0.0, 1.0, 2.0)
        assert land.measurements == {(0, 0): 1.0, (0, 1): 2.0, (0, 2): 3.0}

    @pytest.mark.parametrize("first, second", [("-0", "0"), ("0", "-0.0")])
    def test_equal_values_keep_the_first_spelling(self, tmp_path, first,
                                                  second):
        path = tmp_path / "zeros.csv"
        path.write_text(f"a,b,perf\n{first},0,1.0\n{second},1,2.0\n")
        (zero,) = load_csv(path).options[0].domain
        assert repr(zero) == repr(float(first))

    def test_nan_cells_of_one_spelling_are_one_value(self, tmp_path):
        # a NaN compares false with everything, so it stays where it first
        # occurs; its hash is its id, so a set would place it at random
        path = tmp_path / "nan_option.csv"
        path.write_text("a,b,perf\nnan,0,1.0\nnan,1,2.0\n1,0,3.0\n")
        for _ in range(20):
            land = load_csv(path)
            assert repr(land.options[0].domain) == "(nan, 1.0)"
            assert land.measurements == {(0, 0): 1.0, (0, 1): 2.0,
                                         (1, 0): 3.0}


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

    def test_enumeration_cap_is_the_module_constant(self, monkeypatch):
        monkeypatch.setattr(landscape_mod, "ENUMERATION_CAP", 8)
        assert synth(seed=1, n_options=3, domain_sizes=2,
                     shape="additive").space_size == 8
        with pytest.raises(LandscapeError, match="enumeration cap 8"):
            synth(seed=1, n_options=4, domain_sizes=2, shape="additive")

    def test_unknown_shape(self):
        with pytest.raises(LandscapeError):
            synth(seed=1, n_options=2, domain_sizes=2, shape="spiky")

    def test_exhaustive_and_mixed_domains(self):
        land = synth(seed=3, n_options=3, domain_sizes=[2, 3, 4], shape="rugged")
        assert land.space_size == 24
        assert land.exhaustive


# Option layouts of the pinned synth spaces: uniform, mixed, with a size-1
# option, and the one- and two-option cases of the rugged neighbour draw.
SYNTH_LAYOUTS = (
    (9, 2), (4, 3), (5, [4, 3, 1, 2, 3]), (3, [1, 3, 2]), (4, [2, 1, 1, 5]),
    (1, [5]), (2, [3, 4]),
)
SYNTH_SEEDS = (0, 1, 7, 42)


def synth_digest(shape):
    """sha256 over the key order and the float.hex of every value of the
    spaces of one shape, the name and the extremes."""
    h = hashlib.sha256()
    for seed in SYNTH_SEEDS:
        for n_options, sizes in SYNTH_LAYOUTS:
            land = synth(seed, n_options, sizes, shape)
            h.update(f"{land.name}|{land.v_min.hex()}|{land.v_max.hex()}\n"
                     .encode())
            for config, value in land.measurements.items():
                h.update(f"{config}:{value.hex()}\n".encode())
    return h.hexdigest()


class TestSynthPinned:
    """Digests recorded from the per-configuration loop that built synth
    spaces before its numpy rewrite (Python 3.11, whose float sum() adds
    left to right)."""

    DIGESTS = {
        "rugged":
            "c2854c2d377eb05ad4fb62155202aa9f21a5810a1d4c0494c2e4973c52f81013",
        "additive":
            "5aca7f4fb3554eade790cf0b1b2e240260b8066d275b501ca7f8731c49f5cc55",
        "plateau":
            "cdac42677b7786d1ac3973d713b75ee57058bdeaf4771884a55b7b17d25d4116",
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_digest(self, shape):
        assert synth_digest(shape) == self.DIGESTS[shape]

    @pytest.mark.parametrize("seed", SYNTH_SEEDS)
    @pytest.mark.parametrize("n_options, sizes", SYNTH_LAYOUTS)
    def test_additive_is_a_left_to_right_sum(self, seed, n_options, sizes):
        if isinstance(sizes, int):
            sizes = [sizes] * n_options
        rng = random.Random(seed)
        contrib = [[rng.uniform(0.0, 10.0) for _ in range(s)] for s in sizes]
        land = synth(seed, n_options, sizes, "additive")
        assert len(land.measurements) == math.prod(sizes)
        for config, value in land.measurements.items():
            total = 0.0
            for i, idx in enumerate(config):
                total += contrib[i][idx]
            assert value.hex() == total.hex(), config


# The acceptance landscapes and the sha256 of the CSV write_csv wrote for
# each before landscapes were stored as arrays.
ACCEPTANCE_CSVS = (
    (dict(seed=7, n_options=12, domain_sizes=2, shape="rugged"),
     "1fa3e5837c80725a38c57d2b044bfcad63c4690437f511a8b76ad85786a7086e"),
    (dict(seed=3, n_options=10, domain_sizes=2, shape="additive"),
     "aa877b77c5684c4800b1996b69129d5414f267f29403b65c0993cb2e7e050338"),
    (dict(seed=11, n_options=6, domain_sizes=[4, 3, 4, 3, 2, 2],
          shape="rugged"),
     "72ab4fc2dac9a50efefd16dc908e430bf0125d891dcb2fd71f245b2cf9a68ec3"),
)


class TestStorage:
    """One value array in code order; partial spaces keep their codes."""

    def test_shuffled_exhaustive_csv(self, tmp_path):
        land = synth(seed=2, n_options=3, domain_sizes=[2, 3, 4],
                     shape="rugged")
        path = tmp_path / "land.csv"
        write_csv(land, path)
        header, *rows = path.read_text().splitlines()
        random.Random(5).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *rows]) + "\n")
        loaded = load_csv(shuffled)
        assert loaded.exhaustive
        for config in land.configs():
            assert loaded.lookup(config) == land.lookup(config)
        assert loaded.measurements == land.measurements

    @pytest.mark.parametrize("rows, lineno", [
        ("1,1.0\n0,2.0\n0,3.0\n1,4.0\n", 4),
        ("1,1.0\n0,2.0\n1,3.0\n0,4.0\n", 4),
        ("0,1.0\n1,2.0\n2,3.0\n2,4.0\n0,5.0\n", 5),
    ])
    def test_duplicate_row_names_its_line(self, tmp_path, rows, lineno):
        path = tmp_path / "dup.csv"
        path.write_text("a,performance\n" + rows)
        with pytest.raises(LandscapeError,
                           match=f"row {lineno}: duplicate configuration"):
            load_csv(path)

    @pytest.mark.parametrize("config, match", [
        ((2, 0), "out of range for option 'a'"),
        ((0, -1), "out of range for option 'b'"),
        ((0,), "wrong length"),
        ((0, 0, 0), "wrong length"),
        ((1, 1), "absent from dataset"),
    ])
    def test_bad_lookup_raises(self, config, match):
        options = [OptionSpec("a", (0, 1)), OptionSpec("b", (10, 20, 30))]
        land = Landscape(options, [5.0, 7.0], codes=[0, 5])
        assert not land.exhaustive
        assert land.lookup((0, 0)) == 5.0
        assert land.lookup((1, 2)) == 7.0
        with pytest.raises(LandscapeError, match=match):
            land.lookup(config)

    def test_partial_space_beyond_int64_codes(self, tmp_path):
        # 2^64 configurations: the all-ones code, 2^64 - 1, overflows int64
        n = 64
        configs = [(0,) * n, (1,) * n, (0, 1) * (n // 2), (1, 0) * (n // 2),
                   (1,) + (0,) * (n - 1)]
        path = tmp_path / "wide.csv"
        path.write_text(
            ",".join(f"o{i}" for i in range(n)) + ",performance\n"
            + "".join(",".join(map(str, c)) + f",{k + 0.5}\n"
                      for k, c in enumerate(configs)))
        land = load_csv(path)
        assert land.space_size == 2 ** n
        assert not land.exhaustive
        for k, config in enumerate(configs):
            assert land.lookup(config) == k + 0.5
        assert land.measurements == {c: k + 0.5 for k, c in enumerate(configs)}
        with pytest.raises(LandscapeError, match="absent"):
            land.lookup((0,) * (n - 1) + (1,))
        rewritten = tmp_path / "rewritten.csv"
        write_csv(land, rewritten)
        assert load_csv(rewritten).measurements == land.measurements

    @pytest.mark.parametrize("partial", [False, True])
    def test_pickle_round_trip(self, partial):
        land = synth(seed=4, n_options=5, domain_sizes=3, shape="plateau")
        if partial:
            land = Landscape(land.options, land.performance_array[::7],
                             codes=range(0, land.space_size, 7))
        land.measurements  # a built view is not pickled; it is rebuilt
        copy = pickle.loads(pickle.dumps(land))
        assert "measurements" not in vars(copy)
        assert (copy.v_min, copy.v_max) == (land.v_min, land.v_max)
        assert copy.exhaustive == land.exhaustive == (not partial)
        for config in land.configs():
            value = copy.lookup(config)
            assert type(value) is float and value == land.lookup(config)
        assert copy.measurements == land.measurements

    @pytest.mark.parametrize("spec, digest", ACCEPTANCE_CSVS)
    def test_write_csv_bytes(self, tmp_path, spec, digest):
        path = tmp_path / "land.csv"
        write_csv(synth(**spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_no_tuner_or_calibration_path_builds_measurements(self):
        land = synth(seed=7, n_options=9, domain_sizes=2, shape="rugged")
        p_t = generate_target(land, 0.01, GenSpec(), random.Random(1))
        assert 0 < satisfiability_fraction(land, p_t) < 1
        params = TunerParams(budget=60, early_stop=False)
        for run in (cotune_run, ga_run, random_run):
            run(land, p_t, params, seed=3)
        ga_run(land, p_t, params, seed=3, objective="raw")
        assert "measurements" not in vars(land)
