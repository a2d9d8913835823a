"""Tests for requirement generation and calibration."""

import csv
import json
import random

import pytest

from cotune import reqgen
from cotune.landscape import Landscape, OptionSpec, satisfiability_fraction, synth
from cotune.requirement import Proposition, validate
from cotune.reqgen import (
    CalibrationError,
    GenSpec,
    generate_suite,
    generate_target,
)


def uniform_landscape():
    """64 configurations with evenly spread performance values."""
    options = [OptionSpec(f"o{i}", (0, 1)) for i in range(6)]
    return Landscape(options, [float(code) for code in range(64)],
                     name="uniform64")


class TestGenSpec:
    def test_defaults(self):
        spec = GenSpec()
        assert len(spec.d_levels) == 6
        assert spec.types == 3

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            GenSpec(d_levels=(0.0, 0.5))
        with pytest.raises(ValueError):
            GenSpec(d_levels=(1.5,))
        # a level's file name and sweep label hold it formatted with :g
        for alike in ((0.5, 0.5), (0.2, 0.12345671, 0.12345674)):
            with pytest.raises(ValueError, match="first 6 significant"):
                GenSpec(d_levels=alike)

    @pytest.mark.parametrize("kwargs", [
        {"seed": None}, {"seed": "x"}, {"seed": 1.5}, {"seed": True},
        {"types": True}, {"types": 1.0},
        {"d_levels": (True,)}, {"d_levels": ("0.5",)},
    ], ids=repr)
    def test_field_of_the_wrong_type(self, kwargs):
        (key,) = kwargs
        match = ("d levels must be numbers" if key == "d_levels"
                 else f"{key} must be an integer")
        with pytest.raises(TypeError, match=match):
            GenSpec(**kwargs)

    def test_a_level_may_be_an_int(self):
        assert GenSpec(d_levels=(1,), types=1).labels() == ["t1_d1"]

    def test_tolerance_floor(self):
        spec = GenSpec()
        assert spec.tolerance(0.5, 64) == pytest.approx(0.05)
        assert spec.tolerance(0.001, 64) == pytest.approx(1 / 64)


class TestGenerateTarget:
    def test_half_satisfiable_on_uniform_landscape(self):
        land = uniform_landscape()
        prop = generate_target(land, 0.5, GenSpec(), random.Random(0))
        assert 0.45 <= satisfiability_fraction(land, prop) <= 0.55

    def test_five_fragments_and_valid(self):
        land = uniform_landscape()
        rng = random.Random(1)
        for d in (0.05, 0.2, 0.5, 0.9):
            prop = generate_target(land, d, GenSpec(), rng)
            assert len(prop.fragments) == 5
            assert validate(prop) == []

    def test_fully_relaxed_limit(self):
        land = uniform_landscape()
        prop = generate_target(land, 1.0, GenSpec(), random.Random(2))
        assert satisfiability_fraction(land, prop) == 1.0
        assert all(prop.evaluate(v) > 0 for v in land.measurements.values())

    def test_replicates_are_distinct(self):
        land = uniform_landscape()
        rng = random.Random(3)
        props = [generate_target(land, 0.5, GenSpec(), rng) for _ in range(3)]
        assert props[0] != props[1]
        assert props[1] != props[2]
        assert props[0] != props[2]

    def test_types_differ_in_shape(self):
        land = uniform_landscape()
        a = generate_target(land, 0.5, GenSpec(), random.Random(4), 0)
        b = generate_target(land, 0.5, GenSpec(), random.Random(4), 1)
        assert [f.kind for f in a.fragments] != [f.kind for f in b.fragments]

    def test_deterministic_per_seed(self):
        land = uniform_landscape()
        a = generate_target(land, 0.2, GenSpec(), random.Random(5))
        b = generate_target(land, 0.2, GenSpec(), random.Random(5))
        assert a == b

    def test_constant_landscape_fails(self):
        land = Landscape([OptionSpec("a", (0, 1))], [3.0, 3.0])
        with pytest.raises(CalibrationError):
            generate_target(land, 0.5, GenSpec(), random.Random(0))

    def test_unachievable_level_fails(self):
        # plateau landscapes tie most values, so tiny d cannot be realized
        land = synth(seed=6, n_options=8, domain_sizes=2, shape="plateau")
        with pytest.raises(CalibrationError):
            generate_target(land, 0.001, GenSpec(), random.Random(0))

    def test_top_of_an_s_fragment_scores_as_before(self):
        # Fragment.score goes through a slope and an intercept, so the top
        # of this type-2 target scores just below 1 on both scoring paths
        land = synth(seed=7, n_options=12, domain_sizes=2, shape="rugged")
        prop = generate_target(land, 0.01, GenSpec(), random.Random(42), 1)
        assert prop.evaluate(land.v_min) == 0.9999999999999982
        assert prop.evaluate_many([land.v_min])[0] == 0.9999999999999982

    def test_collapsed_shaped_fragments_raise_calibration_error(self):
        # 60% of a plateau space ties at v_min, so the bisection drives the
        # onset onto v_min until the shaped fragments have zero width
        land = synth(seed=8, n_options=10, domain_sizes=2, shape="plateau")
        with pytest.raises(CalibrationError, match="zero width"):
            generate_target(land, 0.5, GenSpec(), random.Random(1), 1)

    def test_one_satisfiability_pass_per_bisection_step(self, monkeypatch):
        # every bisection step scores a proposition with an onset of its
        # own, and the chosen proposition keeps the fraction its step
        # computed; d=1 takes the one-pass path without a bisection
        land = synth(seed=7, n_options=12, domain_sizes=2, shape="rugged")
        onsets = []

        def spy(landscape, prop):
            onsets.append(prop.fragments[-1].v_lo)
            return satisfiability_fraction(landscape, prop)

        monkeypatch.setattr(reqgen, "satisfiability_fraction", spy)
        rng = random.Random(0)
        for type_index in range(3):
            for d in (0.001, 0.05, 0.5, 1.0):
                onsets.clear()
                generate_target(land, d, GenSpec(), rng, type_index)
                assert onsets
                assert len(onsets) == len(set(onsets)), (type_index, d)


class TestGenerateSuite:
    def test_full_cross_product(self, tmp_path):
        land = uniform_landscape()
        spec = GenSpec(d_levels=(0.05, 0.2, 0.5, 0.9), seed=7)
        entries = generate_suite(land, spec, out_dir=tmp_path)
        assert len(entries) == 12  # 3 types x 4 levels
        for entry in entries:
            assert validate(entry.proposition) == []
            tol = spec.tolerance(entry.d_requested, land.space_size)
            assert abs(entry.d_achieved - entry.d_requested) <= tol

    def test_files_and_manifest(self, tmp_path):
        land = uniform_landscape()
        spec = GenSpec(d_levels=(0.2, 0.9), types=2, seed=8)
        entries = generate_suite(land, spec, out_dir=tmp_path)
        with open(tmp_path / "manifest.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(entries) == 4
        for row in rows:
            payload = json.loads((tmp_path / row["file"]).read_text())
            prop = Proposition.from_json(payload)
            assert validate(prop) == []
            assert payload["metadata"]["d_requested"] == float(
                row["d_requested"])

    def test_achieved_levels_monotone_per_type(self):
        land = uniform_landscape()
        spec = GenSpec(d_levels=(0.05, 0.2, 0.5, 0.9), seed=9)
        entries = generate_suite(land, spec)
        for t in range(3):
            achieved = [e.d_achieved for e in entries if e.type_index == t]
            assert achieved == sorted(achieved)

    def test_deterministic(self):
        land = uniform_landscape()
        spec = GenSpec(d_levels=(0.2, 0.5), seed=10)
        a = generate_suite(land, spec)
        b = generate_suite(land, spec)
        assert [e.proposition for e in a] == [e.proposition for e in b]

    def test_suite_reuses_each_calibrated_fraction(self, monkeypatch):
        # calibration has just scored the chosen proposition, so the suite
        # makes no satisfiability pass beyond generate_target's, and each
        # d_achieved is that proposition's fraction
        land = synth(seed=7, n_options=12, domain_sizes=2, shape="rugged")
        spec = GenSpec(d_levels=(0.01, 0.5, 1.0), types=2, seed=4)
        passes = []

        def spy(landscape, prop):
            passes.append(prop)
            return satisfiability_fraction(landscape, prop)

        monkeypatch.setattr(reqgen, "satisfiability_fraction", spy)
        entries = generate_suite(land, spec)
        suite_passes = len(passes)
        passes.clear()
        rng = random.Random(spec.seed)
        for type_index in range(spec.types):
            for d in spec.d_levels:
                generate_target(land, d, spec, rng, type_index)
        assert suite_passes == len(passes)
        for entry in entries:
            assert entry.d_achieved == satisfiability_fraction(
                land, entry.proposition)

    def test_a_level_that_cannot_be_calibrated_fails_alone(self, tmp_path):
        # d=0.001 cannot be cut out of this plateau space; d=0.9 can, and
        # is the proposition it would be after the failed level's draws
        land = synth(seed=5, n_options=10, domain_sizes=2, shape="plateau")
        spec = GenSpec(d_levels=(0.001, 0.9), types=1, seed=42)
        failed, built = generate_suite(land, spec, out_dir=tmp_path)
        assert (failed.label, built.label) == ("t1_d0.001", "t1_d0.9")
        assert "cannot realize d=0.001" in failed.error
        assert failed.proposition is None and failed.file == ""
        assert built.error == ""
        rng = random.Random(spec.seed)
        with pytest.raises(CalibrationError):
            generate_target(land, 0.001, spec, rng, 0)
        assert built.proposition == generate_target(land, 0.9, spec, rng, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.csv", "req_t1_d0.9.json"]
        with open(tmp_path / "manifest.csv", newline="") as fh:
            assert [row["file"] for row in csv.DictReader(fh)] == [
                "req_t1_d0.9.json"]

    def test_nothing_is_written_when_no_level_calibrates(self, tmp_path):
        land = synth(seed=5, n_options=10, domain_sizes=2, shape="plateau")
        spec = GenSpec(d_levels=(0.001,), types=2, seed=42)
        out = tmp_path / "reqs"
        entries = generate_suite(land, spec, out_dir=out)
        assert [e.label for e in entries] == spec.labels()
        assert all(e.error and e.proposition is None for e in entries)
        assert not out.exists()

    def test_entries_carry_their_labels(self):
        spec = GenSpec(d_levels=(0.2, 0.5), types=2, seed=3)
        entries = generate_suite(uniform_landscape(), spec)
        assert [e.label for e in entries] == spec.labels()
        assert [(e.type_index, e.d_requested) for e in entries] == [
            (0, 0.2), (0, 0.5), (1, 0.2), (1, 0.5)]
