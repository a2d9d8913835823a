"""Tests of the benchmark's reference scorer and of its output checks.

Run with ``python -m pytest bench``. Nothing here imports cotune: each check
is fed a hand-made output that passes, then the same output with one defect.
"""

import csv
import json
import math

import pytest

import oracle

# p(v): E at 0.7 on [0, 1], S from 0.7 to 0.1 on [1, 3]
E_THEN_S = [("E", 0.0, 1.0, 0.7, 0.7), ("S", 1.0, 3.0, 0.7, 0.1)]
# a drop at the shared boundary 1: S from 1.0 to 0.6, then E at 0.3
DROP_AT_1 = [("S", 0.0, 1.0, 1.0, 0.6), ("E", 1.0, 2.0, 0.3, 0.3)]


class TestScore:
    def test_e_fragment_is_constant(self):
        assert oracle.score(E_THEN_S, 0.0) == 0.7
        assert oracle.score(E_THEN_S, 0.5) == 0.7

    def test_s_fragment_is_linear(self):
        assert oracle.score(E_THEN_S, 2.0) == pytest.approx(0.4, abs=1e-15)
        assert oracle.score(E_THEN_S, 2.5) == pytest.approx(0.25, abs=1e-15)
        assert oracle.score(E_THEN_S, 3.0) == pytest.approx(0.1, abs=1e-15)

    def test_values_outside_the_range_are_clamped(self):
        assert oracle.score(E_THEN_S, -5.0) == 0.7
        assert oracle.score(E_THEN_S, 10.0) == pytest.approx(0.1, abs=1e-15)
        assert oracle.score(DROP_AT_1, -1.0) == 1.0
        assert oracle.score(DROP_AT_1, 7.0) == 0.3

    def test_shared_boundary_takes_the_left_fragment(self):
        assert oracle.score(DROP_AT_1, 1.0) == pytest.approx(0.6, abs=1e-15)
        assert oracle.score(DROP_AT_1, math.nextafter(1.0, 2.0)) == 0.3


# -- coevolve: one direct tuner run ------------------------------------------

MEASUREMENTS = {(0,): 0.5, (1,): 2.0, (2,): 2.5, (3,): 3.0}
BEST = oracle.score(E_THEN_S, 2.0)  # configuration (1,)
ROWS = [(0, 10, 0.25, "", "", 0.0, 0.1),
        (1, 20, BEST, "p_a", "case2", 0.5, 0.2),
        (2, 30, BEST, "p_t", "", 0.5, 0.2)]


def run_problems(**changes):
    run = dict(frags=E_THEN_S, measurements=MEASUREMENTS, optimum=0.7,
               budget=300, best_config=(1,),
               best_score=BEST, budget_consumed=30,
               meter_consumed=30, meter_cache_size=30, rows=ROWS)
    run.update(changes)
    return oracle.check_tuner_run(**run)


class TestTunerRunCheck:
    def test_a_consistent_run_passes(self):
        assert run_problems() == []

    def test_best_score_off_by_1e_9_is_rejected(self):
        best = BEST + 1e-9
        rows = ROWS[:2] + [ROWS[2][:2] + (best,) + ROWS[2][3:]]
        assert run_problems(best_score=best, rows=rows)

    def test_budget_overrun_is_rejected(self):
        rows = ROWS[:2] + [(2, 301) + ROWS[2][2:]]
        assert run_problems(budget_consumed=301, meter_consumed=301,
                            meter_cache_size=301, rows=rows)

    def test_meter_disagreeing_with_its_cache_is_rejected(self):
        assert run_problems(meter_cache_size=29)

    def test_falling_trajectory_is_rejected(self):
        rows = [ROWS[0], ROWS[1][:2] + (0.2,) + ROWS[1][3:], ROWS[2]]
        assert run_problems(rows=rows)

    def test_trajectory_ending_below_best_score_is_rejected(self):
        assert run_problems(rows=ROWS[:1])

    def test_best_score_above_the_optimum_is_rejected(self):
        assert run_problems(optimum=0.3)


def test_fingerprint_reads_csv_rows_like_results(tmp_path):
    path = tmp_path / "seed0.csv"
    write_trajectory(path, ROWS)
    assert oracle.read_trajectory(path) == ROWS
    assert oracle.fingerprint(oracle.read_trajectory(path)) == \
        oracle.fingerprint(ROWS)


def test_evals_to_best_is_the_budget_at_the_first_final_best():
    assert oracle.evals_to_best(ROWS) == 20


# -- sweep: one `cotune run` + `cotune rank` cell ----------------------------

TUNERS = ("CoTune", "GA_p", "GA_r", "Random")
FINALS = {"CoTune": [1.0, 0.9, 0.8], "GA_p": [0.7, 0.9, 0.6],
          "GA_r": [0.1, 0.2, 0.7], "Random": [0.0, 0.1, 0.2]}
RANKS = {"CoTune": 1, "GA_p": 1, "GA_r": 2, "Random": 2}


def write_trajectory(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "budget_used", "best_pt_score",
                         "guiding_proposition", "case_fired", "theta",
                         "entropy_pa"])
        for it, budget, best, guiding, case, theta, entropy in rows:
            writer.writerow([it, budget, repr(best), guiding, case,
                             repr(theta), repr(entropy)])


def write_cell(out, means=None):
    for tuner, finals in FINALS.items():
        for k, final in enumerate(finals):
            write_trajectory(out / "land" / "req" / tuner / f"seed{k}.csv",
                             [(0, 10, 0.0, "", "", 0.0, 0.0),
                              (1, 20, final, "", "", 0.0, 0.0)])
    (out / "manifest.json").write_text(json.dumps({"failures": []}))
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["landscape", "requirement", "tuner", "mean", "std",
                         "rank", "runs", "failed"])
        for tuner, finals in FINALS.items():
            mean = (means or {}).get(tuner, repr(math.fsum(finals) / 3))
            writer.writerow(["land", "req", tuner, mean, "0.1",
                             RANKS[tuner], 3, ""])
    return "land / req:\n" + "".join(
        f"  {t}: {math.fsum(f) / 3:.4f} +/- 0.1000 (rank {RANKS[t]})\n"
        for t, f in FINALS.items())


def cell_problems(out, rank_text, run_rc=0):
    return oracle.check_sweep_cell(out, TUNERS, 3, 300, run_rc, 0,
                                   rank_text)[0]


class TestSweepCellCheck:
    def test_a_consistent_cell_passes(self, tmp_path):
        assert cell_problems(tmp_path, write_cell(tmp_path)) == []

    def test_summary_mean_changed_in_its_last_digit_is_rejected(self, tmp_path):
        mean = repr(math.fsum(FINALS["GA_r"]) / 3)
        last = mean[-1]
        changed = mean[:-1] + ("1" if last != "1" else "2")
        assert float(changed) != float(mean)
        text = write_cell(tmp_path, means={"GA_r": changed})
        assert cell_problems(tmp_path, text)

    def test_trajectory_over_budget_is_rejected(self, tmp_path):
        text = write_cell(tmp_path)
        write_trajectory(tmp_path / "land" / "req" / "GA_p" / "seed1.csv",
                         [(0, 10, 0.0, "", "", 0.0, 0.0),
                          (1, 301, 0.9, "", "", 0.0, 0.0)])
        assert cell_problems(tmp_path, text)

    def test_a_failed_run_is_rejected(self, tmp_path):
        text = write_cell(tmp_path)
        (tmp_path / "land" / "req" / "Random" / "seed2.csv").unlink()
        assert cell_problems(tmp_path, text)
        assert cell_problems(tmp_path, write_cell(tmp_path), run_rc=2)

    def test_top_mean_outside_rank_one_is_rejected(self, tmp_path):
        text = write_cell(tmp_path).replace("(rank 1)", "(rank 3)", 1)
        assert cell_problems(tmp_path, text)


# -- calibrate: one generated target requirement -----------------------------

# 1000 values 0.0 .. 99.9; the requirement scores v > 0 exactly below 1.0
VALUES = [i / 10 for i in range(1000)]
ONSET_1 = [("S", 0.0, 0.5, 1.0, 0.5), ("S", 0.5, 1.0, 0.5, 0.0),
           ("E", 1.0, 99.9, 0.0, 0.0)]


def calibration_problems(frags=ONSET_1, d=0.01, violations=(),
                         program_fraction=10 / 1000):
    return oracle.check_calibration(
        frags, oracle.satisfiable_count(frags, VALUES), len(VALUES), d,
        list(violations), program_fraction)


class TestCalibrationCheck:
    def test_the_count_is_of_values_below_the_onset(self):
        assert oracle.satisfiable_count(ONSET_1, VALUES) == 10

    def test_a_calibrated_requirement_passes(self):
        # 10 of 1000 satisfiable: d = 0.01 exactly
        assert calibration_problems() == []

    def test_achieved_fraction_off_by_one_configuration_is_rejected(self):
        assert calibration_problems(program_fraction=11 / 1000)
        assert calibration_problems(program_fraction=9 / 1000)

    def test_fraction_outside_the_tolerance_is_rejected(self):
        # tolerance is max(0.1 * d, 1/N) = 0.002 around d
        assert calibration_problems(d=0.013)

    def test_validate_violations_are_rejected(self):
        assert calibration_problems(
            violations=["fragment 0: zero-width interval"])

    def test_a_rising_requirement_is_rejected(self):
        rising = [("S", 0.0, 0.5, 1.0, 0.5), ("S", 0.5, 1.0, 0.6, 0.0),
                  ("E", 1.0, 99.9, 0.0, 0.0)]
        assert calibration_problems(frags=rising)
