"""The committed headline suite, experiments/headline.json.

The full suite (6 landscapes x 18 requirements x 7 tuners x 30 seeds) is
run by hand with ``cotune run --config experiments/headline.json``. This
test pins its definition and runs a shrunken copy of it end to end through
``cotune run`` and ``cotune rank``. It pins nothing about which tuner wins.
"""

import csv
import json
from pathlib import Path

from cotune.cli import main as cli_main

HEADLINE = Path(__file__).resolve().parent.parent / "experiments" / "headline.json"

LANDSCAPES = {
    "rugged-7": (7, 16, 2, "rugged"),
    "rugged-21": (21, 18, 2, "rugged"),
    "rugged-31": (31, 11, 3, "rugged"),
    "rugged-11": (11, 9, [4, 3, 4, 3, 2, 2, 4, 3, 4], "rugged"),
    "additive-3": (3, 16, 2, "additive"),
    "additive-23": (23, 8, 4, "additive"),
}


def load():
    return json.loads(HEADLINE.read_text(encoding="utf-8"))


def test_headline_suite_definition():
    config = load()
    assert {entry["name"]: (entry["synth"]["seed"], entry["synth"]["n_options"],
                            entry["synth"]["domain_sizes"],
                            entry["synth"]["shape"])
            for entry in config["landscapes"]} == LANDSCAPES
    # GenSpec's defaults: 3 types x 6 levels
    assert config["requirements"] == [{"gen": {"seed": 42}}]
    tuners = {t["name"]: (t.get("kind", ""), t.get("params", {}))
              for t in config["tuners"]}
    assert tuners == {
        "CoTune": ("", {}),
        "CoTune-no-case0": ("cotune", {"enable_case0": False}),
        "CoTune-no-case1": ("cotune", {"enable_case1": False}),
        "CoTune-no-case2": ("cotune", {"enable_case2": False}),
        "GA_p": ("", {}),
        "GA_r": ("", {}),
        "Random": ("", {}),
    }
    assert (config["repeats"], config["early_stop"]) == (30, False)
    assert "seed_base" not in config and "jobs" not in config


def test_shrunken_headline_suite_runs_and_ranks(tmp_path, capsys):
    # every landscape and tuner; 1 type x 2 levels and 2 seeds: 168 runs
    config = load()
    config["requirements"] = [
        {"gen": {"seed": 42, "types": 1, "d_levels": [0.01, 0.5]}}]
    config["repeats"] = 2
    config["out_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "headline.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert cli_main(["run", "--config", str(config_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert len(manifest["runs"]) == 6 * 2 * 7 * 2

    names = [t["name"] for t in config["tuners"]]
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for row in rows:
        cells.setdefault((row["landscape"], row["requirement"]), []).append(row)
    assert set(cells) == {(land, req) for land in LANDSCAPES
                          for req in ("t1_d0.01", "t1_d0.5")}
    for cell, cell_rows in cells.items():
        assert sorted(r["tuner"] for r in cell_rows) == sorted(names), cell
        assert all(r["runs"] == "2" and r["failed"] == "" for r in cell_rows)
        assert any(r["rank"] == "1" for r in cell_rows), cell

    capsys.readouterr()
    assert cli_main(["rank", "--results", str(tmp_path / "out")]) == 0
    ranked = {}  # "<landscape> / <requirement>" -> its tuner lines
    for line in capsys.readouterr().out.splitlines():
        if line.startswith(" "):
            ranked[cell].append(line)
        else:
            cell = line.removesuffix(":")
            ranked[cell] = []
    assert set(ranked) == {f"{land} / {req}" for land, req in cells}
    for cell, lines in ranked.items():
        assert len(lines) == len(names), cell
        assert any(line.endswith("(rank 1)") for line in lines), cell
