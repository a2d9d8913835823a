"""Harness output bytes pinned across versions of the program.

``test_rerun_byte_identical`` and ``test_parallel_matches_serial`` compare
two sweeps made by one version, so they cannot see a change that moves
every sweep the same way. The digests below were recorded from the program
before each run's final best was kept in ``manifest.json`` and every cell
was built from those records; a refactor of the harness that keeps its
output leaves each of them unchanged. A deliberate change to an output
updates them and says why.

The sweep covers two landscapes, two generated requirements, the four
tuners and one more whose budget is below its initialization cost, so every
run of it fails and its summary rows are marked ``x``. ``rank_results``'
rows are pinned through their ``repr``. ``manifest.json`` and the
``seed<k>.csv`` files were recorded later, from the program before the
harness made each of its decisions in one place; every trajectory file is
hashed with its path under the output directory, in sorted path order.
"""

import hashlib

import pytest

from cotune.harness import (
    ExperimentConfig,
    emit_trajectory_plots_data,
    rank_results,
    run_experiment,
)

GOLDEN = {
    "summary.csv":
        "211a582f433926284aeac099e859fc1ce2905bf79ca7a3570e63c205f089be0e",
    "trajectories.csv":
        "1c6dfdb3ceb11d5ca8e1a75cc9fafdbf445c80d7bcc9bd1819ceee3f69d177fc",
    "rank welch":
        "9260559756fda3d24ecd2b36650698d6b3cf93d1d78948720a04c51fe9e1f0f3",
    "rank kruskal":
        "8c666a8de8a3df3f40c64347df1866319a4202f310fc3b2508127b3b00f9e4eb",
    "manifest.json":
        "377dff11008252a6663d3ea3d0656574eb80297e5c4e92cff9bbb1b398ccc37c",
    "seed csvs":
        "18a814f4b83584be5c51a5ec5b923354af05ff5d6f70d052c1ca2c2630a5d7dd",
}


def sweep_config(out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        landscapes=[
            {"name": "additive-3", "synth": {"seed": 3, "n_options": 10,
                                             "domain_sizes": 2,
                                             "shape": "additive"}},
            {"name": "rugged-7", "synth": {"seed": 7, "n_options": 12,
                                           "domain_sizes": 2,
                                           "shape": "rugged"}},
        ],
        requirements=[{"gen": {"d_levels": [0.001, 0.05], "types": 1}}],
        tuners=[{"name": name, "params": {"budget": 60}}
                for name in ("CoTune", "GA_p", "GA_r", "Random")]
        + [{"name": "Broken", "kind": "cotune", "params": {"budget": 5}}],
        out_dir=str(out_dir), repeats=5)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trajectories_sha256(out) -> str:
    """One digest over every seed<k>.csv under out: each file's path
    relative to out, a NUL byte and its bytes, in sorted path order."""
    files = sorted((path.relative_to(out).as_posix(), path)
                   for path in out.rglob("seed*.csv"))
    assert len(files) == 80  # 2 landscapes x 2 requirements x 4 tuners x 5
    return sha256(b"".join(rel.encode() + b"\0" + path.read_bytes()
                           for rel, path in files))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "out"
    result = run_experiment(sweep_config(out))
    assert {f["tuner"] for f in result["failures"]} == {"Broken"}
    emit_trajectory_plots_data(out)
    return {
        "summary.csv": sha256((out / "summary.csv").read_bytes()),
        "trajectories.csv": sha256((out / "trajectories.csv").read_bytes()),
        "manifest.json": sha256((out / "manifest.json").read_bytes()),
        "seed csvs": trajectories_sha256(out),
        **{f"rank {test}": sha256(repr(rank_results(out, test)).encode())
           for test in ("welch", "kruskal")},
    }


@pytest.mark.parametrize("output", sorted(GOLDEN))
def test_output_matches_golden(digests, output):
    assert digests[output] == GOLDEN[output]
