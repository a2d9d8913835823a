"""What the benchmark's tracer reads from cotune must still be there.

``bench/tracing.py`` reaches cotune's functions through attribute paths such
as ``tuners.measure``, where their callers look them up, and it classifies a
case-2 event as skipped or rejected by the text of its reason. A rename under
``src/`` or a reworded reason would otherwise break only the traced benchmark
run (``bench/run_bench.py --trace 1``), which tier-1 does not execute.
"""

import types
from pathlib import Path

import pytest

import cotune
import cotune.cli  # noqa: F401 - loads every module the tracer wraps
import test_tuners
from cotune import reqevolve
from cotune.tuners import cotune_run

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, compiled from its source without
    writing a bytecode cache next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


tracing = load_tracing()
SITES = sorted({site for table in (tracing.SPANNED, tracing.AGGREGATED)
                for sites in table.values() for site in sites}
               | set(tracing.TUNER_RUNS))


@pytest.mark.parametrize("site", SITES)
def test_trace_site_resolves(site):
    owner, attr = tracing._resolve(cotune, site)
    assert callable(getattr(owner, attr, None)), site


def test_case2_outcomes_count_as_the_run_decided(monkeypatch):
    escapes = 0
    real_escape = reqevolve.escape_case2

    def spy(*args, **kwargs):
        nonlocal escapes
        escapes += 1
        return real_escape(*args, **kwargs)

    monkeypatch.setattr(reqevolve, "escape_case2", spy)
    stagnation = test_tuners.TestStagnationEscape
    land, p_t, params = stagnation.strict_setup()
    tracer = tracing.Tracer()
    firings = 0
    for seed in stagnation.SEEDS:
        events = cotune_run(land, p_t, params, seed=seed).events
        firings += sum(e["case"] == reqevolve.CASE2 for e in events)
        tracer._count_events(events)
    counts = {outcome: tracer.totals()["event", f"case2.{outcome}"]
              for outcome in ("skipped", "adopted", "capped", "rejected")}
    assert counts["skipped"] == firings - escapes > 0
    assert counts["adopted"] + counts["capped"] + counts["rejected"] == escapes
    assert counts["adopted"] > 0 and counts["rejected"] > 0
