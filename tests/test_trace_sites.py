"""Every function the benchmark's tracer wraps must still exist.

``bench/tracing.py`` reaches cotune's functions through attribute paths such
as ``tuners.measure``, where their callers look them up. A rename under
``src/`` would otherwise break only the traced benchmark run
(``bench/run_bench.py --trace 1``), which tier-1 does not execute.
"""

import types
from pathlib import Path

import pytest

import cotune
import cotune.cli  # noqa: F401 - loads every module the tracer wraps

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
