"""Spans and counters around cotune's public functions, for the traced run.

The tracer replaces each wrapped function where its caller looks it up
(``cotune.tuners.measure`` as well as ``cotune.landscape.measure``), so no
file under ``src/`` changes. Most functions record a span: name, start, end,
parent span and thread. The four hottest leaf functions (``evaluate``,
``validate``, ``differential_entropy``, ``measure``) run hundreds of
thousands of times per run; they are counted and timed in aggregate per
parent span instead, which keeps the trace small while self times stay exact.
Spans are kept in memory and written out once, after the run. Counters are
kept per thread and summed at the end, so the two threads of a ``--jobs 2``
sweep lose no update.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

# metric name -> the attribute lookups through which callers reach it
SPANNED = {
    "ga.make_offspring": ["tuners.make_offspring"],
    "ga.preserve_top": ["tuners.preserve_top"],
    "landscape.satisfiability_fraction": ["reqgen.satisfiability_fraction"],
    "landscape.synth": ["landscape.synth"],
    "landscape.load_csv": ["landscape.load_csv"],
    "reqevolve.relax_case0": ["reqevolve.relax_case0"],
    "reqevolve.tighten_case1": ["reqevolve.tighten_case1"],
    "reqevolve.escape_case2": ["reqevolve.escape_case2"],
    "reqevolve.mutate_proposition": ["reqevolve.mutate_proposition"],
    "reqgen.generate_target": ["reqgen.generate_target"],
    "tuners.cotune_run": ["tuners.cotune_run"],
    "tuners.ga_run": ["tuners.ga_run"],
    "tuners.random_run": ["tuners.random_run"],
    "harness.run_experiment": ["harness.run_experiment"],
    "harness.scott_knott_esd": ["harness.scott_knott_esd"],
    "harness.emit_trajectory_plots_data": [
        "harness.emit_trajectory_plots_data"],
}
AGGREGATED = {
    "requirement.evaluate": ["requirement.Proposition.evaluate"],
    "requirement.validate": ["reqevolve.validate", "reqgen.validate"],
    "entropy.differential_entropy": [
        "tuners.differential_entropy", "reqevolve.differential_entropy"],
    "landscape.measure": ["tuners.measure"],
}
TUNER_RUNS = ("tuners.cotune_run", "tuners.ga_run", "tuners.random_run")


class Tracer:
    """Wraps cotune's functions while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end, cpu)
        # per-thread counters, keyed ("calls", name), ("seconds", name),
        # ("under", span id) for leaf time inside a span, ("event", outcome)
        # and ("count", what)
        self._counters = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self, cotune) -> None:
        """Wrap every function; cotune.cli must have been imported."""
        self._main_stack = self._stack()
        for table, make in ((SPANNED, self._spanned),
                            (AGGREGATED, self._aggregated)):
            for name, sites in table.items():
                owner, attr = _resolve(cotune, sites[0])
                wrapper = make(name, getattr(owner, attr))
                for site in sites:
                    owner, attr = _resolve(cotune, site)
                    self._restore.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
        owner, attr = cotune.cli, "main"
        self._restore.append((owner, attr, owner.main))
        setattr(owner, attr, self._cli(owner.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        """Forget what was recorded so far (the set-up phase), except synth."""
        synth = [s for s in self.spans if s[2] == "landscape.synth"]
        self.setup_synth_seconds = sum(s[5] - s[4] for s in synth)
        self.setup_synth_count = len(synth)
        self.spans.clear()
        for counter in self._counters:
            counter.clear()

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def _parent(self, stack):
        # a pool worker's first span hangs off the main thread's open span
        stack = stack or self._main_stack
        return stack[-1] if stack else 0

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append(span_id)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                self.spans.append((span_id, parent, name,
                                   threading.get_ident(), start, end, cpu))
            if name == "landscape.satisfiability_fraction":
                self._counter()["count", "configs_scored"] += len(
                    args[0].measurements)
            elif name == "tuners.cotune_run":
                self._count_events(result.events)
            return result
        return wrapper

    def _aggregated(self, name, fn):
        # the hot path: a handful of local lookups around the call
        perf_counter, local, counter = time.perf_counter, self._local, self._counter
        flat = name == "entropy.differential_entropy"
        metered = name == "landscape.measure"

        def wrapper(*args, **kwargs):
            if metered:
                consumed = args[1].consumed
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            acc = counter()
            acc["calls", name] += 1
            acc["seconds", name] += elapsed
            stack = getattr(local, "stack", None) or self._main_stack
            acc["under", stack[-1] if stack else 0] += elapsed
            if flat and result == float("-inf"):
                acc["count", "flat_entropy"] += 1
            if metered and args[1].consumed > consumed:
                acc["count", "distinct_measures"] += 1
            return result
        return wrapper

    def _cli(self, main):
        spans = {command: self._spanned(f"cli.{command}", main)
                 for command in ("run", "rank")}

        def wrapper(argv=None):
            return spans.get(argv[0] if argv else None, main)(argv)
        return wrapper

    def _count_events(self, events) -> None:
        acc = self._counter()
        for event in events:
            case = event["case"]
            if "error" in event:
                outcome = "error"
            elif "reason" in event:
                outcome = "skipped" if "skipped" in event["reason"] else "rejected"
            elif not event["flagged"]:
                outcome = "adopted"
            else:
                outcome = "capped" if case == "case2" else "pinned"
            acc["event", f"{case}.{outcome}"] += 1

    # -- results ------------------------------------------------------------

    def totals(self) -> Counter:
        """Every thread's counters summed."""
        return sum(self._counters, Counter())

    def self_seconds(self, totals) -> dict:
        """span id -> duration minus the union of its children's intervals
        and the aggregated leaf calls made directly inside it."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append((span[4], span[5]))
        out = {}
        for span_id, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span_id] = end - start - covered - totals["under", span_id]
        return out

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, per op of the timed phase."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[2]].append(span)
        names = {s[0]: s[2] for s in self.spans}
        totals = self.totals()
        self_s = self.self_seconds(totals)

        def calls(name):
            return len(by_name[name]) / ops

        def ms(name):
            return 1000 * sum(s[5] - s[4] for s in by_name[name]) / ops

        def self_ms(name):
            return 1000 * sum(self_s[s[0]] for s in by_name[name]) / ops

        def children_of(child, parent):
            return sum(1 for s in by_name[child] if names.get(s[1]) == parent)

        tuner_runs = [s for name in TUNER_RUNS for s in by_name[name]
                      if names.get(s[1]) not in TUNER_RUNS]
        generate = len(by_name["reqgen.generate_target"])
        measure_calls = totals["calls", "landscape.measure"]
        distinct = totals["count", "distinct_measures"]
        m = {}
        for name in ("requirement.evaluate", "requirement.validate",
                     "entropy.differential_entropy", "landscape.measure"):
            m[f"{name}.calls"] = (totals["calls", name] / ops, "calls/op")
            m[f"{name}.ms"] = (1000 * totals["seconds", name] / ops, "ms/op")
        m["entropy.differential_entropy.flat"] = (
            totals["count", "flat_entropy"] / ops, "calls/op")
        m["landscape.measure.distinct"] = (distinct / ops, "calls/op")
        m["landscape.measure.hit_pct"] = (
            100 * (measure_calls - distinct) / measure_calls
            if measure_calls else 0.0, "%")
        m["ga.make_offspring.calls"] = (calls("ga.make_offspring"), "calls/op")
        m["ga.make_offspring.ms"] = (ms("ga.make_offspring"), "ms/op")
        m["ga.preserve_top.ms"] = (ms("ga.preserve_top"), "ms/op")
        sat = "landscape.satisfiability_fraction"
        m[f"{sat}.calls"] = (calls(sat), "calls/op")
        m[f"{sat}.ms"] = (ms(sat), "ms/op")
        m[f"{sat}.configs_scored"] = (totals["count", "configs_scored"] / ops,
                                      "configs/op")
        m["landscape.synth.ms"] = (
            1000 * self.setup_synth_seconds / max(1, self.setup_synth_count),
            "ms/call")
        m["landscape.load_csv.ms"] = (ms("landscape.load_csv"), "ms/op")
        for fn in ("relax_case0", "tighten_case1", "escape_case2",
                   "mutate_proposition"):
            m[f"reqevolve.{fn}.calls"] = (calls(f"reqevolve.{fn}"), "calls/op")
            m[f"reqevolve.{fn}.ms"] = (ms(f"reqevolve.{fn}"), "ms/op")
        m["reqevolve.escape_case2.draws"] = (
            children_of("reqevolve.mutate_proposition",
                        "reqevolve.escape_case2") / ops, "calls/op")
        for case, outcomes in (
                ("case0", ("adopted", "pinned", "error")),
                ("case1", ("adopted", "pinned", "error")),
                ("case2", ("adopted", "capped", "skipped", "rejected",
                           "error"))):
            for outcome in outcomes:
                m[f"reqevolve.{case}.{outcome}"] = (
                    totals["event", f"{case}.{outcome}"] / ops, "events/op")
        m["reqgen.generate_target.calls"] = (
            calls("reqgen.generate_target"), "calls/op")
        m["reqgen.generate_target.ms"] = (ms("reqgen.generate_target"), "ms/op")
        m["reqgen.bisection_steps"] = (
            children_of(sat, "reqgen.generate_target") / generate
            if generate else 0.0, "calls/call")
        m["tuners.cotune_run.ms"] = (ms("tuners.cotune_run"), "ms/op")
        m["tuners.cotune_run.self_ms"] = (self_ms("tuners.cotune_run"), "ms/op")
        m["tuners.run.cpu_ms"] = (
            1000 * sum(s[6] for s in tuner_runs) / ops, "ms/op")
        m["tuners.run.wait_ms"] = (
            1000 * sum(s[5] - s[4] - s[6] for s in tuner_runs) / ops, "ms/op")
        m["harness.run_experiment.ms"] = (ms("harness.run_experiment"), "ms/op")
        m["harness.run_experiment.self_ms"] = (
            self_ms("harness.run_experiment"), "ms/op")
        m["harness.scott_knott_esd.calls"] = (
            calls("harness.scott_knott_esd"), "calls/op")
        m["harness.scott_knott_esd.ms"] = (
            ms("harness.scott_knott_esd"), "ms/op")
        m["harness.emit_trajectory_plots_data.ms"] = (
            ms("harness.emit_trajectory_plots_data"), "ms/op")
        m["cli.run.ms"] = (ms("cli.run"), "ms/op")
        m["cli.rank.ms"] = (ms("cli.rank"), "ms/op")
        return m

    def write(self, path) -> None:
        """Write the spans and the aggregated leaf calls as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, thread, start, end, cpu in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "thread": thread, "start": start, "end": end,
                    "cpu": cpu}) + "\n")
            totals = self.totals()
            for name in AGGREGATED:
                fh.write(json.dumps({
                    "aggregate": name, "calls": totals["calls", name],
                    "seconds": totals["seconds", name]}) + "\n")


def _resolve(cotune, site: str):
    """'tuners.measure' -> (cotune.tuners, 'measure'); dotted owners too."""
    *path, attr = site.split(".")
    owner = cotune
    for part in path:
        owner = getattr(owner, part)
    return owner, attr
