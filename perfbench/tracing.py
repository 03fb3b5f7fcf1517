"""In-memory span recorder wrapped around the program's layer entry points.

The program itself is not instrumented: :class:`Tracer` replaces each
public function or method listed in :data:`LAYERS` with a wrapper that
records a span (name, start, end, parent) and, for some layers, a few
counts read off the call's arguments or result.  Wrappers are
installed only around traced rounds and removed afterwards.

A layer's self time is its spans' total duration minus the part of it
covered by child spans, so ``engine.self_s`` excludes the solver and
``slicing.slice_s`` excludes nothing it does not do itself.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Artifact-store tiers the program uses (``cache.hits.<tier>`` etc.).
CACHE_TIERS = ("frontend", "prep", "slices", "model", "sim", "edge")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name``; ``after(tracer, args,
        result, seconds)`` may add counts once the call returns."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer._lock:
                tracer._next += 1
                sid = tracer._next
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent))
            if after is not None:
                after(tracer, args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr_path, name, after in LAYERS:
            owner = importlib.import_module(module_name)
            *holders, attr = attr_path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start - child_time[span.sid]
        return out

    def total_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span.sid, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                }) + "\n")


# -- traced rounds ----------------------------------------------------------------


@dataclass
class Window:
    """One round's tracer and :mod:`repro.obs` registry (both None when
    the round is untraced)."""

    tracer: Optional[Tracer] = None
    registry: Any = None


@contextmanager
def window(traced: bool) -> Iterator[Window]:
    if not traced:
        yield Window()
        return
    from repro.obs import metrics as obs_metrics

    win = Window(Tracer(), obs_metrics.MetricsRegistry())
    previous = obs_metrics.install(win.registry)
    win.tracer.install()
    try:
        yield win
    finally:
        win.tracer.uninstall()
        obs_metrics.uninstall(previous)


@dataclass
class Rounds:
    """What :func:`measure_rounds` ran."""

    count: int = 0
    #: The first traced round's window (None when not tracing).
    first_traced: Optional[Window] = None
    #: Each round's headline seconds, by whether it was traced.
    headline: Dict[bool, List[float]] = field(
        default_factory=lambda: {False: [], True: []})

    def overhead_pct(self) -> float:
        """Tracing overhead: traced minus untraced headline, in percent."""
        untraced, traced = self.headline[False], self.headline[True]
        if not untraced or not traced:
            return 0.0
        base = statistics.median(untraced)
        return 100.0 * (statistics.median(traced) - base) / base


def measure_rounds(
    seconds: float, trace: bool, body: Callable[[int, Window], float], min_rounds: int = 2
) -> Rounds:
    """Run ``body(round, window)`` until ``seconds`` have passed.

    Only whole rounds run, and at least ``min_rounds``.  With ``trace``
    every second round is traced, starting with round 1, so the
    per-layer numbers always come from the same position in the seeded
    input stream and untraced rounds give the overhead baseline.
    ``body`` returns the round's headline seconds.
    """
    rounds = Rounds()
    deadline = time.perf_counter() + seconds
    while rounds.count < min_rounds or time.perf_counter() < deadline:
        traced = trace and rounds.count % 2 == 1
        with window(traced) as win:
            headline = body(rounds.count, win)
        if traced and rounds.first_traced is None:
            rounds.first_traced = win
        rounds.headline[traced].append(headline)
        rounds.count += 1
    return rounds


# -- counts read off calls ------------------------------------------------------


def _count_parse(tracer: Tracer, args: Tuple, program: Any, seconds: float) -> None:
    tracer.counts["lang.ir_stmts"] += sum(1 for _ in program.all_stmts())


def _count_pdg(tracer: Tracer, args: Tuple, pdg: Any, seconds: float) -> None:
    tracer.counts["pdg.nodes"] += len(pdg.stmts)
    tracer.counts["pdg.edges"] += pdg.edge_count()


def _count_slice(tracer: Tracer, args: Tuple, result: Any, seconds: float) -> None:
    tracer.counts["slicing.kept_stmts"] += len(result[1])


def _count_explore(tracer: Tracer, args: Tuple, paths: Any, seconds: float) -> None:
    stats = args[0].stats
    tracer.counts["engine.states"] += stats.states_explored
    tracer.counts["engine.paths"] += len(paths)
    tracer.counts["engine.pruned_subsumed"] += stats.pruned_subsumed
    tracer.counts["engine.witness_hits"] += stats.witness_hits


def _count_solver(tracer: Tracer, args: Tuple, result: Any, seconds: float) -> None:
    if isinstance(result, tuple):  # check_extended returns (result, ctx)
        result = result[0]
    tracer.counts[f"solver.{result.status}"] += 1
    if result.cached:
        tracer.counts["solver.cache_hits"] += 1
    tracer.counts[f"solver.{result.status}_s"] += seconds


def _count_build_model(tracer: Tracer, args: Tuple, model: Any, seconds: float) -> None:
    tracer.counts["refactor.entries"] += model.n_entries


def _count_compile(tracer: Tracer, args: Tuple, compiled: Any, seconds: float) -> None:
    tracer.counts["compile.live_entries"] += compiled.n_live


def _count_get(tracer: Tracer, args: Tuple, obj: Any, seconds: float) -> None:
    kind = args[1]
    tracer.counts[f"cache.{'misses' if obj is None else 'hits'}.{kind}"] += 1


def _count_verify(tracer: Tracer, args: Tuple, verdict: Any, seconds: float) -> None:
    stats = verdict.stats
    tracer.counts["netverify.edges"] += stats.edges
    tracer.counts["netverify.dirty_edges"] += stats.dirty_edges
    tracer.counts["netverify.cache_hits"] += stats.cache_hits
    tracer.counts["netverify.spaces"] += stats.spaces_total
    tracer.counts["netverify.truncated"] += stats.truncated_spaces


def _count_resynth(tracer: Tracer, args: Tuple, cached: Any, seconds: float) -> None:
    tracer.counts["watch.resynths"] += 1
    tracer.counts["watch.model_hits"] += int(cached.cached)


#: ``(module, attribute path, span name, count hook)`` for every layer
#: entry point the benchmark times.  Functions the pipeline imports by
#: name are wrapped where it looks them up.
LAYERS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.nfactor.algorithm", "parse_program", "lang.parse", _count_parse),
    ("repro.nfactor.algorithm", "unfold_tcp", "nfactor.normalize", None),
    ("repro.nfactor.algorithm", "normalize_structure", "nfactor.normalize", None),
    ("repro.nfactor.algorithm", "flatten_program", "pdg.build", None),
    ("repro.nfactor.algorithm", "build_pdg", "pdg.build", _count_pdg),
    ("repro.slicing.static", "StaticSlicer.backward_many", "slicing.slice", None),
    ("repro.nfactor.algorithm", "executable_slice", "slicing.slice", _count_slice),
    ("repro.nfactor.algorithm", "classify_variables", "statealyzer.classify", None),
    ("repro.symbolic.engine", "SymbolicEngine.explore", "engine.explore", _count_explore),
    ("repro.symbolic.solver", "Solver.check", "solver.check", _count_solver),
    ("repro.symbolic.solver", "Solver.check_extended", "solver.check", _count_solver),
    ("repro.symbolic.solver", "Solver.check_assuming", "solver.check", _count_solver),
    ("repro.nfactor.algorithm", "build_model", "refactor.build", _count_build_model),
    ("repro.model.compile", "compile_model", "compile.lower", _count_compile),
    ("repro.model.compile", "CompiledSimulator.process_many", "dataplane.process_many", None),
    ("repro.cache.store", "ArtifactStore.get_object", "cache.get", _count_get),
    ("repro.cache.store", "ArtifactStore.put_object", "cache.put", None),
    ("repro.netverify.verify", "GraphVerifier.verify", "netverify.verify", _count_verify),
    ("repro.netverify.verify", "push_space", "netverify.push", None),
    ("repro.nfactor.algorithm", "synthesize_model_cached", "watch.resynth", _count_resynth),
]


def layer_metrics(tracer: Tracer, registry: Any) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics from one traced round.

    ``registry`` is the program's own :mod:`repro.obs` metrics registry
    installed for the same window; the solver counts recorded here must
    equal its ``solver.*`` counters exactly.  Returns the metrics and a
    list of cross-check mismatches.
    """
    selfs = tracer.self_times()
    counts = tracer.counts
    out: Dict[str, Tuple[float, str]] = {}

    def sec(metric: str, span: str) -> None:
        out[metric] = (selfs.get(span, 0.0), "s")

    def cnt(metric: str) -> None:
        out[metric] = (counts.get(metric, 0.0), "count")

    sec("lang.parse_s", "lang.parse")
    cnt("lang.ir_stmts")
    sec("nfactor.normalize_s", "nfactor.normalize")
    sec("pdg.build_s", "pdg.build")
    cnt("pdg.nodes")
    cnt("pdg.edges")
    sec("slicing.slice_s", "slicing.slice")
    cnt("slicing.kept_stmts")
    sec("statealyzer.classify_s", "statealyzer.classify")
    sec("engine.self_s", "engine.explore")
    for name in ("states", "paths", "pruned_subsumed", "witness_hits"):
        cnt(f"engine.{name}")

    statuses = ("sat", "unsat", "unknown")
    checks = sum(counts.get(f"solver.{s}", 0.0) for s in statuses)
    out["solver.checks"] = (checks, "count")
    for s in statuses:
        cnt(f"solver.{s}")
        out[f"solver.{s}_s"] = (counts.get(f"solver.{s}_s", 0.0), "s")
    if checks:
        out["solver.unknown_ratio"] = (counts.get("solver.unknown", 0.0) / checks, "ratio")
        out["solver.cache_hit_ratio"] = (counts.get("solver.cache_hits", 0.0) / checks, "ratio")

    sec("refactor.build_s", "refactor.build")
    cnt("refactor.entries")
    sec("compile.lower_s", "compile.lower")
    cnt("compile.live_entries")
    out["dataplane.busy_s"] = (
        tracer.total_times().get("dataplane.process_many", 0.0), "s")

    sec("cache.get_s", "cache.get")
    sec("cache.put_s", "cache.put")
    for tier in CACHE_TIERS:
        cnt(f"cache.hits.{tier}")
        cnt(f"cache.misses.{tier}")
    registry_counts = registry.snapshot().get("counters", {})
    out["cache.bytes_written"] = (
        registry_counts.get("cache.disk.bytes_written", 0), "bytes")

    cnt("netverify.edges")
    cnt("netverify.dirty_edges")
    edges = counts.get("netverify.edges", 0.0)
    if edges:
        out["netverify.edge_hit_ratio"] = (counts.get("netverify.cache_hits", 0.0) / edges, "ratio")
    sec("netverify.push_s", "netverify.push")
    cnt("netverify.spaces")
    cnt("netverify.truncated")
    out["watch.resynth_s"] = (
        tracer.total_times().get("watch.resynth", 0.0), "s")
    cnt("watch.model_hits")

    mismatches = []
    for s in statuses:
        ours = int(counts.get(f"solver.{s}", 0.0))
        theirs = int(registry_counts.get(f"solver.{s}", 0))
        if ours != theirs:
            mismatches.append(f"solver.{s}: traced {ours} != repro.obs {theirs}")
    theirs = int(registry_counts.get("solver.checks", 0))
    if int(checks) != theirs:
        mismatches.append(f"solver.checks: traced {int(checks)} != repro.obs {theirs}")
    return out, mismatches
