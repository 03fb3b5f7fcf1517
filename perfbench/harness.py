"""Shared pieces of the benchmark: statistics, timing, memory, run context
and the seeded source edits two workloads use.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
check that the program's sources exist before anything touches them.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Set-ups made per run unless a workload asks for more; ``setup_s`` is
#: their median.
SETUP_REPEATS = 3


# -- statistics -------------------------------------------------------------


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    With fewer than eleven samples no percentile qualifies and the
    maximum is returned with percentile 100.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), 100.0 * (n - 10) / n


def per_op(samples: Dict[Any, List[float]]) -> List[float]:
    """Each operation's median over its repetitions, in key order.

    Every workload repeats one fixed set of operations, so the median
    and tail over these per-operation times compare like with like from
    run to run, whatever mix of cheap and costly operations the set
    holds.
    """
    if not samples:
        raise ValueError("per_op of no samples")
    return [median(samples[key]) for key in sorted(samples)]


def summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, tail and sample count of one timing series (run context)."""
    value, pct = tail(samples)
    return {
        "n": len(samples),
        "median": median(samples),
        "tail": value,
        "tail_percentile": round(pct, 2),
    }


# -- clocks, machine speed and memory ----------------------------------------------

#: What the reference workload parses, walks and compiles: fixed text,
#: handled by the standard library only.
_REFERENCE_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    c = {{k: [a, b, {i}] for k in range(a)}}\n"
    f"    return [x * {i} for x in c if x % (b + 1)]\n"
    for i in range(30)
)
#: Seconds the reference workload takes on the nominal machine: about
#: its median on a shared 2-vCPU 2.1 GHz Xeon host under CPython 3.11
#: (3 ms when the host's co-tenants are idle).
REFERENCE_S = 0.006
#: Least wall time between two speed readings.
READ_EVERY_S = 0.2


def reference_seconds() -> float:
    """Time one run of the reference workload, with the collector off
    so the program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        tree = ast.parse(_REFERENCE_SOURCE)
        counts: Dict[str, int] = {}
        for node in ast.walk(tree):
            kind = type(node).__name__
            counts[kind] = counts.get(kind, 0) + 1
        compile(tree, "<reference>", "exec")
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Speed:
    """The machine's speed over a run, read off a fixed reference workload.

    Co-tenants of a shared host slow every process on it, by up to 1.8x
    for stretches of seconds to minutes, so raw times measure the
    neighbours as much as the program.  The reference workload (parse,
    walk and compile a fixed text; standard library only, so no change
    to the program moves it) is timed in the benchmark's own thread
    every :data:`READ_EVERY_S`, at operation boundaries and outside
    every timed region.  A time is reported in nominal seconds: the
    measured seconds times :data:`REFERENCE_S` over the latest reading.
    On a shared 2-vCPU Xeon host, 25 seconds of back-to-back cold
    syntheses of one NF spread 46% (IQR over median) in raw time and 7%
    in nominal time.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._last = float("-inf")

    def read(self) -> None:
        self.readings.append(min(reference_seconds(), reference_seconds()))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Read the speed if the latest reading is :data:`READ_EVERY_S` old."""
        if time.perf_counter() - self._last >= READ_EVERY_S:
            self.read()

    def factor(self) -> float:
        """Nominal seconds per second now, from the latest reading."""
        return REFERENCE_S / self.readings[-1]

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """``(fn(), nominal seconds it took)``, reading the speed first if due."""
        self.tick()
        t0 = time.perf_counter()
        out = fn()
        return out, (time.perf_counter() - t0) * self.factor()

    def record(self) -> Dict[str, Any]:
        """The readings, for the run record."""
        ms = [1000 * r for r in self.readings]
        return {"n": len(ms), "median_ms": median(ms), "min_ms": min(ms), "max_ms": max(ms)}


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of ``pid`` and its children.

    Read from ``/proc`` while the processes are alive, so it covers a
    server's worker pool as well as the server itself.
    """
    total_kb = 0
    for p in [pid] + child_pids(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> List[int]:
    """Every descendant of ``pid`` (Linux ``/proc``)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids = [int(x) for x in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            out.append(kid)
            out.extend(child_pids(kid))
    return out


# -- run context and outcome ----------------------------------------------------


@dataclass
class Context:
    """What a workload gets from the command line and the checkout."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    #: Private scratch directory inside the checkout (removed at exit).
    work: Path
    #: Where span dumps and run records go (inside the checkout).
    results: Path
    speed: Speed = field(default_factory=Speed)

    def scratch(self, name: str) -> Path:
        return self.work / name

    def write_spans(self, tracer: Any) -> None:
        tracer.write(self.results / f"{self.workload}-seed{self.seed}-spans.jsonl")



@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable reasons for failed operations (first few kept).
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Extra facts written to the run record (sample counts, percentiles).
    context: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def run_setups(
    setup: Callable[[int], Any], teardown: Callable[[Any], None], speed: Speed,
    repeats: int = SETUP_REPEATS,
) -> Tuple[Any, float, List[float]]:
    """Set up ``repeats`` times; keep the last, tear down the rest.

    Returns ``(state, median nominal seconds, all nominal seconds)``.
    """
    times: List[float] = []
    state = None
    for i in range(repeats):
        if state is not None:
            teardown(state)
        state, seconds = speed.timed(lambda: setup(i))
        times.append(seconds)
    return state, median(times), times


def run_context(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(root),
        "source_digest": source_digest(root / "src"),
    }


def _git_commit(root: Path) -> Optional[str]:
    if shutil.which("git") is None or not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """BLAKE2b over every ``.py`` file under ``src`` (path and bytes).

    Identifies the measured code even where the checkout is not a git
    repository.
    """
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- seeded source edits ---------------------------------------------------------

#: Parents under which an integer literal is a value the NF computes
#: with, never an index or a tuple slot: editing it changes behaviour
#: and can never make the program ill-formed.
_EDITABLE_PARENTS = (ast.Compare, ast.AugAssign, ast.BinOp, ast.Assign)


def editable_literals(source: str) -> List[Tuple[int, int, int]]:
    """``(line, start col, end col)`` of every editable int literal in a
    top-level function of ``source``, in source order."""
    tree = ast.parse(source)
    found: List[Tuple[int, int, int]] = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for parent in ast.walk(fn):
            if not isinstance(parent, _EDITABLE_PARENTS):
                continue
            for child in ast.iter_child_nodes(parent):
                if (
                    isinstance(child, ast.Constant)
                    and type(child.value) is int
                    and child.lineno == child.end_lineno
                ):
                    found.append((child.lineno, child.col_offset, child.end_col_offset))
    return sorted(set(found))


def edit_literal(source: str, site: int, raise_by: int) -> str:
    """``source`` with editable literal number ``site`` (see
    :func:`editable_literals`) raised by ``raise_by``."""
    line, start, end = editable_literals(source)[site]
    lines = source.split("\n")
    text = lines[line - 1]
    value = int(text[start:end], 0) + raise_by
    lines[line - 1] = text[:start] + str(value) + text[end:]
    return "\n".join(lines)
