"""The NFactor benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload synth-cold --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

- ``synth-cold``    cold synthesis plus compilation of the 9-NF corpus;
- ``dataplane``     seeded traces through compiled models;
- ``serve-mixed``   a read/write mix against ``repro serve`` on one CPU
  (runs by hand; not in ``BENCHMARK.json``, see its module docstring);
- ``edit-reverify`` seeded NF edits re-synthesized and re-verified on a
  service graph with the edge-summary cache.

Every workload reports the same end-to-end metrics, each measured on
that workload's own operation (the module docstrings give the mapping):
``setup_s``, ``peak_rss_mb``, ``p50_ms`` and ``tail_ms`` (median and the
highest percentile with ten samples beyond it), ``ops_per_s`` and
``cold_s``, times in nominal seconds (``harness.Speed``: scaled by the
host's speed, read off a fixed reference workload, so that a shared
host's co-tenants do not move them).  ``--trace 1`` instead reports
per-layer metrics, timed by wrapping the program's layer entry points
from this directory (``tracing.py``); the program is not instrumented.

The last line of standard output is the result object; the line before
it is the run record (seed, CPU count, Python version, commit, sample
counts).  Span dumps and run records are also written under
``.perfbench/results`` in the checkout.  All caches and scratch files
live in a private directory under ``.perfbench/`` that is removed on
exit; ``~/.cache/repro`` is never touched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("synth-cold", "dataplane", "serve-mixed", "edit-reverify")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="NFactor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def hermetic_environment(work: Path) -> None:
    """Point every cache and temporary file of this process and its
    children at ``work``."""
    cache = work / "repro-cache"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("REPRO_CACHE", None)
    os.environ.pop("REPRO_CACHE_PEERS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    tempfile.tempdir = str(tmp)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    results = base / "results"
    results.mkdir(exist_ok=True)
    try:
        hermetic_environment(work)
        return run_workload(args, work, results)
    finally:
        from repro import cache as artifact_cache

        # No write-behind flush may land in the directory being removed.
        artifact_cache.configure(enabled=False)
        shutil.rmtree(work, ignore_errors=True)


def per_layer_result(measured):
    """Every per-layer metric ``BENCHMARK.json`` lists, and the names
    this workload did not measure.

    The result must carry every listed name, so a metric whose layer
    the workload does not run (the interpreted simulator in synth-cold,
    a ratio with nothing to divide by) reads 0 and is named in the run
    record's ``not_exercised`` list.
    """
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    missing = sorted(set(units) - set(measured))
    metrics = {name: measured.get(name, (0.0, unit)) for name, unit in units.items()}
    return metrics, missing


def run_workload(args: argparse.Namespace, work: Path, results: Path) -> int:
    import harness

    ctx = harness.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), work=work, results=results,
    )
    record = harness.run_context(ROOT, args.workload, args.seed, args.seconds, ctx.trace)
    try:
        outcome = __import__(args.workload.replace("-", "_")).run(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    if "peak_rss_mb" not in outcome.end_to_end:
        outcome.end_to_end["peak_rss_mb"] = (harness.self_peak_rss_mb(), "MB")

    metrics = outcome.end_to_end
    record.update(outcome.context)
    if ctx.trace:
        metrics, record["not_exercised"] = per_layer_result(outcome.per_layer)
    record["failures"] = outcome.failures
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    print(json.dumps({"run": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
