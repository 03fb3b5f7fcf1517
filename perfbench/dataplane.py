"""dataplane: seeded per-NF traces through the compiled models.

Set-up synthesizes and compiles the corpus cold (that cost is
``setup_s``).  Each round lowers every model again with
``compile_model`` (``cold_s``: the corpus's models brought into service
as dataplanes), then runs an equal-length seeded trace per NF through a
fresh ``CompiledSimulator.process_many`` in batches of
:data:`BATCH` packets.  Every round sends the same traces into the same
fresh state.  An NF's time is the busy time of its whole trace, its
median over the rounds in nominal seconds (:class:`harness.Speed`):
``p50_ms``/``tail_ms`` are the median and the slowest over the nine
NFs, ``ops_per_s`` is packets over the sum of the NF times, and
``cold_s`` is the median round's ``compile_model`` of the corpus.
(Over single batches the tail fell among snortlite's first five or
six batches, which cost two to four times its later ones, and moved
with how many of them a seed's trace had.)  No analysis layer runs in the timed region, so this workload
is the no-change control for frontend and solver work.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from harness import Outcome, median, per_op, run_setups, summary
from corpus import cold_synthesize, corpus, nf_seed, trace_packets, workload_spec
from tracing import layer_metrics, measure_rounds

#: Packets per NF trace; every NF gets the same number.
TRACE_PACKETS = 1024
BATCH = 64
#: Packets per NF run through the interpreted simulator (the oracle is
#: an order of magnitude slower than the compiled model).
ORACLE_PACKETS = 256
DIFF_PACKETS = 300


def run(ctx) -> Outcome:
    from repro.equiv.differential import differential_test
    from repro.interp.values import deep_copy
    from repro.model import compile as model_compile

    out = Outcome()
    order = corpus(random.Random(f"dataplane:{ctx.seed}"))

    def setup(i: int) -> Dict[str, Any]:
        results = {
            name: cold_synthesize(name).result
            for name in order
        }
        traces = {
            name: trace_packets(name, TRACE_PACKETS, nf_seed(ctx.seed, "dataplane", name))
            for name in order
        }
        return {"results": results, "traces": traces}

    speed = ctx.speed
    state, setup_s, setup_times = run_setups(setup, lambda state: None, speed)
    results, traces = state["results"], state["traces"]

    #: NF -> nominal busy seconds of its trace in each untraced round.
    trace_s: Dict[str, List[float]] = {name: [] for name in order}
    compile_s: List[float] = []
    first_outputs: Dict[str, List[Any]] = {}
    guard_evals = packets = 0

    def body(i: int, win) -> float:
        nonlocal guard_evals, packets
        traced = win.tracer is not None
        compiled, lowered = speed.timed(lambda: {
            name: model_compile.compile_model(r.model, r.module_env, pkt_param=r.pkt_param)
            for name, r in results.items()
        })
        busy = 0.0
        for name in order:
            sim = compiled[name].simulator(deep_copy(results[name].module_env))
            trace = traces[name]
            outputs: List[Any] = []
            nf_busy = 0.0
            for start in range(0, len(trace), BATCH):
                batch = trace[start:start + BATCH]
                sent, seconds = speed.timed(lambda: sim.process_many(batch))
                nf_busy += seconds
                outputs.extend(sent)
            busy += nf_busy
            if not traced:
                trace_s[name].append(nf_busy)
            if name not in first_outputs:
                first_outputs[name] = outputs
            else:
                out.check(outputs == first_outputs[name], f"{name}: round {i} outputs differ from round 0")
            if i == 0:
                guard_evals += sim.stats.guard_evals
                packets += sim.stats.packets
        if not traced:
            compile_s.append(lowered)
        return busy

    rounds = measure_rounds(ctx.seconds, ctx.trace, body)

    oracle_packets = 0
    oracle_s = 0.0
    for name in order:
        result, trace = results[name], traces[name]
        reference = result.make_reference()
        expected = [reference.process_packet(pkt.copy()) for pkt in trace]
        out.check(first_outputs[name] == expected, f"{name}: compiled outputs differ from the program")
        interpreted = result.make_simulator()
        t0 = time.perf_counter()
        oracle = [interpreted.process(pkt.copy()) for pkt in trace[:ORACLE_PACKETS]]
        oracle_s += time.perf_counter() - t0
        oracle_packets += len(oracle)
        out.check(oracle == expected[:ORACLE_PACKETS], f"{name}: interpreted simulator differs from the program")
        report = differential_test(
            result,
            spec=workload_spec(name, DIFF_PACKETS, nf_seed(ctx.seed, "diff", name)),
            compiled=True,
        )
        out.check(report.identical, f"{name}: {report.summary()}")

    if ctx.trace:
        win = rounds.first_traced
        metrics, mismatches = layer_metrics(win.tracer, win.registry)
        for m in mismatches:
            out.fail(m)
        metrics["dataplane.guard_evals_per_pkt"] = (guard_evals / packets, "count")
        metrics["simulator.interp_pps"] = (oracle_packets / oracle_s, "1/s")
        metrics["trace.overhead_pct"] = (rounds.overhead_pct(), "%")
        out.per_layer.update(metrics)
        ctx.write_spans(win.tracer)
    else:
        nf_s = per_op(trace_s)
        per_nf = summary(nf_s)
        timed_packets = sum(len(traces[name]) for name in order)
        out.end_to_end["p50_ms"] = (1000 * per_nf["median"], "ms")
        out.end_to_end["tail_ms"] = (1000 * per_nf["tail"], "ms")
        out.end_to_end["ops_per_s"] = (timed_packets / sum(nf_s), "1/s")
        out.end_to_end["cold_s"] = (median(compile_s), "s")
        out.context["nf_trace_nominal_s"] = per_nf
        out.context["compile_nominal_s"] = summary(compile_s)
    out.end_to_end["setup_s"] = (setup_s, "s")
    out.context["setup_s"] = setup_times
    out.context["rounds"] = rounds.count
    out.context["speed"] = speed.record()
    return out
