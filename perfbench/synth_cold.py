"""synth-cold: the paper's experiment, cold synthesis of the whole corpus.

Each round is one cold pass over the 9-NF corpus (source to compiled
model) followed by :data:`SMALL_PASSES` passes over the eight NFs other
than snortlite, every NF with the artifact cache off and the solver
cache cleared.  Each NF's time is the median of its cold syntheses in
the run, in nominal seconds (:class:`harness.Speed`).  Metrics:

- ``cold_s``: one corpus pass, the sum of the nine NFs' times
  (snortlite is about 90% symbolic execution and solver);
- ``p50_ms`` / ``tail_ms``: median and slowest of the eight small NFs'
  times.  There parse, PDG, slicing and classification are a third of
  the time, and a frontend regression does not vanish in snortlite's
  noise;
- ``ops_per_s``: small NFs synthesized per second, eight over the sum
  of their times.

After the timed rounds, untimed, each NF is synthesized once more with
the artifact store on, in an empty private store: it must see no store
hit, so a cache left warm by an earlier run can never pass for a cold
one, and its model must equal the timed passes' model.
"""

from __future__ import annotations

import random
from typing import Dict, List

from harness import Outcome, median, per_op, run_setups, summary, tail
from corpus import HEAVY, cold_synthesize, corpus, nf_seed, workload_spec
from tracing import layer_metrics, measure_rounds

#: A small pass takes about a tenth of a second; three per round give
#: each small NF three times as many repetitions as snortlite.
SMALL_PASSES = 3
#: A set-up is one pass over the small NFs, about a tenth of a second:
#: more repeats keep its median steady at little cost.
SETUP_REPEATS = 9
#: Packets per NF in the compiled-model-vs-program differential check.
DIFF_PACKETS = 300


def run(ctx) -> Outcome:
    from repro.equiv.differential import differential_test
    from repro.model.serialize import model_to_json

    out = Outcome()
    order = corpus(random.Random(f"synth-cold:{ctx.seed}"))
    small = [n for n in order if n != HEAVY]

    speed = ctx.speed

    def setup(i: int) -> None:
        # Lazy imports and first-call costs land here, not in the first
        # timed pass: a warm-up pass over the small NFs.
        for name in small:
            cold_synthesize(name)

    _, setup_s, setup_times = run_setups(setup, lambda state: None, speed, repeats=SETUP_REPEATS)

    #: NF name -> nominal seconds of each of its untraced cold syntheses.
    nf_s: Dict[str, List[float]] = {name: [] for name in order}
    first: Dict[str, object] = {}
    models: Dict[str, str] = {}

    def one_pass(names: List[str]) -> Dict[str, float]:
        times = {}
        for name in names:
            speed.tick()
            cold = cold_synthesize(name)
            times[name] = cold.seconds * speed.factor()
            model_json = model_to_json(cold.result.model)
            if name not in first:
                first[name] = cold.result
                models[name] = model_json
            else:
                out.check(model_json == models[name], f"{name}: model JSON differs between passes")
        return times

    def body(i: int, win) -> float:
        traced = win.tracer is not None
        passes = [one_pass(order)] + [one_pass(small) for _ in range(SMALL_PASSES)]
        if not traced:
            for times in passes:
                for name, seconds in times.items():
                    nf_s[name].append(seconds)
        return sum(passes[0].values())

    rounds = measure_rounds(ctx.seconds, ctx.trace, body)

    # Hermetic check, untimed: with the artifact store on, a cold
    # synthesis in an empty private store must not hit it.
    for name in order:
        cold = cold_synthesize(name, ctx.scratch(f"store-{name}"))
        out.check(cold.store_hits == 0, f"{name}: {cold.store_hits} artifact-store hits in an empty store")
        out.check(model_to_json(cold.result.model) == models[name],
                  f"{name}: model JSON differs with the artifact store on")
    for name in order:
        report = differential_test(
            first[name],
            spec=workload_spec(name, DIFF_PACKETS, nf_seed(ctx.seed, "diff", name)),
            compiled=True,
        )
        out.check(report.identical, f"{name}: compiled model differs from the program: {report.summary()}")

    if ctx.trace:
        win = rounds.first_traced
        metrics, mismatches = layer_metrics(win.tracer, win.registry)
        for m in mismatches:
            out.fail(m)
        metrics["trace.overhead_pct"] = (rounds.overhead_pct(), "%")
        out.per_layer.update(metrics)
        ctx.write_spans(win.tracer)
    else:
        nf = dict(zip(sorted(nf_s), per_op(nf_s)))
        small_s = [nf[name] for name in small]
        out.end_to_end["cold_s"] = (sum(nf.values()), "s")
        out.end_to_end["p50_ms"] = (1000 * median(small_s), "ms")
        out.end_to_end["tail_ms"] = (1000 * tail(small_s)[0], "ms")
        out.end_to_end["ops_per_s"] = (len(small_s) / sum(small_s), "1/s")
        out.context["nf_synthesis_s"] = {name: summary(times) for name, times in nf_s.items()}

    out.end_to_end["setup_s"] = (setup_s, "s")
    out.context["setup_s"] = setup_times
    out.context["rounds"] = rounds.count
    out.context["speed"] = speed.record()
    return out
