"""edit-reverify: NF source edits flowing into a re-verified service graph.

The service graph is ``generate_graph`` over the six-NF netverify pool
with a fixed topology seed (:data:`GRAPH_SEED`): verification cost
varies about forty-fold between generated topologies, so a topology
drawn from the run seed would make runs with different seeds
incomparable.  The run seed drives the edit stream instead.

The edits are the same in every run: every editable integer literal
of every node's NF source (85 on this graph) raised by one, in one
fixed shuffled order.  The seed picks where in that order each round
starts.  An edit's cost depends on the solver answers the edits before
it in the round left behind, so with a seeded order (and seeded
raises) some seeds' edits cost a fifth more than others' at the
median.  Nodes running the same NF get the same edit, so the second
such node re-synthesizes through a model-tier hit.

Each round starts from the unedited graph, an empty artifact store and
an empty solver cache, and verifies the whole graph, which fills the
edge tier.  It then runs every edit once: the literal changes in the
node's unedited source, the source is re-synthesized through
``synthesize_model_cached`` (the watch daemon's path), ``replace_model``
rebinds the node and the graph is re-verified with the edge tier.
That sequence, from edit to new verdict, is timed; each edit's time is
its median over the rounds, in nominal seconds (:class:`harness.Speed`).
``p50_ms``/``tail_ms`` are the median and tail over the edits,
``ops_per_s`` is edits over the sum of their times.
Untimed, the node is then put back, so every edit is measured against
the unedited graph: apart from the solver cache the round warms, an
edit's cost does not depend on the edits before it.

``cold_s`` is the median full verification of the unedited graph with
no edge summaries and no solver cache, sampled every
:data:`COLD_EVERY` edits so its samples spread over the run like the
edits' do.

After the timed rounds, every recorded verdict must equal a fresh
verification of the same graph that uses no edge summaries, and every
re-synthesized model must equal a synthesis of the edited source with
the artifact cache off.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Tuple

from harness import Outcome, edit_literal, editable_literals, median, per_op, run_setups, summary
from tracing import layer_metrics, measure_rounds

GRAPH_NODES, GRAPH_WIDTH, GRAPH_SEED = 10, 5, 7
#: Edits between two ``cold_s`` samples.
COLD_EVERY = 17
#: A set-up takes about half a second: five keep its median steady.
SETUP_REPEATS = 5


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run(ctx) -> Outcome:
    from repro import cache as artifact_cache
    from repro.model.serialize import model_to_json
    from repro.netverify import GraphVerifier, GraphVerifyConfig, generate_graph
    from repro.nfactor import algorithm
    from repro.nfactor.algorithm import NFactor, NFactorConfig, target_artifact_keys
    from repro.nfs import get_nf
    from repro.symbolic.solver import clear_global_cache

    out = Outcome()

    def setup(i: int) -> Dict[str, Any]:
        # What an incremental verifier starts from: the graph's models
        # synthesized and one verification behind it.
        artifact_cache.configure(directory=str(ctx.scratch(f"setup{i}-store")), enabled=True)
        clear_global_cache()
        graph = generate_graph(GRAPH_NODES, seed=GRAPH_SEED, width=GRAPH_WIDTH)
        GraphVerifier(graph).verify()
        return {"graph": graph, "nfs": {name: node.model.name for name, node in graph.nodes.items()}}

    speed = ctx.speed
    state, setup_s, setup_times = run_setups(setup, lambda state: None, speed, repeats=SETUP_REPEATS)
    graph, nfs = state["graph"], state["nfs"]
    pristine = {name: (node.model, node.model_key) for name, node in graph.nodes.items()}

    edits: List[Tuple[str, str]] = []
    for node in sorted(nfs):
        source = get_nf(nfs[node]).source
        for site in range(len(editable_literals(source))):
            edits.append((node, edit_literal(source, site, raise_by=1)))
    random.Random("edit-reverify").shuffle(edits)
    rng = random.Random(f"edit-reverify:{ctx.seed}")

    cold_s: List[float] = []
    #: (node, edited source) -> nominal seconds of each untraced round.
    edit_s: Dict[Tuple[str, str], List[float]] = {}
    cold_verdicts: List[str] = []
    cold_config = GraphVerifyConfig(use_cache=False, solver_cache=False)
    #: (node, source) -> digests of (model JSON, verdict JSON) of every
    #: timed edit.  Digests keep memory flat however many rounds run.
    seen: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}

    def cold_verify() -> None:
        # The unedited graph with no edge summaries and no solver cache:
        # the same work in every sample, and the round's warm state is
        # left alone.
        verdict, seconds = speed.timed(lambda: GraphVerifier(graph, config=cold_config).verify())
        cold_s.append(seconds)
        cold_verdicts.append(digest(verdict.to_json()))

    def body(i: int, win) -> float:
        traced = win.tracer is not None
        for name, (model, key) in pristine.items():
            graph.replace_model(name, model, model_key=key)
        artifact_cache.configure(directory=str(ctx.scratch(f"round{i}-store")), enabled=True)
        clear_global_cache()
        # Fills the edge tier the edits re-verify against.
        cold_verdicts.append(digest(GraphVerifier(graph).verify().to_json()))
        busy = 0.0
        first = rng.randrange(len(edits))
        for k, (node, source) in enumerate(edits[first:] + edits[:first]):
            if k % COLD_EVERY == 0 and not traced:
                cold_verify()
            nf = nfs[node]
            entry = get_nf(nf).entry

            def edit_and_verify() -> Tuple[Any, Any]:
                cached = algorithm.synthesize_model_cached(source, name=nf, entry=entry)
                key = target_artifact_keys(source, nf, entry)["model"]
                graph.replace_model(node, cached.model, model_key=key)
                return cached, GraphVerifier(graph).verify()

            (cached, verdict), seconds = speed.timed(edit_and_verify)
            busy += seconds
            if not traced:
                edit_s.setdefault((node, source), []).append(seconds)
            seen.setdefault((node, source), []).append(
                (digest(cached.model_json), digest(verdict.to_json())))
            graph.replace_model(node, *pristine[node])
        return busy

    rounds = measure_rounds(ctx.seconds, ctx.trace, body)

    # The references: a cache-free synthesis of each edited source and
    # a verification without edge summaries of each edited graph.
    artifact_cache.configure(enabled=False)
    no_summaries = GraphVerifyConfig(use_cache=False)
    fresh = digest(GraphVerifier(graph, config=no_summaries).verify().to_json())
    for verdict in cold_verdicts:
        out.check(verdict == fresh, "a full verification differs from a fresh one")
    for (node, source), records in sorted(seen.items()):
        nf = nfs[node]
        entry = get_nf(nf).entry
        model = NFactor(source, name=nf, entry=entry, config=NFactorConfig(artifact_cache=False)).synthesize().model
        graph.replace_model(node, model, model_key=target_artifact_keys(source, nf, entry)["model"])
        fresh = digest(GraphVerifier(graph, config=no_summaries).verify().to_json())
        graph.replace_model(node, *pristine[node])
        model_json = digest(model_to_json(model))
        for model_seen, verdict in records:
            out.check(model_seen == model_json, f"{node}: re-synthesized model differs from a cache-free synthesis")
            out.check(verdict == fresh, f"{node}: incremental verdict differs from a fresh verification")

    if ctx.trace:
        win = rounds.first_traced
        metrics, mismatches = layer_metrics(win.tracer, win.registry)
        for m in mismatches:
            out.fail(m)
        metrics["trace.overhead_pct"] = (rounds.overhead_pct(), "%")
        out.per_layer.update(metrics)
        ctx.write_spans(win.tracer)
    else:
        edits_s = per_op(edit_s)
        per_edit = summary(edits_s)
        out.end_to_end["p50_ms"] = (1000 * per_edit["median"], "ms")
        out.end_to_end["tail_ms"] = (1000 * per_edit["tail"], "ms")
        out.end_to_end["ops_per_s"] = (len(edits_s) / sum(edits_s), "1/s")
        out.end_to_end["cold_s"] = (median(cold_s), "s")
        out.context["edit_nominal_s"] = per_edit
        out.context["cold_verify_nominal_s"] = summary(cold_s)
    out.end_to_end["setup_s"] = (setup_s, "s")
    out.context["setup_s"] = setup_times
    out.context["rounds"] = rounds.count
    out.context["speed"] = speed.record()
    out.context["edits_per_round"] = len(edits)
    out.context["graph"] = {"nodes": GRAPH_NODES, "width": GRAPH_WIDTH, "seed": GRAPH_SEED}
    return out
