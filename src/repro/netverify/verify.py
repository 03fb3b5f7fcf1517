"""Graph verification with a per-edge transfer-summary cache.

The unit of work (and of caching) is the **edge task**: push one input
header space through one node's model.  Its result — the symbolic
output spaces with their accumulated state predicates — depends only on

* the node's model (content-addressed by :attr:`GraphNode.model_key`),
* the node's state namespace, and
* the input space itself (fields + constraints, canonically printed),

so the summary is memoized in the artifact store under the ``edge``
kind keyed on exactly that material.  Consequences:

* **warm re-verification is pure lookup** — no solver call runs;
* **incremental re-verify is automatic** — editing one NF (or rewiring
  upstream topology) changes that node's ``model_key`` (or its input
  fingerprints), so precisely the edges downstream of the dirty node
  miss and recompute, while untouched branches keep hitting.  There is
  no explicit invalidation: stale summaries are simply unreachable;
* **the server's workers share warmth** — the ``edge`` tier is one
  more artifact kind in the store, so every worker of one ``repro
  serve`` process reads the summaries any of them wrote.

Determinism (byte-identity across cache on/off/warm and sequential vs
parallel exploration) holds because summaries record *what the solver
decided*, never *how long it took*: nodes are processed in sorted
topological-level order, a node's inputs are gathered in (level, node
name) arrival order, entries are scanned in model order, and the
parallel path only relocates :func:`compute_edge_summary` calls into
worker processes — each is a pure function of its payload (the solver
draws its samples from a seed derived from the constraint set, PR 2).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import cache as artifact_cache
from repro.apps.verify import HeaderSpace, push_space
from repro.cache.keys import stable_fingerprint
from repro.netverify.graph import ServiceGraph
from repro.obs import metrics as obs_metrics
from repro.symbolic.expr import canon
from repro.symbolic.solver import Solver

#: Bump to invalidate every persisted edge summary (layout changes).
EDGE_SUMMARY_VERSION = 1


def space_fingerprint(space: HeaderSpace) -> str:
    """Canonical content identity of one header space.

    Fields are order-insensitive (sorted); constraints are **ordered**
    — the solver absorbs them in sequence and derives its witness
    samples from the ordered canon tuple, so two spaces with permuted
    constraints are distinct cache keys (identical results would not be
    guaranteed byte-for-byte).  The trace is deliberately excluded: it
    does not influence the transfer function (summaries store trace
    *deltas* and the caller re-prefixes the input trace).
    """
    return stable_fingerprint(
        (
            tuple(sorted((k, canon(v)) for k, v in space.fields.items())),
            tuple(canon(c) for c in space.constraints),
        )
    )


def edge_key(model_key: str, ns: str, space: HeaderSpace) -> str:
    """The artifact-store key of one edge task's summary."""
    return artifact_cache.artifact_key(
        "edge",
        (EDGE_SUMMARY_VERSION, model_key, ns, space_fingerprint(space)),
    )


@dataclass
class EdgeSummary:
    """Memoized outputs of one edge task.

    ``outputs`` holds ``(fields, constraints, trace_delta)`` triples —
    the full symbolic output spaces, with only the trace stored as a
    delta relative to the input (two inputs identical up to trace share
    one summary).  Everything inside is plain symbolic trees, so the
    summary pickles into the store like any other artifact.
    """

    outputs: List[Tuple[Dict[str, Any], List[Any], List[Tuple[str, int]]]]

    def apply(self, space: HeaderSpace) -> List[HeaderSpace]:
        """Materialize output spaces downstream of ``space``."""
        return [
            HeaderSpace(
                fields=dict(fields),
                constraints=list(constraints),
                trace=space.trace + [tuple(t) for t in delta],
            )
            for fields, constraints, delta in self.outputs
        ]


def compute_edge_summary(
    model: Any, ns: str, space: HeaderSpace, solver: Solver
) -> EdgeSummary:
    """Run the transfer function for one edge task (the cache filler)."""
    outputs = push_space(model, space, ns, solver)
    base = len(space.trace)
    return EdgeSummary(
        outputs=[
            (out.fields, out.constraints, [tuple(t) for t in out.trace[base:]])
            for out in outputs
        ]
    )


@dataclass
class GraphVerifyConfig:
    """Knobs of one verification run.

    Everything here is perf-only except ``max_spaces_per_node``, which
    caps the header-space fan-in a node will push (deterministic
    truncation of the arrival-ordered list; truncations are counted in
    :attr:`VerifyStats.truncated_spaces`).  The cap is applied when a
    node *gathers* its inputs, so it is not part of the edge key.
    """

    #: Consult/fill the artifact store's ``edge`` tier.
    use_cache: bool = True
    #: Worker processes for edge tasks within one topological level
    #: (1 = in-process; results are byte-identical either way).
    jobs: int = 1
    #: Per-node input-space cap (see class docstring).
    max_spaces_per_node: int = 64
    #: Concrete witness packets extracted from reaching spaces.
    max_witnesses: int = 8
    #: Thread the process-global solver constraint cache through edge
    #: computations (off = every check pays full price; benchmarks use
    #: this to keep cold/warm timings honest).
    solver_cache: bool = True


@dataclass
class VerifyStats:
    """What one run did (not part of the canonical verdict bytes)."""

    edges: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Edge tasks actually recomputed (== misses when the cache is on;
    #: every edge when it is off).
    dirty_edges: int = 0
    spaces_total: int = 0
    truncated_spaces: int = 0
    elapsed_s: float = 0.0
    #: Per-node hit/recompute counts (dirty-region introspection).
    node_hits: Dict[str, int] = field(default_factory=dict)
    node_dirty: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "edges": self.edges,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "dirty_edges": self.dirty_edges,
            "spaces_total": self.spaces_total,
            "truncated_spaces": self.truncated_spaces,
            "elapsed_s": self.elapsed_s,
        }


def _space_payload(space: HeaderSpace) -> Dict[str, Any]:
    """The canonical JSON view of one header space (verdict bytes)."""
    return {
        "fields": {k: canon(v) for k, v in sorted(space.fields.items())},
        "constraints": [canon(c) for c in space.constraints],
        "trace": [[nf, entry_id] for nf, entry_id in space.trace],
    }


@dataclass
class GraphVerdict:
    """The outcome of one graph verification.

    :meth:`to_json` is the canonical serialization the byte-identity
    guarantees are stated over: it covers the graph fingerprint, the
    reachable spaces per sink and the witnesses — and excludes
    :attr:`stats`, which legitimately varies across cache states.
    """

    graph_fingerprint: str
    can_reach: bool
    #: Reachable spaces per sink node name (sorted sink order).
    reachable: Dict[str, List[HeaderSpace]]
    #: Concrete witness assignments, one per reaching space (capped).
    witnesses: List[Dict[str, Any]]
    stats: VerifyStats = field(default_factory=VerifyStats)

    @property
    def n_spaces(self) -> int:
        return sum(len(spaces) for spaces in self.reachable.values())

    def to_json(self) -> str:
        payload = {
            "graph": self.graph_fingerprint,
            "can_reach": self.can_reach,
            "n_spaces": self.n_spaces,
            "sinks": {
                sink: [_space_payload(s) for s in spaces]
                for sink, spaces in self.reachable.items()
            },
            "witnesses": self.witnesses,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def traces(self, limit: int = 10) -> List[List[Tuple[str, int]]]:
        """The first ``limit`` end-to-end traces across all sinks."""
        out: List[List[Tuple[str, int]]] = []
        for sink in sorted(self.reachable):
            for space in self.reachable[sink]:
                out.append(list(space.trace))
                if len(out) >= limit:
                    return out
        return out

    def summary(self) -> str:
        s = self.stats
        return (
            f"graph {self.graph_fingerprint[:12]}: "
            f"{'reachable' if self.can_reach else 'BLACKHOLED'} "
            f"({self.n_spaces} space(s) across {len(self.reachable)} sink(s)); "
            f"{s.edges} edges, {s.cache_hits} cache hits, "
            f"{s.dirty_edges} recomputed, {s.elapsed_s * 1000:.1f} ms"
        )


class GraphVerifier:
    """Forward reachability over a :class:`ServiceGraph` (see module doc)."""

    def __init__(
        self,
        graph: ServiceGraph,
        solver: Optional[Solver] = None,
        config: Optional[GraphVerifyConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or GraphVerifyConfig()
        self.solver = solver or Solver(cache=self.config.solver_cache)

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        registry = obs_metrics.active()
        if registry.enabled:
            registry.counter(name).inc(n)

    def _lookup(self, key: str) -> Optional[EdgeSummary]:
        hit = artifact_cache.get_store().get_object("edge", key)
        if isinstance(hit, EdgeSummary) and isinstance(hit.outputs, list):
            return hit
        return None

    # -- public -------------------------------------------------------------

    def verify(self, space: Optional[HeaderSpace] = None) -> GraphVerdict:
        """Push ``space`` (default: all packets) through the whole DAG."""
        t0 = time.perf_counter()
        config = self.config
        stats = VerifyStats()
        init = space or HeaderSpace.universe()
        store = artifact_cache.get_store()
        use_cache = config.use_cache and store.enabled

        inbox: Dict[str, List[HeaderSpace]] = {
            name: [] for name in self.graph.nodes
        }
        for source in self.graph.sources():
            inbox[source].append(init)
        outputs: Dict[str, List[HeaderSpace]] = {}

        for level in self.graph.topo_levels():
            # Phase 1: gather inputs, serve cache hits, collect misses.
            pending: List[Tuple[str, int, HeaderSpace, Optional[str]]] = []
            served: Dict[Tuple[str, int], List[HeaderSpace]] = {}
            for name in level:
                node = self.graph.nodes[name]
                inputs = inbox[name]
                if len(inputs) > config.max_spaces_per_node:
                    stats.truncated_spaces += (
                        len(inputs) - config.max_spaces_per_node
                    )
                    inputs = inputs[: config.max_spaces_per_node]
                for idx, inp in enumerate(inputs):
                    stats.edges += 1
                    key: Optional[str] = None
                    if use_cache:
                        key = edge_key(node.model_key, node.ns, inp)
                        summary = self._lookup(key)
                        if summary is not None:
                            stats.cache_hits += 1
                            stats.node_hits[name] = (
                                stats.node_hits.get(name, 0) + 1
                            )
                            served[(name, idx)] = summary.apply(inp)
                            continue
                        stats.cache_misses += 1
                    stats.dirty_edges += 1
                    stats.node_dirty[name] = stats.node_dirty.get(name, 0) + 1
                    pending.append((name, idx, inp, key))

            # Phase 2: compute the misses — in worker processes when
            # asked, in-process otherwise.  Same bytes either way.
            if config.jobs > 1 and len(pending) > 1:
                from repro.parallel import compute_edge_summaries

                payloads = [
                    (
                        self.graph.nodes[name].model,
                        self.graph.nodes[name].ns,
                        inp,
                        config.solver_cache,
                    )
                    for name, _idx, inp, _key in pending
                ]
                summaries = compute_edge_summaries(payloads, config.jobs)
            else:
                summaries = [
                    compute_edge_summary(
                        self.graph.nodes[name].model, self.graph.nodes[name].ns,
                        inp, self.solver,
                    )
                    for name, _idx, inp, _key in pending
                ]
            for (name, idx, inp, key), summary in zip(pending, summaries):
                if key is not None:
                    store.put_object("edge", key, summary)
                served[(name, idx)] = summary.apply(inp)

            # Phase 3: deterministic merge + fan-out to successors.
            for name in level:
                outs: List[HeaderSpace] = []
                idx = 0
                while (name, idx) in served:
                    outs.extend(served[(name, idx)])
                    idx += 1
                outputs[name] = outs
                stats.spaces_total += len(outs)
                for dst in self.graph.successors(name):
                    inbox[dst].extend(outs)

        reachable = {sink: outputs.get(sink, []) for sink in self.graph.sinks()}
        witnesses = self._witnesses(reachable, config.max_witnesses)
        stats.elapsed_s = time.perf_counter() - t0
        self._count("verify.edges", stats.edges)
        self._count("verify.cache.hits", stats.cache_hits)
        self._count("verify.cache.misses", stats.cache_misses)
        self._count("verify.dirty_edges", stats.dirty_edges)
        return GraphVerdict(
            graph_fingerprint=self.graph.fingerprint(),
            can_reach=any(reachable.values()),
            reachable=reachable,
            witnesses=witnesses,
            stats=stats,
        )

    def _witnesses(
        self, reachable: Dict[str, List[HeaderSpace]], cap: int
    ) -> List[Dict[str, Any]]:
        """Concrete witness packets for the first ``cap`` reaching spaces.

        Witnesses are derived from the reaching spaces' constraint sets
        with a fresh solver pass, so they are identical whether the
        spaces came out of the cache or a live computation.
        """
        out: List[Dict[str, Any]] = []
        for sink in sorted(reachable):
            for space in reachable[sink]:
                if len(out) >= cap:
                    return out
                result = self.solver.check(space.constraints)
                if result.status != "sat" or result.assignment is None:
                    continue
                assignment = {
                    str(k): (bool(v) if isinstance(v, bool) else int(v))
                    for k, v in sorted(
                        result.assignment.items(), key=lambda kv: str(kv[0])
                    )
                    if isinstance(v, (bool, int))
                }
                out.append(
                    {
                        "sink": sink,
                        "trace": [[nf, e] for nf, e in space.trace],
                        "assignment": assignment,
                    }
                )
        return out
