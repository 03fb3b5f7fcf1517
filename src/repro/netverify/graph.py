"""DAG service graphs of synthesized NF models.

A :class:`ServiceGraph` is the topology side of network-wide
verification: named nodes, each bound to one :class:`NFModel`, wired by
directed edges.  Branches (one node feeding several) mirror traffic
down every out-edge; joins (several feeding one) merge the incoming
header-space sets.  The graph must be acyclic — verification is a
single forward pass in topological order.

Identity is content-addressed at two grains:

* per node, :attr:`GraphNode.model_key` fingerprints the *model* the
  node runs (by default a digest of the canonical model JSON, or the
  artifact-cache model-tier key when the builder has one).  Edge
  summaries key on it, so editing one NF dirties exactly the edges
  into its node and whatever lies downstream;
* per graph, :meth:`ServiceGraph.fingerprint` covers nodes, model
  bindings and wiring, so two graphs with one fingerprint get one
  verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.keys import stable_fingerprint
from repro.model.matchaction import NFModel

#: Corpus NFs used by :func:`generate_graph` (the heavyweight DPI-style
#: models are deliberately absent: topology scale is the point here,
#: per-model entry count is bench_perf_engine's).
DEFAULT_NF_POOL: Tuple[str, ...] = (
    "firewall",
    "nat",
    "loadbalancer",
    "monitor",
    "l2switch",
    "ratelimiter",
)


@dataclass(frozen=True)
class GraphNode:
    """One placement of one model in the topology."""

    name: str
    model: NFModel
    #: Content fingerprint of the bound model (see module docstring).
    model_key: str

    @property
    def ns(self) -> str:
        """State namespace: two nodes never share state, even same-NF."""
        return f"{self.name}."


class ServiceGraph:
    """A DAG of model-bound nodes (insertion order is not semantic)."""

    def __init__(self) -> None:
        self.nodes: Dict[str, GraphNode] = {}
        self.edges: List[Tuple[str, str]] = []
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}

    # -- construction -------------------------------------------------------

    def add_node(
        self, name: str, model: NFModel, model_key: Optional[str] = None
    ) -> GraphNode:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        if model_key is None:
            from repro.model.serialize import model_to_json

            model_key = stable_fingerprint(("model-json", model_to_json(model)))
        node = GraphNode(name=name, model=model, model_key=model_key)
        self.nodes[name] = node
        self._succ.setdefault(name, [])
        self._pred.setdefault(name, [])
        return node

    def add_edge(self, src: str, dst: str) -> None:
        for end in (src, dst):
            if end not in self.nodes:
                raise ValueError(f"edge references unknown node {end!r}")
        if src == dst:
            raise ValueError(f"self-loop on {src!r}")
        if (src, dst) in self.edges:
            return
        self.edges.append((src, dst))
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    def replace_model(
        self, name: str, model: NFModel, model_key: Optional[str] = None
    ) -> GraphNode:
        """Rebind one node to a new model (the "single NF edit" move).

        Wiring is untouched; the node's :attr:`~GraphNode.model_key`
        changes, so a warm re-verification recomputes exactly this
        node's edges and everything downstream of them.
        """
        if name not in self.nodes:
            raise ValueError(f"unknown node {name!r}")
        del self.nodes[name]
        saved_succ, saved_pred = self._succ[name], self._pred[name]
        node = self.add_node(name, model, model_key)
        self._succ[name], self._pred[name] = saved_succ, saved_pred
        return node

    # -- structure ----------------------------------------------------------

    def successors(self, name: str) -> List[str]:
        return sorted(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        return sorted(self._pred[name])

    def sources(self) -> List[str]:
        return sorted(n for n in self.nodes if not self._pred[n])

    def sinks(self) -> List[str]:
        return sorted(n for n in self.nodes if not self._succ[n])

    def topo_levels(self) -> List[List[str]]:
        """Kahn levels, names sorted within each level (deterministic).

        Level *k* holds the nodes whose longest path from any source has
        *k* edges, so everything a node consumes was produced in an
        earlier level — the unit of frontier-parallel exploration.
        Raises ``ValueError`` on a cycle.
        """
        indegree = {n: len(self._pred[n]) for n in self.nodes}
        level = sorted(n for n, d in indegree.items() if d == 0)
        levels: List[List[str]] = []
        seen = 0
        while level:
            levels.append(level)
            seen += len(level)
            nxt = set()
            for n in level:
                for dst in self._succ[n]:
                    indegree[dst] -= 1
                    if indegree[dst] == 0:
                        nxt.add(dst)
            level = sorted(nxt)
        if seen != len(self.nodes):
            stuck = sorted(n for n, d in indegree.items() if d > 0)
            raise ValueError(f"graph has a cycle through {stuck}")
        return levels

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def fingerprint(self) -> str:
        """Content identity of topology + model bindings."""
        return stable_fingerprint(
            (
                "service-graph",
                tuple(
                    (name, self.nodes[name].model_key)
                    for name in sorted(self.nodes)
                ),
                tuple(sorted(self.edges)),
            )
        )

    def summary(self) -> str:
        return (
            f"ServiceGraph({self.n_nodes} nodes, {self.n_edges} edges, "
            f"{len(self.sources())} source(s), {len(self.sinks())} sink(s))"
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _synthesized(nf: str) -> Tuple[NFModel, str]:
    """(model, model-tier artifact key) for one corpus NF or source path."""
    from repro.nfactor.algorithm import (
        NFactorConfig,
        _model_key,
        synthesize_model_cached,
    )
    from repro.nfs import get_nf, nf_names

    try:
        spec = get_nf(nf)
    except KeyError:
        raise ValueError(f"unknown NF {nf!r} (corpus: {', '.join(nf_names())})")
    ms = synthesize_model_cached(spec.source, name=spec.name, entry=spec.entry)
    key = _model_key(spec.source, spec.name, spec.entry, NFactorConfig())
    return ms.model, key


def build_graph(
    nodes: Sequence[Tuple[str, str]], edges: Sequence[Tuple[str, str]]
) -> ServiceGraph:
    """A graph from ``(node_name, corpus_nf)`` pairs and name edges.

    Each distinct NF is synthesized once (through the artifact cache's
    model tier) and shared across all the nodes that run it; node
    *state* still stays distinct via the per-node namespace.
    """
    graph = ServiceGraph()
    models: Dict[str, Tuple[NFModel, str]] = {}
    for name, nf in nodes:
        if nf not in models:
            models[nf] = _synthesized(nf)
        model, key = models[nf]
        graph.add_node(name, model, model_key=key)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


def generate_graph(
    n_nodes: int,
    seed: int = 7,
    width: int = 5,
    pool: Sequence[str] = DEFAULT_NF_POOL,
) -> ServiceGraph:
    """A seeded layered DAG over the corpus (the benchmark topology).

    Nodes are arranged in layers of up to ``width``; every node gets
    1–2 in-edges from the previous layer (layer 0 nodes are sources),
    so the graph has genuine branches and joins but bounded depth —
    header-space growth is a function of path length, not node count.
    Deterministic for a given ``(n_nodes, seed, width, pool)``.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if width < 1:
        raise ValueError("width must be >= 1")
    rng = random.Random(f"netverify-gen:{n_nodes}:{seed}:{width}")
    names = [f"n{i:02d}" for i in range(n_nodes)]
    assignments = [pool[rng.randrange(len(pool))] for _ in names]
    graph = build_graph(
        [(name, nf) for name, nf in zip(names, assignments)], edges=[]
    )
    layers: List[List[str]] = [
        names[i : i + width] for i in range(0, n_nodes, width)
    ]
    for prev, layer in zip(layers, layers[1:]):
        for name in layer:
            fan_in = 1 + rng.randrange(min(2, len(prev)))
            for src in rng.sample(prev, fan_in):
                graph.add_edge(src, name)
    return graph
