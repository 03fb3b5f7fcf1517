"""Tests for DAG graph verification (repro.netverify).

The load-bearing properties: verdict bytes are identical across cache
off/cold/warm and sequential-vs-parallel exploration, and after a
single NF edit a warm re-verification recomputes exactly the dirty
region (the edited node and everything downstream).
"""

from __future__ import annotations

import json

import pytest

from repro import cache as artifact_cache
from repro import obs
from repro.apps.verify import HeaderSpace
from repro.netverify import (
    GraphVerifier,
    GraphVerifyConfig,
    ServiceGraph,
    build_graph,
    generate_graph,
)
from repro.netverify.graph import _synthesized
from repro.netverify.verify import (
    EdgeSummary,
    compute_edge_summary,
    edge_key,
    space_fingerprint,
)
from repro.symbolic.solver import Solver

from tests.conftest import synthesize_cached


def _model(name: str):
    return synthesize_cached(name).model


def _quick_graph() -> ServiceGraph:
    """A cheap diamond: monitor -> {ratelimiter, l2switch} -> monitor."""
    g = ServiceGraph()
    g.add_node("A", _model("monitor"))
    g.add_node("B", _model("ratelimiter"))
    g.add_node("C", _model("l2switch"))
    g.add_node("D", _model("monitor"))
    for src, dst in [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]:
        g.add_edge(src, dst)
    return g


class TestServiceGraph:
    def test_structure_queries(self):
        g = _quick_graph()
        assert g.sources() == ["A"]
        assert g.sinks() == ["D"]
        assert g.successors("A") == ["B", "C"]
        assert g.predecessors("D") == ["B", "C"]
        assert g.topo_levels() == [["A"], ["B", "C"], ["D"]]
        assert g.n_nodes == 4 and g.n_edges == 4

    def test_duplicate_edge_deduped(self):
        g = _quick_graph()
        g.add_edge("A", "B")
        assert g.n_edges == 4

    def test_rejects_self_loop_and_unknown_nodes(self):
        g = _quick_graph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge("A", "A")
        with pytest.raises(ValueError, match="unknown node"):
            g.add_edge("A", "Z")

    def test_rejects_duplicate_node(self):
        g = _quick_graph()
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node("A", _model("monitor"))

    def test_cycle_detected(self):
        g = ServiceGraph()
        g.add_node("A", _model("monitor"))
        g.add_node("B", _model("monitor"))
        g.add_edge("A", "B")
        g.edges.append(("B", "A"))
        g._succ["B"].append("A")
        g._pred["A"].append("B")
        with pytest.raises(ValueError, match="cycle"):
            g.topo_levels()

    def test_fingerprint_tracks_models_and_wiring(self):
        g1, g2 = _quick_graph(), _quick_graph()
        assert g1.fingerprint() == g2.fingerprint()
        g2.replace_model("B", _model("nat"))
        assert g1.fingerprint() != g2.fingerprint()
        g3 = _quick_graph()
        g3.add_edge("A", "D")
        assert g3.fingerprint() != g1.fingerprint()

    def test_replace_model_preserves_wiring(self):
        g = _quick_graph()
        g.replace_model("B", _model("nat"))
        assert g.successors("B") == ["D"]
        assert g.predecessors("B") == ["A"]
        assert g.nodes["B"].model.name == "nat"

    def test_generate_graph_deterministic(self):
        g1 = generate_graph(10, seed=3, width=4)
        g2 = generate_graph(10, seed=3, width=4)
        assert g1.fingerprint() == g2.fingerprint()
        assert generate_graph(10, seed=4, width=4).fingerprint() != g1.fingerprint()

    def test_build_graph_unknown_nf(self):
        with pytest.raises(ValueError, match="unknown NF"):
            build_graph([("A", "nosuchnf")], [])


class TestEdgeSummary:
    def test_space_fingerprint_ignores_trace(self):
        base = HeaderSpace.universe()
        traced = HeaderSpace(
            fields=dict(base.fields),
            constraints=list(base.constraints),
            trace=[("fw", 3)],
        )
        assert space_fingerprint(base) == space_fingerprint(traced)

    def test_space_fingerprint_sensitive_to_constraints(self):
        base = HeaderSpace.universe()
        from repro.symbolic.expr import mk_app

        narrowed = base.constrained(mk_app("==", base.fields["dport"], 80))
        assert space_fingerprint(base) != space_fingerprint(narrowed)

    def test_summary_apply_reprefixes_trace(self):
        model = _model("monitor")
        solver = Solver()
        base = HeaderSpace.universe()
        summary = compute_edge_summary(model, "X.", base, solver)
        traced = HeaderSpace(
            fields=dict(base.fields), constraints=[], trace=[("up", 1)]
        )
        outs = summary.apply(traced)
        assert outs
        for out in outs:
            assert out.trace[0] == ("up", 1)
            assert out.trace[1][0] == "monitor"

    def test_edge_key_distinguishes_model_and_ns(self):
        space = HeaderSpace.universe()
        k1 = edge_key("m1", "A.", space)
        assert edge_key("m2", "A.", space) != k1
        assert edge_key("m1", "B.", space) != k1
        assert edge_key("m1", "A.", space) == k1

    def test_malformed_store_entry_is_a_miss(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = ServiceGraph()
            g.add_node("A", _model("monitor"))
            key = edge_key(
                g.nodes["A"].model_key, "A.", HeaderSpace.universe()
            )
            artifact_cache.get_store().put_object("edge", key, {"not": "a summary"})
            verdict = GraphVerifier(g).verify()
            assert verdict.stats.cache_misses == 1
            assert verdict.stats.cache_hits == 0


class TestGraphVerifierIdentity:
    def test_byte_identical_across_cache_modes(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            nocache = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            cold = GraphVerifier(g).verify()
            warm = GraphVerifier(g).verify()
            assert nocache.to_json() == cold.to_json() == warm.to_json()
            assert cold.stats.cache_hits == 0
            assert cold.stats.cache_misses == cold.stats.edges
            assert warm.stats.cache_hits == warm.stats.edges
            assert warm.stats.dirty_edges == 0

    def test_parallel_matches_sequential(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            seq = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            par = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False, jobs=2)
            ).verify()
            assert seq.to_json() == par.to_json()

    def test_witnesses_are_json_safe_and_stable(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            cold = GraphVerifier(g).verify()
            warm = GraphVerifier(g).verify()
            assert cold.witnesses == warm.witnesses
            json.dumps(cold.witnesses)  # must round-trip
            for witness in cold.witnesses:
                assert witness["sink"] in g.sinks()
                assert witness["trace"]

    def test_matches_linear_network_verifier_semantics(self):
        """A 2-node path graph agrees with NetworkVerifier on verdict."""
        from repro.apps.verify import NetworkVerifier

        fw, nat = synthesize_cached("firewall"), synthesize_cached("nat")
        g = ServiceGraph()
        g.add_node("fw", fw.model)
        g.add_node("nat", nat.model)
        g.add_edge("fw", "nat")
        verdict = GraphVerifier(
            g, config=GraphVerifyConfig(use_cache=False)
        ).verify()
        linear = NetworkVerifier(
            [("firewall", fw.model), ("nat", nat.model)]
        )
        spaces = linear.reachable()
        assert verdict.can_reach == bool(spaces)
        assert verdict.n_spaces == len(spaces)
        assert sorted(tuple(s.trace) for s in verdict.reachable["nat"]) == sorted(
            tuple(s.trace) for s in spaces
        )


class TestDirtyRegion:
    def test_single_edit_recomputes_only_downstream(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            GraphVerifier(g).verify()  # warm every edge
            g.replace_model("B", _model("nat"))
            incr = GraphVerifier(g).verify()
            # The edited B and its downstream D recompute; A and the
            # untouched parallel branch C stay fully warm.  D is mixed:
            # its inputs derived from C still hit (dirtiness is
            # per-edge, not per-node).
            assert set(incr.stats.node_dirty) == {"B", "D"}
            assert {"A", "C"} <= set(incr.stats.node_hits)
            assert "B" not in incr.stats.node_hits
            assert 0 < incr.stats.dirty_edges < incr.stats.edges
            # and the incremental verdict equals a fresh recompute
            fresh = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            assert incr.to_json() == fresh.to_json()

    def test_rewire_dirties_only_new_inputs(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            GraphVerifier(g).verify()
            g.add_edge("A", "D")  # topology rewire: D gains an input
            incr = GraphVerifier(g).verify()
            # only D's *new* inputs (via the A edge) recompute; its old
            # inputs and every other node stay warm
            assert set(incr.stats.node_dirty) == {"D"}
            assert {"A", "B", "C"} <= set(incr.stats.node_hits)
            fresh = GraphVerifier(
                g, config=GraphVerifyConfig(use_cache=False)
            ).verify()
            assert incr.to_json() == fresh.to_json()


class TestObsAndStats:
    def test_counters_threaded_through(self, tmp_path):
        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            g = _quick_graph()
            with obs.observed() as (_tracer, registry):
                GraphVerifier(g).verify()
                GraphVerifier(g).verify()
                counters = registry.snapshot()["counters"]
            edges_per_run = counters["verify.edges"] // 2
            assert counters["verify.cache.misses"] == edges_per_run
            assert counters["verify.cache.hits"] == edges_per_run
            assert counters["verify.dirty_edges"] == edges_per_run

    def test_truncation_counted(self):
        g = _quick_graph()
        config = GraphVerifyConfig(use_cache=False, max_spaces_per_node=1)
        verdict = GraphVerifier(g, config=config).verify()
        assert verdict.stats.truncated_spaces > 0


class TestServeOp:
    def test_op_verify_graph_explicit_nodes(self, tmp_path):
        from repro.serve.jobs import _op_verify_graph

        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            body = {
                "nodes": [["A", "monitor"], ["B", "ratelimiter"]],
                "edges": [["A", "B"]],
            }
            cold = _op_verify_graph(body)
            assert cold["can_reach"] is True
            assert cold["n_nodes"] == 2 and cold["n_edges"] == 1
            assert cold["cache"]["hits"] == 0
            warm = _op_verify_graph(body)
            assert warm["cache"]["hits"] == warm["cache"]["edges"] > 0
            assert warm["graph"] == cold["graph"]
            assert warm["traces"] == cold["traces"]
            assert warm["witnesses"] == cold["witnesses"]
            json.dumps(warm)  # the whole envelope must be JSON-safe

    def test_op_verify_graph_generate(self, tmp_path):
        from repro.serve.jobs import _op_verify_graph

        with artifact_cache.override(directory=str(tmp_path), enabled=True):
            out = _op_verify_graph({"generate": {"n": 4, "seed": 3, "width": 2}})
            assert out["n_nodes"] == 4
            assert out["cache"]["edges"] > 0

    def test_op_verify_graph_bad_requests(self):
        from repro.serve.jobs import _op_verify_graph

        with pytest.raises(ValueError, match="nodes"):
            _op_verify_graph({})
        with pytest.raises(ValueError, match="generate.n"):
            _op_verify_graph({"generate": {"n": 0}})
        with pytest.raises(ValueError, match="unknown NF"):
            _op_verify_graph({"nodes": [["A", "nosuchnf"]], "edges": []})
        with pytest.raises(ValueError, match="unknown node"):
            _op_verify_graph(
                {"nodes": [["A", "monitor"]], "edges": [["A", "Z"]]}
            )


class TestCli:
    def test_verify_subcommand(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "verify", "monitor", "ratelimiter"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reachable" in out

    def test_compose_subcommand(self, capsys):
        from repro.cli import main

        code = main(["--no-cache", "compose", "firewall", "nat"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recommended: firewall -> nat" in out

    def test_verify_graph_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            [
                "verify-graph",
                "--node", "A=monitor", "--node", "B=ratelimiter",
                "--edge", "A:B", "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["can_reach"] is True
        assert payload["stats"]["edges"] > 0

    def test_verify_graph_bad_edge(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--no-cache", "verify-graph", "--node", "A=monitor",
                  "--edge", "A-B"])
