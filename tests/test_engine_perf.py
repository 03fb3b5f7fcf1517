"""Guards for the engine cold-path stack (docs/internals.md §9).

The cold-path layers — the witness shortcut, expression interning and
frontier-parallel exploration — all claim to be behaviour-preserving
*by construction*: toggling any of them must produce byte-identical
serialized models.  These tests pin that claim corpus-wide, plus the
config validation, the explored/truncated accounting identity and the
copy semantics of ``SymState.fork``.
"""

from __future__ import annotations

import pytest

from repro.lang.parser import parse_program
from repro.model.serialize import model_to_json
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf, nf_names
from repro.obs import metrics as obs_metrics
from repro.pdg.flatten import flatten_program
from repro.symbolic.engine import EngineConfig, ExploreStats, SymbolicEngine
from repro.symbolic.expr import SVar, SymDict, SymPacket
from repro.symbolic.state import SymState


def _model_bytes(name: str, **engine_kwargs) -> str:
    spec = get_nf(name)
    config = NFactorConfig(
        engine=EngineConfig(**engine_kwargs), artifact_cache=False
    )
    result = NFactor(spec.source, name=name, config=config).synthesize()
    return model_to_json(result.model)


class TestConfigValidation:
    def test_parallel_paths_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(parallel_paths=0)


class TestCrossStrategyByteIdentity:
    """Every corpus NF: sequential DFS and the parallel frontier
    (breadth-first phase A, then DFS workers) give one model."""

    @pytest.mark.parametrize("name", nf_names())
    def test_all_strategies_agree(self, name):
        assert _model_bytes(name, parallel_paths=2) == _model_bytes(name)


class TestToggleByteIdentity:
    """Each cold-path layer off (and all off): identical bytes."""

    @pytest.mark.parametrize("name", ["firewall", "nat", "proxycache"])
    def test_layers_are_behaviour_preserving(self, name):
        reference = _model_bytes(name)
        assert _model_bytes(name, intern_exprs=False) == reference
        assert _model_bytes(name, witness_shortcut=False) == reference
        assert (
            _model_bytes(name, intern_exprs=False, witness_shortcut=False)
            == reference
        )


# A compact program whose two arms of the first branch leave identical
# environments: the second and third branches are explored under both.
DUPLICATING_SOURCE = (
    "def cb(pkt):\n"
    "    if pkt.ttl > 64:\n"
    "        x = 1\n"
    "    else:\n"
    "        x = 1\n"
    "    if pkt.dport == 80:\n"
    "        if pkt.sport == 53:\n"
    "            send_packet(pkt)\n"
)


def _explore(source=DUPLICATING_SOURCE, **engine_kwargs):
    flat = flatten_program(parse_program(source, entry="cb"))
    engine = SymbolicEngine(EngineConfig(**engine_kwargs))
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.install(registry)
    try:
        paths = engine.explore(list(flat.block), {"pkt": SymPacket.fresh()})
    finally:
        obs_metrics.uninstall(previous)
    return paths, engine.stats, registry.snapshot()["counters"]


class TestAccounting:
    def test_states_total_identity(self):
        _, stats, _ = _explore()
        assert stats.states_total == stats.states_explored + stats.paths_truncated
        assert stats.pruned_subsumed == 0

    def test_popped_counter_matches_work_done(self):
        _, stats, counters = _explore()
        assert counters["se.states_popped"] == stats.states_total
        _, stats, counters = _explore(max_steps_per_path=4)
        assert stats.paths_truncated > 0
        assert counters["se.states_popped"] == stats.states_total

    def test_states_total_is_derived(self):
        stats = ExploreStats(states_explored=5, paths_truncated=1)
        assert stats.states_total == 6


# Two names bound to one packet; the store through the copy happens
# only after the fork, on both arms.
ALIASING_SOURCE = (
    "LIMIT = 64\n"
    "\n"
    "def cb(pkt):\n"
    "    q = pkt\n"
    "    if pkt.ttl > LIMIT:\n"
    "        q.dport = 7\n"
    "    else:\n"
    "        q.dport = 9\n"
    "    send_packet(pkt)\n"
)


class TestFork:
    def test_fork_keeps_aliasing(self):
        paths, _, _ = _explore(ALIASING_SOURCE)
        sent = {
            path.branches[-1][1]: path.sent[0][0]["dport"] for path in paths
        }
        assert sent == {True: 7, False: 9}

    def test_fork_shares_names_bound_to_one_object(self):
        pkt, table, ports, rules = SymPacket.fresh(), SymDict("t"), [1, 2], {}
        state = SymState(
            pc=0,
            env={
                "pkt": pkt, "q": pkt, "t": table, "u": table,
                "ports": ports, "alias": ports, "rules": rules, "r2": rules,
            },
        )
        env = state.fork().env
        for a, b in (("pkt", "q"), ("t", "u"), ("ports", "alias"), ("rules", "r2")):
            assert env[a] is env[b]
            assert env[a] is not state.env[a]

    def test_fork_writes_stay_on_their_arm(self):
        state = SymState(
            pc=0,
            env={
                "pkt": SymPacket.fresh(),
                "table": SymDict("table"),
                "ports": [1, 2],
                "conf": {"mode": 1},
                "nested": ([3], {"k": [4]}),
            },
        )
        other = state.fork()
        other.env["pkt"].set("dport", 7)
        other.env["table"].store(SVar("k"), 1)
        other.env["table"].assumed["x"] = True
        other.env["ports"].append(3)
        other.env["conf"]["mode"] = 2
        other.env["nested"][0].append(5)
        other.env["nested"][1]["k"].append(6)
        assert state.env["pkt"].get("dport") is not other.env["pkt"].get("dport")
        assert state.env["table"].entries == []
        assert state.env["table"].assumed == {}
        assert state.env["ports"] == [1, 2]
        assert state.env["conf"] == {"mode": 1}
        assert state.env["nested"] == ([3], {"k": [4]})

    def test_fork_shares_immutable_values(self):
        rules = ((1, "tcp", (80, 443)), (2, "udp", (53,)))
        leaf = SVar("pkt.ttl")
        state = SymState(pc=0, env={"RULES": rules, "x": leaf, "n": 5})
        env = state.fork().env
        assert env["RULES"] is rules
        assert env["x"] is leaf
