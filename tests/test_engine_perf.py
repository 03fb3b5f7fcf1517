"""Guards for the engine cold-path stack (docs/internals.md §9).

The three cold-path layers — path subsumption, expression interning,
and frontier-parallel exploration — all claim to be behaviour-
preserving *by construction*: toggling any of them must produce
byte-identical serialized models.  These tests pin that claim
corpus-wide, plus the config validation and the
explored/pruned/truncated accounting identity.
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
from repro.symbolic.expr import SymPacket


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
        assert _model_bytes(name, subsumption=False) == reference
        assert _model_bytes(name, intern_exprs=False) == reference
        assert _model_bytes(name, witness_shortcut=False) == reference
        assert (
            _model_bytes(
                name,
                subsumption=False,
                intern_exprs=False,
                witness_shortcut=False,
            )
            == reference
        )


# A compact program whose branch structure produces duplicate states:
# both arms of the first branch leave an identical environment, so the
# second/third branches are explored once and grafted once.
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


def _explore(**engine_kwargs):
    flat = flatten_program(parse_program(DUPLICATING_SOURCE, entry="cb"))
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
        for subsumption in (False, True):
            _, stats, _ = _explore(subsumption=subsumption)
            assert stats.states_total == (
                stats.states_explored
                + stats.pruned_subsumed
                + stats.paths_truncated
            )

    def test_subsumption_prunes_duplicate_states(self):
        _, on, _ = _explore(subsumption=True)
        _, off, _ = _explore(subsumption=False)
        assert on.pruned_subsumed > 0
        assert off.pruned_subsumed == 0
        assert on.states_explored < off.states_explored
        # Both runs finish the same path set.
        assert on.paths_done == off.paths_done

    def test_popped_counter_matches_work_done(self):
        _, off, counters_off = _explore(subsumption=False)
        assert counters_off["se.states_popped"] == off.states_total
        _, on, counters_on = _explore(subsumption=True)
        # A graft emits leaves without popping their states.
        assert counters_on["se.states_popped"] <= on.states_total
        assert counters_on["se.pruned_subsumed"] == on.pruned_subsumed

    def test_states_total_is_derived(self):
        stats = ExploreStats(
            states_explored=5, pruned_subsumed=2, paths_truncated=1
        )
        assert stats.states_total == 8
