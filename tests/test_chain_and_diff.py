"""Tests for concrete service chains and model diffing."""

from __future__ import annotations

import pytest

from repro.model.diff import diff_models
from repro.net.chain import ServiceChain
from repro.net.generator import TrafficGenerator, WorkloadSpec
from repro.net.packet import Packet, TCP_ACK, TCP_SYN
from repro.nfactor.algorithm import NFactor
from repro.nfs import get_nf, nf_names

from tests.conftest import synthesize_cached


class TestServiceChain:
    def test_single_hop_forwarding(self, monitor_result):
        chain = ServiceChain.of_references([monitor_result])
        trace = chain.process(Packet())
        assert trace.delivered
        assert trace.dropped_at is None

    def test_drop_recorded_with_nf_name(self, firewall_result):
        chain = ServiceChain.of_references([firewall_result])
        # untrusted SYN -> firewall drops
        trace = chain.process(Packet(tcp_flags=TCP_SYN, in_port=1))
        assert trace.dropped_at == "firewall"
        assert trace.delivered == []

    def test_two_hop_chain_fw_then_lb(self, firewall_result, lb_result):
        chain = ServiceChain.of_references([firewall_result, lb_result])
        # trusted SYN to the LB's VIP: firewall admits, LB rewrites
        pkt = Packet(
            tcp_flags=TCP_SYN, in_port=0,
            ip_src=7, sport=999, ip_dst=50529027, dport=80,
        )
        trace = chain.process(pkt)
        assert trace.dropped_at is None
        out = trace.delivered[0]
        assert out.ip_src == 50529027       # LB applied source NAT
        assert out.ip_dst in (16843009, 33686018)

    def test_simulator_chain_matches_reference_chain(
        self, firewall_result, lb_result
    ):
        """The synthesized models compose like the real NFs do."""
        spec = get_nf("firewall")
        workload = list(
            TrafficGenerator(
                WorkloadSpec(n_packets=150, seed=9, interesting=spec.interesting)
            ).packets()
        )
        ref_chain = ServiceChain.of_references([firewall_result, lb_result])
        sim_chain = ServiceChain.of_simulators([firewall_result, lb_result])
        for pkt in workload:
            ref_trace = ref_chain.process(pkt.copy())
            sim_trace = sim_chain.process(pkt.copy())
            assert ref_trace.delivered == sim_trace.delivered

    def test_delivery_rate(self, firewall_result):
        chain = ServiceChain.of_references([firewall_result])
        pkts = [Packet(tcp_flags=TCP_SYN, in_port=0, sport=i + 1, dport=8000 + i)
                for i in range(5)]
        pkts += [Packet(tcp_flags=TCP_ACK, in_port=1, sport=50, dport=51)]
        rate = chain.delivery_rate(pkts)
        assert rate == pytest.approx(5 / 6)

    def test_flooding_fans_out(self, monitor_result):
        # monitor forwards 1:1; chain of two monitors delivers 1 packet
        chain = ServiceChain.of_references([monitor_result, monitor_result])
        trace = chain.process(Packet())
        assert len(trace.delivered) == 1

    def test_hop_records_full_fan_in(self):
        """Regression: a hop after a flooding NF records *all* inputs.

        ``packets_in`` used to keep only ``current[0]``, silently losing
        the rest of the fan-in."""

        def duplicate(pkt):
            return [(pkt.copy(), 0), (pkt.copy(), 1)]

        def forward(pkt):
            return [(pkt, 0)]

        chain = ServiceChain([("dup", duplicate), ("fwd", forward)])
        trace = chain.process(Packet(sport=42))
        dup_hop, fwd_hop = trace.hops
        assert len(dup_hop.packets_in) == 1
        assert len(dup_hop.packets_out) == 2
        assert len(fwd_hop.packets_in) == 2          # the whole fan-in
        assert all(p.sport == 42 for p in fwd_hop.packets_in)

    def test_hop_record_alias_on_empty_input(self):
        from repro.net.chain import HopRecord

        hop = HopRecord(nf="x", packets_in=[], packets_out=[])
        assert hop.packets_in == []
        assert hop.dropped


class TestCorpusDifferentialIdentity:
    """Compiled simulator chains == reference chains, whole corpus."""

    @pytest.mark.parametrize("name", nf_names())
    def test_single_nf_chain_identical(self, name):
        result = synthesize_cached(name)
        spec = get_nf(name)
        workload = list(
            TrafficGenerator(
                WorkloadSpec(
                    n_packets=120, seed=13, interesting=spec.interesting
                )
            ).packets()
        )
        ref_chain = ServiceChain.of_references([result])
        sim_chain = ServiceChain.of_simulators([result], compiled=True)
        for pkt in workload:
            ref = ref_chain.process(pkt.copy())
            sim = sim_chain.process(pkt.copy())
            assert ref.delivered == sim.delivered, (name, pkt)
            assert ref.dropped_at == sim.dropped_at, (name, pkt)

    def test_multi_hop_chain_identical(self):
        names = ["firewall", "nat", "monitor", "l2switch"]
        results = [synthesize_cached(n) for n in names]
        spec = get_nf("firewall")
        workload = list(
            TrafficGenerator(
                WorkloadSpec(
                    n_packets=150, seed=21, interesting=spec.interesting
                )
            ).packets()
        )
        ref_chain = ServiceChain.of_references(results)
        sim_chain = ServiceChain.of_simulators(results, compiled=True)
        for pkt in workload:
            ref = ref_chain.process(pkt.copy())
            sim = sim_chain.process(pkt.copy())
            assert ref.delivered == sim.delivered, pkt
            assert ref.dropped_at == sim.dropped_at, pkt


class TestModelDiff:
    def test_same_nf_is_equal(self):
        spec = get_nf("monitor")
        a = NFactor(spec.source, name="monitor").synthesize()
        b = NFactor(spec.source, name="monitor").synthesize()
        diff = diff_models(a, b, n_packets=200)
        assert diff.behaviourally_equal
        assert not diff.state_tables_only_a and not diff.state_tables_only_b

    def test_different_nfs_diverge(self, monitor_result, firewall_result):
        spec = get_nf("firewall")
        diff = diff_models(
            monitor_result, firewall_result,
            n_packets=200, interesting=spec.interesting,
        )
        assert not diff.behaviourally_equal
        assert any(d.verdict_differs for d in diff.divergences)

    def test_structural_report_two_lb_implementations(
        self, lb_result, balance_result
    ):
        """The paper's motivating case: two vendors' L4 load balancers.

        The Fig.-1 LB and *balance* implement the same function class
        with different mechanics; the structural diff surfaces that:
        different state tables, and only the Fig.-1 LB rewrites the
        source address (full NAT vs. destination rewrite)."""
        diff = diff_models(lb_result, balance_result, n_packets=100)
        assert diff.state_tables_only_a >= {"f2b_nat", "b2f_nat"}
        assert "__tcp_conns" in diff.state_tables_only_b
        assert "ip_src" in diff.rewrite_fields_only_a
        assert not diff.behaviourally_equal  # different VIP/ports/semantics

    def test_summary_text(self, monitor_result):
        diff = diff_models(monitor_result, monitor_result, n_packets=20)
        assert "no divergence" in diff.summary()
