"""Tests for the accuracy experiments (paper §5): differential testing
and path-set equivalence."""

from __future__ import annotations

import pytest

from repro.equiv.differential import differential_test
from repro.equiv.paths import compare_path_sets
from repro.net.generator import WorkloadSpec
from repro.nfactor.algorithm import NFactor, NFactorConfig
from repro.nfs import get_nf
from repro.symbolic.engine import EngineConfig


class TestDifferential:
    @pytest.mark.parametrize(
        "fixture",
        ["lb_result", "nat_result", "firewall_result", "monitor_result", "balance_result"],
    )
    def test_model_equals_program(self, fixture, request):
        result = request.getfixturevalue(fixture)
        spec = get_nf(result.model.name.replace("~unfolded", ""))
        report = differential_test(
            result, n_packets=250, seed=13, interesting=spec.interesting
        )
        assert report.identical, report.summary()
        assert report.n_forwarded_ref == report.n_forwarded_model

    def test_snortlite_model_equals_program(self, snortlite_result):
        spec = get_nf("snortlite")
        report = differential_test(
            snortlite_result, n_packets=250, seed=13, interesting=spec.interesting
        )
        assert report.identical, report.summary()

    def test_report_counts(self, monitor_result):
        report = differential_test(monitor_result, n_packets=50, seed=1)
        assert report.n_packets >= 50
        assert report.n_forwarded_ref == report.n_packets  # monitor forwards all

    def test_seed_changes_workload_not_verdict(self, lb_result):
        spec = get_nf("loadbalancer")
        for seed in (1, 2, 3):
            report = differential_test(
                lb_result, n_packets=120, seed=seed, interesting=spec.interesting
            )
            assert report.identical

    def test_mismatch_reporting_shape(self, monitor_result):
        # Sanity: a deliberately broken simulator state must surface as
        # mismatches with packets attached.
        report = differential_test(monitor_result, n_packets=30, seed=2)
        assert report.mismatches == []
        assert report.summary().endswith("IDENTICAL")


class TestPathSetEquivalence:
    @pytest.mark.parametrize("name", ["loadbalancer", "nat", "monitor", "firewall"])
    def test_original_vs_slice_paths_equal(self, name, request):
        result = request.getfixturevalue(
            {"loadbalancer": "lb_result", "nat": "nat_result",
             "monitor": "monitor_result", "firewall": "firewall_result"}[name]
        )
        spec = get_nf(name)
        nf = NFactor(spec.source, name=name)
        original_paths, _ = nf.explore_original(EngineConfig(max_paths=16384))
        report = compare_path_sets(original_paths, result.paths)
        assert report.equivalent, report.summary()
        assert report.n_merged == report.n_sliced

    def test_original_finer_than_slice(self, lb_result):
        """Log branches split original paths; the slice merges them."""
        spec = get_nf("loadbalancer")
        nf = NFactor(spec.source, name="loadbalancer")
        original_paths, _ = nf.explore_original()
        n_orig = sum(1 for p in original_paths if p.status == "done")
        n_slice = sum(1 for p in lb_result.paths if p.status == "done")
        assert n_orig >= n_slice

    def test_report_summary_format(self, monitor_result):
        report = compare_path_sets(monitor_result.paths, monitor_result.paths)
        assert "EQUAL" in report.summary()


def _aliasing_nf(body: str) -> str:
    return (
        "LIMIT = 64\n\n"
        + body
        + '\n\ndef main():\n    sniff("eth0", cb)\n\n\n'
        + 'if __name__ == "__main__":\n    main()\n'
    )


#: Stores made through a second name bound to the packet.  The slice
#: must keep them although the output call names only ``pkt``.
ALIASED_STORES = {
    "callee_write": _aliasing_nf(
        "def mark(p):\n"
        "    p.dport = 7\n\n"
        "def cb(pkt):\n"
        "    mark(pkt)\n"
        "    send_packet(pkt)"
    ),
    "local_alias_both_arms": _aliasing_nf(
        "def cb(pkt):\n"
        "    q = pkt\n"
        "    if pkt.ttl > LIMIT:\n"
        "        q.dport = 7\n"
        "    else:\n"
        "        q.dport = 9\n"
        "    send_packet(pkt)"
    ),
    "callee_forks_then_writes": _aliasing_nf(
        "def mark(p):\n"
        "    if p.ttl > LIMIT:\n"
        "        p.dport = 7\n"
        "    else:\n"
        "        p.dport = 9\n\n"
        "def cb(pkt):\n"
        "    mark(pkt)\n"
        "    send_packet(pkt)"
    ),
}


class TestAliasedStores:
    @pytest.mark.parametrize("name", sorted(ALIASED_STORES))
    def test_model_equals_program(self, name):
        config = NFactorConfig(artifact_cache=False)
        result = NFactor(ALIASED_STORES[name], name=name, config=config).synthesize()
        report = differential_test(result, n_packets=200, seed=7)
        assert report.identical, report.summary()
