"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import load_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLoadSpec:
    def test_corpus_name(self):
        spec = load_spec("monitor")
        assert spec.name == "monitor"

    def test_source_file(self, tmp_path):
        path = tmp_path / "mynf.py"
        path.write_text("def cb(pkt):\n    send_packet(pkt)\n")
        spec = load_spec(str(path), entry="cb")
        assert spec.name == "mynf"
        assert spec.entry == "cb"

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            load_spec("does-not-exist")


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "loadbalancer" in out and "snortlite" in out

    def test_show(self, capsys):
        code, out = run_cli(capsys, "show", "monitor")
        assert code == 0
        assert "def monitor_handler" in out

    def test_synthesize_table(self, capsys):
        code, out = run_cli(capsys, "synthesize", "monitor", "--stats")
        assert code == 0
        assert "default action: drop" in out
        assert "paths" in out

    def test_synthesize_json(self, capsys):
        code, out = run_cli(capsys, "synthesize", "monitor", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "monitor"

    def test_synthesize_user_file(self, capsys, tmp_path):
        path = tmp_path / "drop80.py"
        path.write_text(
            "def cb(pkt):\n"
            "    if pkt.dport == 80:\n"
            "        return\n"
            "    send_packet(pkt)\n"
        )
        code, out = run_cli(capsys, "synthesize", str(path), "--entry", "cb")
        assert code == 0
        assert "pkt.dport" in out

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_parallel_paths_below_one_is_rejected(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", "monitor", "--parallel-paths", bad])
        assert excinfo.value.code == 2
        assert "argument --parallel-paths: parallel_paths must be >= 1" in (
            capsys.readouterr().err
        )

    def test_parallel_paths_same_model(self, capsys):
        _, sequential = run_cli(capsys, "--no-cache", "synthesize", "nat", "--json")
        code, parallel = run_cli(
            capsys, "--no-cache", "synthesize", "nat", "--json", "--parallel-paths", "2"
        )
        assert code == 0
        assert parallel == sequential

    def test_slice(self, capsys):
        code, out = run_cli(capsys, "slice", "loadbalancer")
        assert code == 0
        assert ">> " in out
        # log updates are not highlighted
        for line in out.splitlines():
            if "pass_stat += 1" in line:
                assert not line.startswith(">>")

    def test_categories(self, capsys):
        code, out = run_cli(capsys, "categories", "loadbalancer")
        assert code == 0
        assert "oisVar" in out and "f2b_nat" in out

    def test_difftest_pass(self, capsys):
        code, out = run_cli(capsys, "difftest", "monitor", "-n", "50")
        assert code == 0
        assert "IDENTICAL" in out

    def test_testgen(self, capsys):
        code, out = run_cli(capsys, "testgen", "loadbalancer")
        assert code == 0
        assert "match the NF behaviour" in out

    def test_fsm_text_and_dot(self, capsys):
        code, out = run_cli(capsys, "fsm", "loadbalancer")
        assert code == 0
        assert "f2b_nat" in out
        code, out = run_cli(capsys, "fsm", "loadbalancer", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_workload(self, capsys, tmp_path):
        path = tmp_path / "w.pcap"
        code, out = run_cli(capsys, "workload", "monitor", str(path), "-n", "20")
        assert code == 0
        from repro.net.pcap import read_pcap

        assert len(read_pcap(path)) >= 20

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        import repro

        assert repro.__version__ in out

    def test_profile_subcommand(self, capsys):
        code, out = run_cli(capsys, "profile", "nat")
        assert code == 0
        assert "Per-phase profile" in out
        for phase in (
            "parse", "normalize", "flatten", "pdg",
            "slice", "classify", "symbolic", "refactor",
        ):
            assert phase in out
        assert "se.explore" in out
        assert "solver.checks" in out

    def test_trace_flag_writes_valid_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, "--trace", str(out_path), "synthesize", "monitor")
        assert code == 0
        events = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert events
        ends = [e for e in events if e["ev"] == "E"]
        assert ends and all("dur" in e and e["dur"] >= 0.0 for e in ends)
        names = {e["name"] for e in events}
        assert "phase.symbolic" in names and "se.explore" in names
        # every end matches a start of the same span id
        begins = {e["span"] for e in events if e["ev"] == "B"}
        assert {e["span"] for e in ends} == begins

    def test_profile_flag_appends_table(self, capsys):
        code, out = run_cli(capsys, "--profile", "synthesize", "monitor")
        assert code == 0
        assert "default action" in out  # the command's own output first
        assert "Per-phase profile" in out

    def test_observer_uninstalled_after_run(self, capsys):
        from repro import obs

        run_cli(capsys, "--profile", "synthesize", "monitor")
        assert obs.trace.active() is None
        assert not obs.metrics.active().enabled


class TestServeSurface:
    def test_one_way_to_launch_a_server(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--cache-dir" in out
        for gone in ("--cluster", "--join", "--no-warmup"):
            assert gone not in out
        with pytest.raises(SystemExit) as excinfo:
            main(["route", "--shards", "127.0.0.1:8001"])
        assert excinfo.value.code == 2  # argparse: no such subcommand


class TestWatchServeFlag:
    NF = "def cb(pkt):\n    send_packet(pkt)\n\nsniff('eth0', cb)\n"

    @pytest.mark.parametrize(
        "bad, entry",
        [
            ("localhost8000", "localhost8000"),
            ("127.0.0.1:8000,junk", "junk"),
            ("127.0.0.1:8000,,127.0.0.1:8001", ""),
            (":8000", ":8000"),
            ("host:0", "host:0"),
            ("host:65536", "host:65536"),
            ("host:http", "host:http"),
        ],
    )
    def test_malformed_server_is_an_error_naming_it(self, tmp_path, bad, entry):
        path = tmp_path / "nf.py"
        path.write_text(self.NF)
        with pytest.raises(SystemExit) as excinfo:
            main(["--no-cache", "watch", str(path), "--once", "--serve", bad])
        assert f"entry {entry!r}" in str(excinfo.value.code)

    def test_parse_servers(self):
        from repro.cli import parse_servers

        assert parse_servers("127.0.0.1:8000, example.org:9") == (
            ("127.0.0.1", 8000), ("example.org", 9),
        )
