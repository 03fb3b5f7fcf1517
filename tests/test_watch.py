"""The watch loop (docs/internals.md §15): function-level fingerprints,
the polling watcher, the ``model.diff`` changelog, the rebuild daemon
and the serve-tier zero-downtime hot-swap."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import cache as artifact_cache
from repro.cli import _watch_line
from repro.model.diff import model_changelog
from repro.nfactor.algorithm import NFactorConfig, synthesize_model_cached
from repro.watch import SourceWatcher, WatchDaemon, WatchOptions, parse_target

MULTI = '''LIMIT = 10

def helper(pkt):
    return pkt.dport + 1

def h_main(pkt):
    if helper(pkt) > LIMIT:
        send_packet(pkt)

def h_aux(pkt):
    if pkt.sport == 53:
        send_packet(pkt)

if __name__ == "__main__":
    pass
'''


# -- function-level source units ---------------------------------------------


class TestSourceUnits:
    def test_units_restricted_to_reachable(self):
        units = artifact_cache.source_units(MULTI, "h_aux")
        names = [u[1] for u in units if u[0] == "fn"]
        assert names == ["h_aux"]  # helper/h_main are unreachable

    def test_edit_to_unreachable_fn_keeps_material(self):
        edited = MULTI.replace("> LIMIT", ">= LIMIT")
        assert artifact_cache.frontend_key_material(
            MULTI, "x", "h_aux"
        ) == artifact_cache.frontend_key_material(edited, "x", "h_aux")
        assert artifact_cache.frontend_key_material(
            MULTI, "x", "h_main"
        ) != artifact_cache.frontend_key_material(edited, "x", "h_main")

    def test_transitive_helper_edit_invalidates_caller(self):
        edited = MULTI.replace("+ 1", "+ 2")
        assert artifact_cache.frontend_key_material(
            MULTI, "x", "h_main"
        ) != artifact_cache.frontend_key_material(edited, "x", "h_main")

    def test_module_body_edit_invalidates_every_target(self):
        edited = MULTI.replace("LIMIT = 10", "LIMIT = 11")
        for entry in ("h_main", "h_aux"):
            assert artifact_cache.frontend_key_material(
                MULTI, "x", entry
            ) != artifact_cache.frontend_key_material(edited, "x", entry)

    def test_comment_and_main_guard_edits_are_invisible(self):
        commented = MULTI.replace("def h_aux", "# tweak\ndef h_aux")
        guarded = MULTI.replace("    pass", "    h_main(None)")
        for entry in ("h_main", "h_aux"):
            base = artifact_cache.frontend_key_material(MULTI, "x", entry)
            assert artifact_cache.frontend_key_material(
                commented, "x", entry
            ) == base
            assert artifact_cache.frontend_key_material(guarded, "x", entry) == base

    def test_sniff_callback_pins_entry_without_explicit_entry(self):
        src = MULTI.replace('if __name__', 'sniff("eth0", h_aux)\n\nif __name__')
        units = artifact_cache.source_units(src, None)
        names = [u[1] for u in units if u[0] == "fn"]
        assert names == ["h_aux"]

    def test_unknown_entry_falls_back_to_all_functions(self):
        units = artifact_cache.source_units(MULTI, None)
        names = [u[1] for u in units if u[0] == "fn"]
        assert names == ["helper", "h_main", "h_aux"]

    def test_syntax_error_falls_back_to_whole_source(self):
        broken = MULTI + "\ndef oops(:\n"
        assert artifact_cache.source_units(broken, "h_aux") == (
            ("source", broken),
        )

    def test_changed_units_names_the_edited_handler(self):
        edited = MULTI.replace("== 53", "== 123")
        assert artifact_cache.changed_units(MULTI, edited) == ["fn:h_aux"]
        assert artifact_cache.changed_units(MULTI, MULTI) == []


# -- incremental invalidation through the artifact cache ----------------------


class TestIncrementalCache:
    def test_sibling_edit_is_a_model_tier_hit_and_byte_identical(self, tmp_path):
        with artifact_cache.override(
            directory=str(tmp_path / "cache"), enabled=True
        ):
            cold = synthesize_model_cached(MULTI, name="m", entry="h_aux")
            assert not cold.cached
            edited = MULTI.replace("> LIMIT", ">= LIMIT")  # h_main only
            warm = synthesize_model_cached(edited, name="m", entry="h_aux")
            assert warm.cached
        # Acceptance: the incremental path changes nothing but speed —
        # the cached hit is byte-identical to a fresh batch synthesis
        # of the edited source.
        fresh = synthesize_model_cached(
            edited, name="m", entry="h_aux",
            config=NFactorConfig(artifact_cache=False),
        )
        assert warm.model_json == fresh.model_json

    def test_edited_target_is_a_miss(self, tmp_path):
        with artifact_cache.override(
            directory=str(tmp_path / "cache"), enabled=True
        ):
            synthesize_model_cached(MULTI, name="m", entry="h_main")
            edited = MULTI.replace("> LIMIT", ">= LIMIT")
            assert not synthesize_model_cached(
                edited, name="m", entry="h_main"
            ).cached

    def test_per_kind_miss_counters(self, tmp_path):
        with artifact_cache.override(
            directory=str(tmp_path / "cache"), enabled=True
        ):
            store = artifact_cache.get_store()
            key = artifact_cache.artifact_key("model", ("absent",))
            assert store.get_object("model", key) is None
            assert store.counters.get("kind.model.misses") == 1
            store.put_object("model", key, "value")
            assert store.get_object("model", key) == "value"
            assert store.counters.get("kind.model.hits") == 1


# -- the polling watcher ------------------------------------------------------


class TestSourceWatcher:
    def test_register_then_quiet_poll(self, tmp_path):
        path = tmp_path / "nf.py"
        path.write_text(MULTI)
        watcher = SourceWatcher()
        assert watcher.register(str(path)) == MULTI
        assert watcher.poll() == []

    def test_touch_without_content_change_is_quiet(self, tmp_path):
        path = tmp_path / "nf.py"
        path.write_text(MULTI)
        watcher = SourceWatcher()
        watcher.register(str(path))
        path.write_text(MULTI)  # new mtime, same content
        assert watcher.poll() == []

    def test_content_change_is_reported_once(self, tmp_path):
        path = tmp_path / "nf.py"
        path.write_text(MULTI)
        watcher = SourceWatcher()
        watcher.register(str(path))
        edited = MULTI.replace("== 53", "== 99")
        path.write_text(edited)
        changes = watcher.poll()
        assert len(changes) == 1 and changes[0].source == edited
        assert watcher.poll() == []


# -- model.diff changelog edge cases (satellite) ------------------------------


def _entry(eid, flow="dport == 80", aflow="send(f)", astate="*", drops=False):
    return {
        "entry_id": eid, "path_id": eid,
        "match": {"flow": flow, "state": "*"},
        "action": {"flow": aflow, "state": astate},
        "drops": drops,
    }


def _model(entries, config="*", name="m"):
    return {
        "name": name, "default_action": "drop", "variables": {},
        "tables": [{"config": config, "entries": entries}],
    }


class TestModelChangelog:
    def test_reorder_only_is_empty(self):
        a = _model([_entry(1), _entry(2, flow="dport == 22")])
        b = _model([_entry(2, flow="dport == 22"), _entry(1)])
        log = model_changelog(a, b)
        assert log.empty and log.unchanged == 2

    def test_guard_identical_action_change(self):
        a = _model([_entry(1)])
        b = _model([_entry(1, aflow="drop", drops=True)])
        log = model_changelog(a, b)
        assert [e.kind for e in log.changed] == ["changed"]
        assert not log.added and not log.removed
        # guard untouched: only action-side fields appear in the delta
        assert set(log.changed[0].fields) == {"action.flow", "drops"}

    def test_same_entry_id_across_tables_is_add_plus_remove(self):
        old = _model([_entry(3)], config="*")
        new = _model([_entry(3)], config="state[k] == 1")
        log = model_changelog(old, new)
        assert [(e.kind, e.config, e.entry_id) for e in log.added] == [
            ("added", "state[k] == 1", 3)
        ]
        assert [(e.kind, e.config, e.entry_id) for e in log.removed] == [
            ("removed", "*", 3)
        ]
        assert not log.changed

    def test_json_is_stable_and_sorted(self):
        a = _model([_entry(1), _entry(2, flow="dport == 22")])
        b = _model([_entry(2, flow="dport == 23"), _entry(9, flow="x == 1")])
        first = model_changelog(a, b).to_json()
        second = model_changelog(a, b).to_json()
        assert first == second
        decoded = json.loads(first)
        assert set(decoded) == {"added", "removed", "changed", "name", "unchanged"}

    def test_accepts_json_strings(self):
        a = _model([_entry(1)])
        log = model_changelog(json.dumps(a), json.dumps(a))
        assert log.empty and log.unchanged == 1


# -- the daemon ---------------------------------------------------------------


class TestWatchDaemon:
    def test_parse_target(self, tmp_path):
        t = parse_target(str(tmp_path / "nf.py") + ":h_main")
        assert t.entry == "h_main" and t.name == "nf.h_main"
        t = parse_target(str(tmp_path / "nf.py"))
        assert t.entry is None and t.name == "nf"

    def test_edit_rebuilds_only_the_touched_target(self, tmp_path):
        path = tmp_path / "nf.py"
        path.write_text(MULTI)
        events = []
        with artifact_cache.override(
            directory=str(tmp_path / "cache"), enabled=True
        ):
            daemon = WatchDaemon(
                [
                    parse_target(f"{path}:h_main"),
                    parse_target(f"{path}:h_aux"),
                ],
                WatchOptions(),
                emit=events.append,
            )
            base = daemon.baseline()
            assert [e["event"] for e in base] == ["rebuild", "rebuild"]
            assert all(e["reason"] == "baseline" for e in base)
            assert daemon.poll_once() == []  # quiet poll
            path.write_text(MULTI.replace("> LIMIT", ">= LIMIT"))
            events.clear()
            evs = daemon.poll_once()
            by_name = {e["name"]: e for e in evs}
            assert by_name["nf.h_main"]["event"] == "rebuild"
            assert by_name["nf.h_main"]["changed"] == ["fn:h_main"]
            assert not by_name["nf.h_main"]["cached"]
            assert by_name["nf.h_main"]["tiers"]["model"]["misses"] == 1
            assert by_name["nf.h_aux"]["event"] == "skip"
            assert by_name["nf.h_aux"]["changed"] == ["fn:h_main"]

    def test_rebuild_event_carries_the_diff(self, tmp_path):
        path = tmp_path / "nf.py"
        path.write_text(MULTI)
        with artifact_cache.override(
            directory=str(tmp_path / "cache"), enabled=True
        ):
            daemon = WatchDaemon([parse_target(f"{path}:h_aux")], WatchOptions())
            daemon.baseline()
            path.write_text(MULTI.replace("== 53", "== 99"))
            (event,) = daemon.poll_once()
        assert event["event"] == "rebuild" and event["reason"] == "edit"
        assert event["diff"]["changed"], event
        assert event["diff_summary"]


# -- serve-tier hot-swap ------------------------------------------------------

V1 = '''def handler(pkt):
    if pkt.dport == 80:
        send_packet(pkt)

sniff("eth0", handler)
'''
V2 = V1.replace("== 80", "== 23")


@pytest.fixture(scope="module")
def serve_handle(tmp_path_factory):
    from repro.serve.server import ServeConfig, ServerHandle

    cache_dir = tmp_path_factory.mktemp("shard-cache")
    handle = ServerHandle(
        ServeConfig(port=0, workers=2, cache_dir=str(cache_dir))
    )
    handle.start()
    yield handle
    handle.stop()


class TestHotSwap:
    def test_reload_registers_and_flips_versions(self, serve_handle):
        from repro.serve.client import ServeClient

        client = ServeClient("127.0.0.1", serve_handle.port)
        assert client.wait_until_up()
        first = client.reload("swapnf", V1).raise_for_status().result
        assert first["version"] == 1 and first["updated"]
        again = client.reload("swapnf", V1).raise_for_status().result
        assert again["version"] == 1 and not again["updated"]  # idempotent
        out = client.simulate(
            nf="swapnf", packets=[{"dport": 80}, {"dport": 23}]
        ).raise_for_status().result
        assert out["model_version"] == 1
        assert [o["forwarded"] for o in out["outputs"]] == [True, False]
        flipped = client.reload("swapnf", V2).raise_for_status().result
        assert flipped["version"] == 2 and flipped["updated"]
        out = client.simulate(
            nf="swapnf", packets=[{"dport": 80}, {"dport": 23}]
        ).raise_for_status().result
        assert out["model_version"] == 2
        assert [o["forwarded"] for o in out["outputs"]] == [False, True]
        # satellite: healthz/ServeClient expose the loaded versions
        assert client.models()["swapnf"]["version"] == 2
        health = client.healthz().result
        assert health["models"]["swapnf"]["model_key"] == flipped["model_key"]

    def test_reload_validates_body(self, serve_handle):
        from repro.serve.client import ServeClient

        client = ServeClient("127.0.0.1", serve_handle.port)
        assert client.reload("", V1).status == 400
        response = client.request("POST", "/v1/reload", {"name": "x"})
        assert response.status == 400

    def test_hot_swap_zero_downtime_with_clean_boundary(self, serve_handle):
        """Streams requests through a reload: zero errors, and every
        response's behaviour matches the version it reports, with each
        stream seeing a monotonic old→new version flip."""
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient("127.0.0.1", serve_handle.port)
        assert client.wait_until_up()
        assert client.reload("streamnf", V1).raise_for_status().result[
            "version"
        ] == 1
        # Warm v1 so the streamers start from steady state.
        client.simulate(nf="streamnf", packets=[{"dport": 80}]).raise_for_status()

        errors: list = []
        streams: list = [[] for _ in range(2)]
        stop = threading.Event()

        def stream(bucket):
            worker = ServeClient("127.0.0.1", serve_handle.port)
            while not stop.is_set():
                try:
                    r = worker.simulate(nf="streamnf", packets=[{"dport": 80}])
                except ServeError as exc:  # pragma: no cover - fails the test
                    errors.append(repr(exc))
                    return
                result = r.result or {}
                bucket.append(
                    (
                        r.status,
                        result.get("model_version"),
                        result["outputs"][0]["forwarded"]
                        if r.status == 200
                        else None,
                    )
                )

        threads = [
            threading.Thread(target=stream, args=(bucket,)) for bucket in streams
        ]
        for t in threads:
            t.start()
        time.sleep(0.4)
        flip = client.reload("streamnf", V2).raise_for_status().result
        assert flip["version"] == 2
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline and not all(
            any(v == 2 for _, v, _ in bucket) for bucket in streams
        ):
            time.sleep(0.05)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)

        assert not errors
        all_rows = [row for bucket in streams for row in bucket]
        assert all_rows
        # zero dropped/failed requests across the swap
        assert {status for status, _, _ in all_rows} == {200}
        # behaviour matches the reported version on every response:
        # v1 forwards dport 80, v2 drops it — a torn swap would mismatch
        for status, version, forwarded in all_rows:
            assert forwarded == (version == 1), (status, version, forwarded)
        for bucket in streams:
            versions = [v for _, v, _ in bucket]
            assert versions == sorted(versions)  # clean monotonic boundary
            assert versions[0] == 1 or 1 not in versions
        assert any(2 in [v for _, v, _ in bucket] for bucket in streams)

    def test_watch_daemon_pushes_and_swaps_shard(self, serve_handle, tmp_path):
        """The push path: artifacts land in the server's CAS before the
        reload flips it; each push result names its server."""
        from repro.serve.client import ServeClient

        path = tmp_path / "pushnf.py"
        path.write_text(V1)
        events = []
        with artifact_cache.override(
            directory=str(tmp_path / "daemon-cache"), enabled=True
        ):
            daemon = WatchDaemon(
                [parse_target(str(path))],
                WatchOptions(serve=(("127.0.0.1", serve_handle.port),)),
                emit=events.append,
            )
            (base,) = daemon.baseline()
            server = f"127.0.0.1:{serve_handle.port}"
            assert base["serve"][0]["server"] == server
            assert f"{server} v1" in _watch_line(base)  # the CLI printer
            assert base["serve"][0]["status"] == 200
            assert base["serve"][0]["version"] == 1
            assert base["serve"][0]["pushed"] >= 4  # frontend/prep/slices/model/sim
            path.write_text(V2)
            (rebuild,) = daemon.poll_once()
            assert rebuild["serve"][0]["version"] == 2
        client = ServeClient("127.0.0.1", serve_handle.port)
        out = client.simulate(
            nf="pushnf", packets=[{"dport": 23}]
        ).raise_for_status().result
        assert out["model_version"] == 2
        assert out["outputs"][0]["forwarded"]
