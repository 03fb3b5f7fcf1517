"""The watch daemon: edit → fingerprint → rebuild → diff → hot-swap.

One :class:`WatchDaemon` owns a set of :class:`WatchTarget`\\ s (several
may share one source file — a multi-handler NF is one file, many
targets).  On a file change, each target's *function-level* frontend
key material is recomputed: targets whose reachable units are untouched
are skipped outright (the edit cannot affect their artifacts — the key
they would derive is unchanged), the rest re-synthesize through the
artifact cache, get a ``model.diff`` changelog against their previous
model, and are pushed to every configured server — artifacts first
(``PUT /cas``), ``/v1/reload`` flip second, so the server's next
request for the target is a warm cache hit on the new version.

Every rebuild/skip emits one structured event dict through the
``emit`` callback (the CLI prints them as JSON lines or human text).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import cache as artifact_cache
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.watch.watcher import SourceChange, SourceWatcher, WatchTarget

#: Cache tiers reported per rebuild (and pushed to servers, minus the
#: in-process-only compiled memo which never leaves a worker).
TIER_KINDS = ("frontend", "prep", "slices", "model", "sim")

log = obs_log.get_logger("repro.watch")


@dataclass(frozen=True)
class WatchOptions:
    """Daemon knobs (the ``repro watch`` flags)."""

    interval_s: float = 0.5
    #: Servers to hot-swap, as (host, port) pairs.
    serve: Tuple[Tuple[str, int], ...] = ()
    #: Push rebuilt artifacts into servers before flipping.
    push_artifacts: bool = True


class WatchDaemon:
    """The rebuild loop; see the module docstring."""

    def __init__(
        self,
        targets: Sequence[WatchTarget],
        options: Optional[WatchOptions] = None,
        emit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if not targets:
            raise ValueError("repro watch needs at least one target")
        self.targets = list(targets)
        self.options = options or WatchOptions()
        self._emit = emit or (lambda event: None)
        self.watcher = SourceWatcher()
        #: target label -> {"source", "material", "model_json"}
        self._state: Dict[str, Dict[str, Any]] = {}
        self.rebuilds = 0
        self.polls = 0

    # -- lifecycle -----------------------------------------------------------

    def baseline(self) -> List[Dict[str, Any]]:
        """Initial build+push of every target (version 1 on the servers)."""
        sources: Dict[str, str] = {}
        for target in self.targets:
            if target.path not in sources:
                sources[target.path] = self.watcher.register(target.path)
        return [
            self._rebuild(target, sources[target.path], reason="baseline")
            for target in self.targets
        ]

    def poll_once(self) -> List[Dict[str, Any]]:
        """One watcher poll; returns the events it emitted."""
        self.polls += 1
        obs_metrics.counter("watch.polls").inc()
        events: List[Dict[str, Any]] = []
        for change in self.watcher.poll():
            for target in self.targets:
                if target.path == change.path:
                    events.append(self._on_change(target, change))
        return events

    def run(self, stop: Any = None) -> None:
        """Baseline, then poll until ``stop`` (a threading.Event) is set."""
        self.baseline()
        while stop is None or not stop.is_set():
            if stop is not None:
                stop.wait(self.options.interval_s)
                if stop.is_set():
                    break
            else:  # pragma: no cover - interactive loop without a stop event
                time.sleep(self.options.interval_s)
            self.poll_once()

    # -- rebuild pipeline ----------------------------------------------------

    def _on_change(
        self, target: WatchTarget, change: SourceChange
    ) -> Dict[str, Any]:
        prev = self._state.get(target.label)
        material = artifact_cache.frontend_key_material(
            change.source, target.name, target.entry
        )
        if prev is not None and prev["material"] == material:
            # The edit touched no unit this target can reach: its keys
            # are unchanged, so every tier would hit.  Skip entirely.
            event = {
                "event": "skip",
                "target": target.label,
                "name": target.name,
                "entry": target.entry,
                "changed": artifact_cache.changed_units(
                    prev["source"], change.source
                ),
            }
            self._emit(event)
            return event
        return self._rebuild(target, change.source, reason="edit")

    def _rebuild(
        self, target: WatchTarget, source: str, reason: str
    ) -> Dict[str, Any]:
        from repro.nfactor.algorithm import (
            synthesize_model_cached,
            target_artifact_keys,
        )

        prev = self._state.get(target.label)
        store = artifact_cache.get_store()
        before = dict(store.counters)
        t0 = time.perf_counter()
        ms = synthesize_model_cached(
            source, name=target.name, entry=target.entry, keep_result=True
        )
        keys = target_artifact_keys(source, target.name, target.entry)
        if ms.result is not None:
            # A fresh synthesis: also materialize the sim-tier bundle
            # locally so servers receive it in the push and their first
            # simulate of the new version is a pure hit.
            store.put_object(
                "sim",
                keys["sim"],
                (ms.result.model, ms.result.module_env, ms.result.pkt_param),
            )
        elapsed_s = time.perf_counter() - t0
        tiers = self._tier_delta(before, dict(store.counters))
        diff = None
        if prev is not None:
            from repro.model.diff import model_changelog

            diff = model_changelog(prev["model_json"], ms.model_json)
        event: Dict[str, Any] = {
            "event": "rebuild",
            "reason": reason,
            "target": target.label,
            "name": target.name,
            "entry": target.entry,
            "cached": ms.cached,
            "elapsed_s": round(elapsed_s, 4),
            "model_key": keys["model"],
            "tiers": tiers,
        }
        if prev is not None:
            event["changed"] = artifact_cache.changed_units(
                prev["source"], source
            )
        if diff is not None:
            event["diff"] = diff.to_dict()
            event["diff_summary"] = diff.summary()
        if self.options.serve:
            event["serve"] = [
                self._push_to_server(host, port, target, source, keys)
                for host, port in self.options.serve
            ]
        self._state[target.label] = {
            "source": source,
            "material": artifact_cache.frontend_key_material(
                source, target.name, target.entry
            ),
            "model_json": ms.model_json,
        }
        self.rebuilds += 1
        obs_metrics.counter("watch.rebuilds").inc()
        self._emit(event)
        return event

    @staticmethod
    def _tier_delta(
        before: Dict[str, int], after: Dict[str, int]
    ) -> Dict[str, Dict[str, int]]:
        """Per-tier hit/miss counts this rebuild added to the store."""
        return {
            kind: {
                "hits": after.get(f"kind.{kind}.hits", 0)
                - before.get(f"kind.{kind}.hits", 0),
                "misses": after.get(f"kind.{kind}.misses", 0)
                - before.get(f"kind.{kind}.misses", 0),
            }
            for kind in TIER_KINDS
        }

    # -- serve push ----------------------------------------------------------

    def _push_to_server(
        self,
        host: str,
        port: int,
        target: WatchTarget,
        source: str,
        keys: Dict[str, str],
    ) -> Dict[str, Any]:
        """Push ``keys`` into one server, then flip it via reload."""
        from repro.serve.client import ServeClient, ServeError

        server = f"{host}:{port}"
        store = artifact_cache.get_store()
        client = ServeClient(host, port)
        pushed = 0
        try:
            if self.options.push_artifacts:
                for kind in TIER_KINDS:
                    framed = store.get_raw(kind, keys[kind])
                    if framed is not None and client.push_artifact(
                        kind, keys[kind], framed
                    ):
                        pushed += 1
            response = client.reload(target.name, source, target.entry)
        except ServeError as exc:
            obs_metrics.counter("watch.push_errors").inc()
            return {"server": server, "error": str(exc), "pushed": pushed}
        finally:
            client.close()
        result = response.result or {}
        out = {
            "server": server,
            "status": response.status,
            "version": result.get("version"),
            "updated": result.get("updated"),
            "pushed": pushed,
        }
        if not response.ok:
            obs_metrics.counter("watch.push_errors").inc()
            out["error"] = response.error_message
        else:
            obs_metrics.counter("watch.pushed_artifacts").inc(pushed)
        return out
