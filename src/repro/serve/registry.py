"""Versioned model registry — the hot-swap half of ``repro watch``.

One per :class:`repro.serve.server.Server`.  ``POST /v1/reload``
registers a (name, source, entry) target here; from then on any
``{"nf": name}`` request body is rewritten *at admission* — on the
single-threaded event loop, before the job enters the queue — to carry
the registered source and version.  The flip is therefore atomic per
request: a job admitted before a reload keeps the body (and version) it
was admitted with and drains naturally on the old model, a job admitted
after carries the new one, and no request can observe a half-applied
swap.  Workers stay stateless: they synthesize whatever source the body
names, served from the artifact cache the watch daemon pushed into
before asking for the flip.

Registered names shadow the static corpus (``repro.nfs``) for resolved
ops; unknown names still fall through to the worker-side corpus lookup.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import cache as artifact_cache

#: Ops whose bodies name a synthesis target the registry may rewrite.
RESOLVED_OPS = frozenset({"synthesize", "simulate", "testgen"})


@dataclass(frozen=True)
class ModelVersion:
    """One registered (immutable) version of one target."""

    name: str
    version: int
    source: str
    entry: Optional[str]
    #: Model-tier key the default config derives for this source — what
    #: the watch daemon pushes, and what operators compare to confirm a
    #: swap landed.
    model_key: str
    #: Fingerprint of the frontend key material (function-level units).
    fingerprint: str
    loaded_at: float
    note: str = ""

    def summary(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "entry": self.entry,
            "model_key": self.model_key,
            "fingerprint": self.fingerprint,
            "loaded_at": round(self.loaded_at, 3),
            "note": self.note,
        }


class ModelRegistry:
    """Thread-safe name → version history map with atomic current-flips."""

    def __init__(self, history: int = 8) -> None:
        self._lock = threading.Lock()
        self._history = max(1, history)
        self._targets: Dict[str, List[ModelVersion]] = {}

    def load(
        self,
        name: str,
        source: str,
        entry: Optional[str] = None,
        note: str = "",
    ) -> Tuple[ModelVersion, bool]:
        """Register a version; returns ``(version, updated)``.

        Re-registering the current source verbatim is idempotent — the
        existing version is returned and nothing flips — so a restarted
        watch daemon's baseline push never churns version numbers.
        """
        from repro.nfactor.algorithm import NFactorConfig, _model_key

        material = artifact_cache.frontend_key_material(source, name, entry)
        fingerprint = artifact_cache.stable_fingerprint(material)
        with self._lock:
            versions = self._targets.setdefault(name, [])
            if versions and versions[-1].fingerprint == fingerprint:
                return versions[-1], False
            mv = ModelVersion(
                name=name,
                version=versions[-1].version + 1 if versions else 1,
                source=source,
                entry=entry,
                model_key=_model_key(source, name, entry, NFactorConfig()),
                fingerprint=fingerprint,
                loaded_at=time.time(),
                note=note,
            )
            versions.append(mv)
            del versions[: -self._history]
            return mv, True

    def current(self, name: str) -> Optional[ModelVersion]:
        with self._lock:
            versions = self._targets.get(name)
            return versions[-1] if versions else None

    def resolve(self, op: str, body: Dict[str, Any]) -> Dict[str, Any]:
        """Rewrite a ``{"nf": name}`` body to the registered source.

        Bodies carrying explicit ``source`` and ops without a synthesis
        target pass through untouched.  The returned body is always a
        fresh dict when rewritten (the caller may have aliased it).
        """
        if op not in RESOLVED_OPS or body.get("source") is not None:
            return body
        target = body.get("nf")
        if not isinstance(target, str):
            return body
        mv = self.current(target)
        if mv is None:
            return body
        body = dict(body)
        body.pop("nf", None)
        body["source"] = mv.source
        body["name"] = target
        body["entry"] = mv.entry
        body["model_version"] = mv.version
        return body

    def versions(self) -> Dict[str, Dict[str, Any]]:
        """Current version summaries by name (the ``/healthz`` view)."""
        with self._lock:
            return {
                name: versions[-1].summary()
                for name, versions in self._targets.items()
                if versions
            }

    def history(self, name: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [mv.summary() for mv in self._targets.get(name, [])]
