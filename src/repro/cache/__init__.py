"""Persistent content-addressed artifact cache (``repro.cache``).

A two-tier store — in-memory LRU over an on-disk content-addressed
directory — that makes re-synthesis of an unchanged NF near-instant
across *processes*, the way ccache makes unchanged compilation free:

- the synthesis pipeline memoizes its phases (frontend IR, PDG +
  slices, the final model) as artifacts keyed by BLAKE2 digests of
  ``(kind, input content, config fingerprint, schema version)`` —
  see :mod:`repro.nfactor.algorithm`;
- the solver's constraint cache persists through the same store
  (load-on-first-miss, write-behind flush) — see
  :mod:`repro.symbolic.solver`;
- ``repro batch`` workers share one cache directory; atomic
  rename-based writes make concurrent writers safe without locks.

Knobs: the ``REPRO_CACHE_DIR`` env var (default ``~/.cache/repro``),
``REPRO_CACHE=off`` / the CLI ``--no-cache`` flag, and programmatic
:func:`configure` / :func:`override`.

The non-negotiable invariant: cached and uncached runs produce
byte-identical serialized models, and an unreadable, corrupt or stale
entry is silently a miss.  The cache changes *when* work happens,
never *what* is computed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.cache.keys import (
    SCHEMA_VERSION,
    artifact_key,
    changed_units,
    frontend_key_material,
    source_units,
    stable_fingerprint,
)
from repro.cache.store import (
    ArtifactStore,
    configure,
    default_directory,
    get_store,
    store_token,
)
from repro.cache import store as _store_mod

__all__ = [
    "SCHEMA_VERSION",
    "ArtifactStore",
    "artifact_key",
    "changed_units",
    "configure",
    "default_directory",
    "frontend_key_material",
    "get_store",
    "is_enabled",
    "override",
    "source_units",
    "stable_fingerprint",
    "store_token",
]


def is_enabled() -> bool:
    """Whether the ambient store currently has a live disk tier."""
    return get_store().enabled


@contextmanager
def override(
    directory: Any = _store_mod._UNSET,
    enabled: Optional[bool] = None,
) -> Iterator[None]:
    """Temporarily reconfigure the ambient store (restores on exit).

    Used by the CLI ``--no-cache`` flag (``override(enabled=False)``)
    and by tests/benchmarks that pin a private cache directory.
    """
    prev_dir = _store_mod._override_dir
    prev_enabled = _store_mod._override_enabled
    configure(directory=directory, enabled=enabled)
    try:
        yield
    finally:
        with _store_mod._config_lock:
            _store_mod._override_dir = prev_dir
            _store_mod._override_enabled = prev_enabled
            _store_mod._store = None
            _store_mod._store_key = None
