"""Always-on incremental synthesis (``repro watch``) — docs/internals.md §15.

The live loop the batch pipeline grows into: a polling watcher detects
edits to registered NF source files, function-level fingerprints decide
which synthesis targets the edit can actually reach, only those rebuild
(everything else is a pure cache hit), the old and new models are
diffed into a ``model.diff`` changelog, and the fresh artifacts are
pushed into each server (``PUT /cas``) *before* it is asked to hot-swap
via ``POST /v1/reload`` — so the flip is a registry pointer move, never
a cold synthesis in a worker's request path.
"""

from repro.watch.daemon import WatchDaemon, WatchOptions
from repro.watch.watcher import SourceChange, SourceWatcher, WatchTarget, parse_target

__all__ = [
    "SourceChange",
    "SourceWatcher",
    "WatchDaemon",
    "WatchOptions",
    "WatchTarget",
    "parse_target",
]
