"""Cold synthesis of corpus NFs into private artifact stores."""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro import cache as artifact_cache
from repro.model import compile as model_compile
from repro.nfactor import algorithm
from repro.nfactor.algorithm import NFactorConfig, SynthesisResult
from repro.nfs import get_nf, nf_names
from repro.net.generator import TrafficGenerator, WorkloadSpec
from repro.net.packet import Packet
from repro.symbolic.solver import clear_global_cache

#: The NF whose symbolic execution dominates a corpus pass; the other
#: eight are the frontend-heavy "small" NFs.
HEAVY = "snortlite"


@dataclass
class Cold:
    """One cold synthesis: source to compiled model."""

    name: str
    result: SynthesisResult
    seconds: float
    #: Artifact-store hits seen during the synthesis (must be zero).
    store_hits: int = 0


def corpus(rng: random.Random) -> List[str]:
    """The corpus NF names in a seeded order."""
    names = nf_names()
    rng.shuffle(names)
    return names


def cold_synthesize(name: str, store_dir: Optional[Path] = None) -> Cold:
    """Synthesize and compile ``name`` from nothing.

    The solver's process-wide constraint cache is cleared first, so no
    answer carries over from an earlier NF or pass.  Without
    ``store_dir`` the artifact cache is off.  With it, the synthesis
    runs against that empty private store, which is removed afterwards,
    and ``store_hits`` counts the store's hits.
    """
    spec = get_nf(name)
    if store_dir is not None:
        artifact_cache.configure(directory=str(store_dir), enabled=True)
    clear_global_cache()
    try:
        t0 = time.perf_counter()
        nfactor = algorithm.NFactor(
            spec.source, name=name, entry=spec.entry,
            config=NFactorConfig(artifact_cache=store_dir is not None),
        )
        result = nfactor.synthesize()
        model_compile.compile_model(result.model, result.module_env, pkt_param=result.pkt_param)
        seconds = time.perf_counter() - t0
        hits = 0
        if store_dir is not None:
            counters = artifact_cache.get_store().counters
            hits = sum(v for k, v in counters.items() if k.endswith("hits"))
    finally:
        if store_dir is not None:
            artifact_cache.configure(enabled=False)
            shutil.rmtree(store_dir, ignore_errors=True)
    return Cold(name, result, seconds, hits)


def trace_packets(name: str, n_packets: int, seed: int) -> List[Packet]:
    """A seeded trace for ``name``: flows plus single packets biased to
    the NF's own configured values."""
    return list(TrafficGenerator(workload_spec(name, n_packets, seed)).packets())


def workload_spec(name: str, n_packets: int, seed: int) -> WorkloadSpec:
    return WorkloadSpec(
        n_packets=n_packets, seed=seed, interesting=get_nf(name).interesting
    )


def nf_seed(rng_seed: int, label: str, name: str) -> int:
    """A per-NF integer seed derived from the run seed."""
    return random.Random(f"{label}:{name}:{rng_seed}").randrange(1 << 30)
