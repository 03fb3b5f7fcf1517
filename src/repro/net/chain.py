"""Concrete service-chain execution.

The composition application (:mod:`repro.apps.compose`) reasons about
NF orders *statically* from models; this module provides the concrete
counterpart: wire NF instances — reference interpreters or model
simulators, freely mixed — into a pipeline and push packets through,
observing what each hop does.  It closes the loop on composition
decisions: the order the analyzer recommends can be *executed* and
compared against the rejected orders on real workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.net.packet import Packet


class PacketProcessor(Protocol):
    """Anything that maps a packet to zero or more output packets."""

    def __call__(self, pkt: Packet) -> List[Tuple[Packet, Optional[int]]]: ...


@dataclass
class HopRecord:
    """What one NF did to the packets that reached it.

    A hop downstream of a flooding NF receives several packets;
    ``packets_in`` records them all.
    """

    nf: str
    packets_in: List[Packet]
    packets_out: List[Packet]

    @property
    def dropped(self) -> bool:
        return not self.packets_out


@dataclass
class ChainTrace:
    """The journey of one input packet through the chain."""

    hops: List[HopRecord] = field(default_factory=list)

    @property
    def delivered(self) -> List[Packet]:
        """Packets that made it out of the last hop."""
        return self.hops[-1].packets_out if self.hops else []

    @property
    def dropped_at(self) -> Optional[str]:
        """Name of the NF that dropped the packet (None if delivered)."""
        for hop in self.hops:
            if hop.dropped:
                return hop.nf
        return None


class ServiceChain:
    """An ordered pipeline of packet processors."""

    def __init__(self, hops: Sequence[Tuple[str, PacketProcessor]]) -> None:
        self.hops = list(hops)
        self.stats: Dict[str, int] = {name: 0 for name, _ in self.hops}

    @classmethod
    def of_references(cls, results: Sequence) -> "ServiceChain":
        """A chain of reference interpreters from synthesis results."""
        hops = []
        for result in results:
            interp = result.make_reference()
            hops.append((result.model.name, interp.process_packet))
        return cls(hops)

    @classmethod
    def of_simulators(
        cls, results: Sequence, compiled: bool = False
    ) -> "ServiceChain":
        """A chain of model simulators from synthesis results.

        ``compiled=True`` runs every hop through the model compiler
        (:mod:`repro.model.compile`) instead of the interpreted
        simulator — identical outcomes, faster packets.
        """
        hops = []
        for result in results:
            sim = (
                result.make_compiled_simulator()
                if compiled
                else result.make_simulator()
            )
            hops.append((result.model.name, sim.process))
        return cls(hops)

    def process(self, pkt: Packet) -> ChainTrace:
        """Push one packet through the chain, recording every hop.

        An NF may emit several packets (flooding); each is fed to the
        next hop and the hop record aggregates the outputs.
        """
        trace = ChainTrace()
        current: List[Packet] = [pkt]
        for name, processor in self.hops:
            emitted: List[Packet] = []
            for p in current:
                for out_pkt, _port in processor(p.copy()):
                    emitted.append(out_pkt)
            trace.hops.append(
                HopRecord(nf=name, packets_in=list(current),
                          packets_out=list(emitted))
            )
            if emitted:
                self.stats[name] = self.stats.get(name, 0) + 1
            current = emitted
            if not current:
                break
        return trace

    def run(self, packets: Sequence[Packet]) -> List[ChainTrace]:
        """Process a workload; returns one trace per input packet."""
        return [self.process(pkt) for pkt in packets]

    def delivery_rate(self, packets: Sequence[Packet]) -> float:
        """Fraction of the workload delivered end to end."""
        traces = self.run(packets)
        if not traces:
            return 0.0
        return sum(1 for t in traces if t.delivered) / len(traces)
