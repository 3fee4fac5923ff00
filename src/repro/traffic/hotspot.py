"""Hotspot traffic (Table 3 of the paper).

Eight persistent flows oversubscribe four endpoint nodes (two flows per
hotspot, as memory-controller traffic would), while every non-participating
node injects uniform-random *background* traffic at a constant rate
(0.3 in the paper's Fig. 9 experiment).  Only the background traffic's
latency is measured — the point of the experiment is how much the hotspot
congestion tree degrades unrelated traffic through HoL blocking.
"""

from __future__ import annotations

import random

from repro.exceptions import TrafficError
from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.injection import bernoulli_generates, sample_packet_size
from repro.traffic.patterns import LookaheadTraffic, pattern_destination


def default_hotspot_flows(mesh: Topology) -> list[tuple[int, int]]:
    """The paper's Table 3 flows, scaled to the mesh size.

    For the 8x8 mesh the flows are exactly Table 3:
    ``n0->n63, n32->n63, n7->n56, n39->n56, n63->n0, n31->n0, n56->n7,
    n24->n7`` — four corner hotspots, each fed by the opposite corner and a
    mid-edge node.  For other sizes the same corner/mid-edge geometry is
    generated from coordinates.
    """
    w, h = mesh.width, mesh.height
    corner_nw = mesh.node_at(0, 0)
    corner_ne = mesh.node_at(w - 1, 0)
    corner_sw = mesh.node_at(0, h - 1)
    corner_se = mesh.node_at(w - 1, h - 1)
    # Mid-west/east edge feeders; for the 8x8 mesh these are exactly the
    # paper's n32 (0,4), n39 (7,4), n31 (7,3) and n24 (0,3).
    edge_w_lo = mesh.node_at(0, h // 2)
    edge_e_lo = mesh.node_at(w - 1, h // 2)
    edge_e_hi = mesh.node_at(w - 1, h // 2 - 1)
    edge_w_hi = mesh.node_at(0, h // 2 - 1)
    # Two flows per hotspot destination.
    return [
        (corner_nw, corner_se),
        (edge_w_lo, corner_se),
        (corner_ne, corner_sw),
        (edge_e_lo, corner_sw),
        (corner_se, corner_nw),
        (edge_e_hi, corner_nw),
        (corner_sw, corner_ne),
        (edge_w_hi, corner_ne),
    ]


class HotspotTraffic(LookaheadTraffic):
    """Persistent hotspot flows plus uniform-random background traffic."""

    def __init__(
        self,
        config: SimulationConfig,
        mesh: Topology,
        rng: random.Random,
        flows: list[tuple[int, int]] | None = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.mesh = mesh
        self.rng = rng
        self.flows = flows if flows is not None else default_hotspot_flows(mesh)
        for src, dst in self.flows:
            if src == dst:
                raise TrafficError(f"degenerate hotspot flow {src}->{dst}")
            mesh.coords(src)
            mesh.coords(dst)
        participants = {s for s, _ in self.flows} | {d for _, d in self.flows}
        self.background_nodes = [
            n for n in range(mesh.num_nodes) if n not in participants
        ]
        self._flow_sources: dict[int, list[int]] = {}
        for src, dst in self.flows:
            self._flow_sources.setdefault(src, []).append(dst)

    def _generate_packets(self, cycle: int) -> list[Packet]:
        packets: list[Packet] = []
        mean_size = self.config.mean_packet_size

        # Hotspot flows: each (src, dst) pair injects at hotspot_rate.
        for src, dsts in self._flow_sources.items():
            for dst in dsts:
                if bernoulli_generates(
                    self.config.hotspot_rate, mean_size, self.rng
                ):
                    packets.append(
                        Packet(
                            src=src,
                            dst=dst,
                            size=sample_packet_size(self.config, self.rng),
                            creation_time=cycle,
                            flow="hotspot",
                            # Hotspot packets never count toward latency:
                            # the paper measures background traffic only.
                            measured=False,
                        )
                    )

        # Background: uniform random from non-participating nodes.
        for src in self.background_nodes:
            if not bernoulli_generates(
                self.config.background_rate, mean_size, self.rng
            ):
                continue
            dst = pattern_destination("uniform", self.mesh, src, self.rng)
            if dst is None:
                continue
            packets.append(
                Packet(
                    src=src,
                    dst=dst,
                    size=sample_packet_size(self.config, self.rng),
                    creation_time=cycle,
                    flow="background",
                    measured=True,
                )
            )
        return packets

    def _idle_thresholds(self) -> list[float]:
        # Flows first, then background nodes; bernoulli_generates draws
        # nothing at rate 0, so those sources drop out.
        mean_size = self.config.mean_packet_size
        thresholds: list[float] = []
        rate = self.config.hotspot_rate
        if rate > 0.0:
            thresholds += [rate / mean_size] * len(self.flows)
        rate = self.config.background_rate
        if rate > 0.0:
            thresholds += [rate / mean_size] * len(self.background_nodes)
        return thresholds
