"""Flit and flit-hop accounting (the paper's interconnect-energy metric).

Figure 15 reports "traffic in terms of flits transmitted across all network
hops" as a relative measure of dynamic interconnect energy.  Every message
the protocol engines emit is routed here: its byte size is packetized into
16-byte flits and multiplied by the XY hop count of its route.
"""

from __future__ import annotations

from repro.common.params import NetworkConfig
from repro.interconnect.mesh import MeshTopology


class NetworkAccountant:
    """Accumulates flits, flit-hops, and message latency contributions."""

    def __init__(self, topology: MeshTopology):
        self.topology = topology
        self.config: NetworkConfig = topology.config
        # transfer() runs once per message: bind what it reads once.  Each
        # route is (hops, head latency): the head flit's per-hop (link +
        # router) pipeline plus the destination router.
        self._flit_bytes = self.config.flit_bytes
        per_hop = self.config.link_latency + self.config.router_latency
        self._routes = [[(hops, hops * per_hop + self.config.router_latency)
                         for hops in row] for row in topology.hop_table]
        self.total_flits = 0
        self.total_flit_hops = 0
        self.total_messages = 0
        # Observed messages (installed by the protocol's attach_obs when
        # metrics are on, None otherwise): counts indexed by hop count and
        # by flit count, sized to the mesh diameter and the widest message,
        # and projected into the registry once per run.
        self.obs_hop_counts = None
        self.obs_flit_counts = None

    def flits(self, size_bytes: int) -> int:
        """Number of flits needed for a message of ``size_bytes``."""
        if size_bytes <= 0:
            return 0
        fb = self._flit_bytes
        return (size_bytes + fb - 1) // fb

    def transfer(self, src_node: int, dst_node: int, size_bytes: int) -> int:
        """Record one message on the network; returns its network latency.

        Latency = the route's head latency (per-hop link + router pipeline,
        plus the destination router) plus serialization of the tail flits.
        A self-send (src == dst, e.g. a core whose home tile is its own)
        has no hops: it costs the router traversal and the tail flits, and
        adds no flit-hops.
        """
        fb = self._flit_bytes
        flits = (size_bytes + fb - 1) // fb if size_bytes > 0 else 0
        hops, head = self._routes[src_node][dst_node]
        self.total_messages += 1
        self.total_flits += flits
        self.total_flit_hops += flits * hops
        hop_counts = self.obs_hop_counts
        if hop_counts is not None:
            hop_counts[hops] += 1
            self.obs_flit_counts[flits] += 1
        return head + flits - 1 if flits else head

    def snapshot(self) -> dict:
        return {
            "messages": self.total_messages,
            "flits": self.total_flits,
            "flit_hops": self.total_flit_hops,
        }
