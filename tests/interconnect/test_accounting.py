"""Tests for flit and flit-hop accounting."""

from repro.common.params import NetworkConfig
from repro.interconnect.accounting import NetworkAccountant
from repro.interconnect.mesh import MeshTopology


def accountant(**kw):
    return NetworkAccountant(MeshTopology(NetworkConfig(**kw)))


class TestFlits:
    def test_rounding_up(self):
        acc = accountant()
        assert acc.flits(1) == 1
        assert acc.flits(16) == 1
        assert acc.flits(17) == 2
        assert acc.flits(72) == 5

    def test_zero_bytes_zero_flits(self):
        assert accountant().flits(0) == 0

    def test_flit_size_respected(self):
        acc = accountant(flit_bytes=8)
        assert acc.flits(16) == 2


class TestTransfer:
    def test_flit_hops_accumulate(self):
        acc = accountant()
        acc.transfer(0, 3, 16)  # 1 flit x 3 hops
        acc.transfer(0, 15, 32)  # 2 flits x 6 hops
        assert acc.total_flit_hops == 3 + 12
        assert acc.total_flits == 3
        assert acc.total_messages == 2

    def test_self_send_costs_no_hops(self):
        acc = accountant()
        latency = acc.transfer(5, 5, 64)
        assert acc.total_flit_hops == 0
        assert latency >= 1  # router traversal still modelled

    def test_latency_scales_with_distance(self):
        acc = accountant()
        near = acc.transfer(0, 1, 8)
        far = acc.transfer(0, 15, 8)
        assert far > near

    def test_serialization_latency(self):
        acc = accountant()
        small = acc.transfer(0, 1, 16)  # 1 flit
        large = acc.transfer(0, 1, 72)  # 5 flits -> +4 cycles
        assert large == small + 4

    def test_latency_formula(self):
        acc = accountant(link_latency=2, router_latency=1)
        # 3 hops x (2+1) + (1-1) + 1 router = 10
        assert acc.transfer(0, 3, 8) == 10

    def test_snapshot(self):
        acc = accountant()
        acc.transfer(0, 1, 16)
        snap = acc.snapshot()
        assert snap == {"messages": 1, "flits": 1, "flit_hops": 1}


class TestRouteTable:
    """transfer() against the closed form on every route of two meshes."""

    def _check_mesh(self, width, height):
        acc = accountant(mesh_width=width, mesh_height=height)
        link, router = acc.config.link_latency, acc.config.router_latency
        for src in range(acc.topology.nodes):
            for dst in range(acc.topology.nodes):
                hops = (abs(src % width - dst % width)
                        + abs(src // width - dst // width))
                for words in range(17):
                    flits = acc.flits(8 + 8 * words)
                    before = acc.total_flit_hops
                    latency = acc.transfer(src, dst, 8 + 8 * words)
                    assert latency == (hops * (link + router) + router
                                       + flits - 1)
                    assert acc.total_flit_hops - before == flits * hops

    def test_4x4_mesh(self):
        self._check_mesh(4, 4)

    def test_2x4_mesh(self):
        self._check_mesh(2, 4)

    def test_self_send_charges_tail_flits(self):
        acc = accountant()
        router = acc.config.router_latency
        assert acc.transfer(5, 5, 8) == router
        assert acc.transfer(5, 5, 72) == router + 4  # 5 flits
        assert acc.total_flit_hops == 0
