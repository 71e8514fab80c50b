"""Tests for message types, categories, and byte sizing (paper Table 3)."""

import pytest

from repro.coherence.messages import MsgCategory, MsgType
from repro.common.params import ProtocolKind

from tests.conftest import make_engine


class TestSizes:
    def test_control_messages_are_8_bytes(self):
        for mtype in (MsgType.GETS, MsgType.GETX, MsgType.UPGRADE, MsgType.INV,
                      MsgType.ACK, MsgType.ACK_S, MsgType.NACK,
                      MsgType.FWD_GETS, MsgType.FWD_GETX):
            assert mtype.size_bytes() == 8

    def test_data_message_header_plus_words(self):
        assert MsgType.DATA.size_bytes(0) == 8
        assert MsgType.DATA.size_bytes(4) == 8 + 32
        assert MsgType.WBACK.size_bytes(8) == 8 + 64

    def test_control_cannot_carry_payload(self):
        with pytest.raises(ValueError):
            MsgType.ACK.size_bytes(1)


class TestCategories:
    def test_figure10_buckets(self):
        assert MsgType.GETS.category is MsgCategory.REQ
        assert MsgType.GETX.category is MsgCategory.REQ
        assert MsgType.UPGRADE.category is MsgCategory.REQ
        assert MsgType.FWD_GETS.category is MsgCategory.FWD
        assert MsgType.FWD_GETX.category is MsgCategory.FWD
        assert MsgType.INV.category is MsgCategory.INV
        assert MsgType.ACK.category is MsgCategory.ACK
        assert MsgType.ACK_S.category is MsgCategory.ACK
        assert MsgType.NACK.category is MsgCategory.NACK

    def test_data_headers_bucketed_separately(self):
        assert MsgType.DATA.category is MsgCategory.HDR
        assert MsgType.WBACK.category is MsgCategory.HDR
        assert MsgType.WBACK_LAST.category is MsgCategory.HDR


class TestProtozoaAdditions:
    """Table 3: the message types Protozoa adds over MESI."""

    def test_wback_last_exists_and_carries_data(self):
        assert MsgType.WBACK_LAST.carries_data

    def test_ack_s_is_control(self):
        assert not MsgType.ACK_S.carries_data
        assert MsgType.ACK_S.size_bytes() == 8

    def test_labels_unique(self):
        labels = [m.label for m in MsgType]
        assert len(labels) == len(set(labels))


class TestPerTypeEffects:
    """The counters a send touches are fixed per type when the enum is built."""

    def test_only_memory_messages_are_off_the_l1_boundary(self):
        off = {m for m in MsgType if not m.at_l1}
        assert off == {MsgType.MEM_READ, MsgType.MEM_DATA, MsgType.MEM_WRITE}

    def test_only_inv_and_fwd_getx_count_as_invalidations(self):
        invalidating = {m for m in MsgType
                        if m.stat_counter == "invalidations_sent"}
        assert invalidating == {MsgType.INV, MsgType.FWD_GETX}

    def test_nack_and_ack_s_have_their_own_counters(self):
        assert MsgType.NACK.stat_counter == "nacks"
        assert MsgType.ACK_S.stat_counter == "ack_s"
        counted = {m for m in MsgType if m.stat_counter is not None}
        assert counted == {MsgType.INV, MsgType.FWD_GETX, MsgType.NACK,
                           MsgType.ACK_S}

    def test_only_writebacks_carry_writeback_data(self):
        assert {m for m in MsgType if m.writeback_data} == {
            MsgType.WBACK, MsgType.WBACK_LAST}

    @pytest.mark.parametrize("mtype", list(MsgType), ids=lambda m: m.label)
    def test_send_bumps_exactly_its_counters(self, mtype):
        p = make_engine(ProtocolKind.PROTOZOA_MW, cores=2)
        before = p.stats.to_dict()
        words = 2 if mtype.carries_data else 0
        latency = p._send(mtype, 0, 1, words, 1 if words else 0)
        after = p.stats.to_dict()
        assert latency == p.net.transfer(0, 1, mtype.size_bytes(words))
        changed = {k for k in after if after[k] != before[k]}
        expected = set()
        if mtype.at_l1:
            expected.add("traffic")
        if mtype.stat_counter is not None:
            expected.add(mtype.stat_counter)
            assert after[mtype.stat_counter] == before[mtype.stat_counter] + 1
        assert changed == expected
        traffic = after["traffic"]
        if mtype.at_l1:
            assert traffic["control"][mtype.control_key] == 8
        data = traffic["used_data"] + traffic["unused_data"]
        assert data == (8 * words if mtype.writeback_data else 0)

    @pytest.mark.parametrize("mtype", [m for m in MsgType if not m.carries_data],
                             ids=lambda m: m.label)
    def test_send_rejects_payload_on_control(self, mtype):
        p = make_engine(ProtocolKind.MESI, cores=2)
        with pytest.raises(ValueError, match="cannot carry data"):
            p._send(mtype, 0, 1, 1)
        assert p.net.total_messages == 0
