"""EventTrace: ring-buffer retention, filtering, JSONL export."""

import io
import json

import pytest

from repro.obs.events import EventTrace, summarize_jsonl


def record_one(trace, *, core=0, is_write=False, addr=0, size=8, pc=0,
               latency=1, hit=True):
    trace.begin(core, is_write, addr, size, pc)
    trace.end(latency, hit)


class TestRecording:
    def test_begin_end_seals_one_record(self):
        trace = EventTrace()
        record_one(trace, core=3, is_write=True, addr=64, latency=42,
                   hit=False)
        (rec,) = trace.records()
        assert rec["core"] == 3
        assert rec["op"] == "W"
        assert rec["addr"] == 64
        assert rec["hit"] is False
        assert rec["latency"] == 42

    def test_messages_and_actions_attach_to_open_record(self):
        class FakeType:
            label = "GETS"

        trace = EventTrace()
        trace.begin(0, False, 0, 8, 0)
        trace.message(FakeType(), 1, 2, 4)
        trace.action("invalidate", 3)
        trace.grant(type("S", (), {"name": "E"}))
        trace.end(10, False)
        (rec,) = trace.records()
        assert rec["msgs"] == [["GETS", 1, 2, 4]]
        assert rec["actions"] == [["invalidate", 3]]
        assert rec["granted"] == "E"

    def test_hooks_without_open_record_are_noops(self):
        trace = EventTrace()
        record_one(trace)
        trace.message(type("T", (), {"label": "X"})(), 0, 0, 0)
        trace.action("probe_read", 0)
        trace.grant(type("S", (), {"name": "E"}))
        (rec,) = trace.records()
        assert rec["msgs"] == [] and rec["actions"] == []
        assert "granted" not in rec

    def test_hit_miss_counters(self):
        trace = EventTrace()
        record_one(trace, hit=True)
        record_one(trace, hit=False)
        record_one(trace, hit=False)
        assert trace.hits == 1
        assert trace.misses == 2


class TestRing:
    def test_ring_overflow_keeps_newest(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            record_one(trace, addr=i)
        assert trace.seen == 10
        assert trace.dropped == 6
        assert [r["addr"] for r in trace.records()] == [6, 7, 8, 9]

    def test_records_are_oldest_first_across_wrap(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            record_one(trace, addr=i)
        seqs = [r["seq"] for r in trace.records()]
        assert seqs == sorted(seqs) == [2, 3, 4]

    def test_exact_capacity_does_not_drop(self):
        trace = EventTrace(capacity=4)
        for i in range(4):
            record_one(trace, addr=i)
        assert trace.dropped == 0
        assert [r["addr"] for r in trace.records()] == [0, 1, 2, 3]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)


class TestHitFastPath:
    def test_hit_seals_a_complete_record(self):
        trace = EventTrace()
        trace.hit(2, True, 128, 8, 4096, 3)
        (rec,) = trace.records()
        assert rec["core"] == 2
        assert rec["op"] == "W"
        assert rec["addr"] == 128
        assert rec["size"] == 8
        assert rec["pc"] == 4096
        assert rec["hit"] is True
        assert rec["latency"] == 3
        assert rec["msgs"] == []
        assert rec["actions"] == []
        assert trace.hits == 1

    def test_hit_records_share_the_ring_with_miss_records(self):
        trace = EventTrace(capacity=2)
        trace.hit(0, False, 0, 8, 0, 1)
        record_one(trace, addr=8, hit=False)
        trace.hit(0, False, 16, 8, 0, 1)
        assert trace.dropped == 1
        assert [r["addr"] for r in trace.records()] == [8, 16]


class TestFiltering:
    @pytest.fixture()
    def trace(self):
        trace = EventTrace()
        record_one(trace, core=0, is_write=False, hit=True)
        record_one(trace, core=1, is_write=True, hit=False)
        record_one(trace, core=0, is_write=True, hit=False)
        record_one(trace, core=2, is_write=False, hit=False)
        return trace

    def test_filter_by_core(self, trace):
        assert [r["seq"] for r in trace.filtered(core=0)] == [0, 2]

    def test_filter_by_op(self, trace):
        assert [r["seq"] for r in trace.filtered(op="W")] == [1, 2]

    def test_filter_misses_only(self, trace):
        assert [r["seq"] for r in trace.filtered(misses_only=True)] == [1, 2, 3]

    def test_filter_limit(self, trace):
        assert len(list(trace.filtered(limit=2))) == 2

    def test_filters_compose(self, trace):
        out = list(trace.filtered(core=0, op="W", misses_only=True))
        assert [r["seq"] for r in out] == [2]


class TestExport:
    def test_dump_jsonl_round_trips(self):
        trace = EventTrace()
        for i in range(3):
            record_one(trace, addr=i * 8, hit=bool(i % 2))
        buf = io.StringIO()
        assert trace.dump_jsonl(buf) == 3
        lines = buf.getvalue().strip().splitlines()
        assert [json.loads(l)["addr"] for l in lines] == [0, 8, 16]

    def test_summary_counts(self):
        trace = EventTrace()
        record_one(trace, latency=10, hit=True)
        record_one(trace, latency=30, hit=False)
        summary = trace.summary()
        assert summary["transactions"] == 2
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["mean_latency_retained"] == 20.0

    def test_summarize_jsonl_matches_live_summary(self):
        trace = EventTrace()
        for i in range(4):
            record_one(trace, addr=i, latency=i, hit=bool(i % 2))
        buf = io.StringIO()
        trace.dump_jsonl(buf)
        buf.seek(0)
        summary = summarize_jsonl(buf)
        assert summary["retained"] == 4
        assert summary["hits"] == trace.hits
        assert summary["misses"] == trace.misses
