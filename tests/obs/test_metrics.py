"""MetricsRegistry: series keys, histograms, and the cross-process merge."""

import json

import pytest

from repro.obs.metrics import (HistogramData, MetricsRegistry,
                               parse_series_key, series_key)


class TestSeriesKey:
    def test_bare_name_without_labels(self):
        assert series_key("repro_x_total", {}) == "repro_x_total"

    def test_labels_sorted_into_key(self):
        key = series_key("m", {"b": 2, "a": 1})
        assert key == "m{a=1,b=2}"

    def test_label_order_is_canonical(self):
        assert (series_key("m", {"x": 1, "y": 2})
                == series_key("m", {"y": 2, "x": 1}))


class TestSeriesKeyEscaping:
    def test_structural_characters_round_trip(self):
        labels = {"path": "a,b=c{d}e\\f", "plain": "ok"}
        name, parsed = parse_series_key(series_key("m", labels))
        assert name == "m"
        assert parsed == labels

    def test_escaping_prevents_collisions(self):
        # Without escaping both maps would format to m{a=1,b=2}.
        assert (series_key("m", {"a": "1,b=2"})
                != series_key("m", {"a": 1, "b": 2}))

    def test_parse_bare_name(self):
        assert parse_series_key("repro_x_total") == ("repro_x_total", {})

    def test_parse_values_come_back_as_strings(self):
        name, labels = parse_series_key(series_key("m", {"n": 7}))
        assert labels == {"n": "7"}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_series_key("m{unterminated")
        with pytest.raises(ValueError):
            parse_series_key("m{novalue}")

    def test_unhashable_label_values_skip_the_cache(self):
        key = series_key("m", {"a": [1, 2]})
        assert parse_series_key(key) == ("m", {"a": "[1, 2]"})


class TestCounters:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2, op="read")
        reg.inc("hits", 3, op="read")
        reg.inc("hits", 5, op="write")
        assert reg.counter_value("hits", op="read") == 5
        assert reg.counter_value("hits", op="write") == 5
        assert reg.counter_value("hits", op="rmw") == 0


class TestHistogram:
    def test_observe_buckets_by_power_of_two(self):
        hist = HistogramData()
        for value in (1, 2, 3, 8, 9):
            hist.observe(value)
        assert hist.buckets == {0: 1, 1: 2, 3: 2}
        assert hist.count == 5
        assert hist.total == 23
        assert (hist.min, hist.max) == (1, 9)

    def test_merge_dict_combines_everything(self):
        a, b = HistogramData(), HistogramData()
        a.observe(4)
        b.observe(2)
        b.observe(100)
        a.merge_dict(b.to_dict())
        assert a.count == 3
        assert a.total == 106
        assert (a.min, a.max) == (2, 100)

    def test_merge_into_empty(self):
        a, b = HistogramData(), HistogramData()
        b.observe(7)
        a.merge_dict(b.to_dict())
        assert a.to_dict() == b.to_dict()


class TestAddCounts:
    """``add_counts`` (value-indexed, projected once) == eager ``observe``."""

    VALUES = [0, 1, 1, 2, 3, 7, 8, 9, 31, 32, 63]

    def test_matches_one_observe_per_sample(self):
        eager = MetricsRegistry()
        for v in self.VALUES:
            eager.observe("h", v, protocol="mesi")
        counts = [0] * 64
        for v in self.VALUES:
            counts[v] += 1
        projected = MetricsRegistry()
        projected.histogram("h", protocol="mesi").add_counts(counts)
        assert (json.dumps(projected.to_dict(), sort_keys=True)
                == json.dumps(eager.to_dict(), sort_keys=True))

    def test_adds_to_an_observed_histogram(self):
        eager = HistogramData()
        for v in self.VALUES + [100, 5]:
            eager.observe(v)
        hist = HistogramData()
        hist.observe(100)
        hist.observe(5)
        counts = [0] * 64
        for v in self.VALUES:
            counts[v] += 1
        hist.add_counts(counts)
        assert hist.to_dict() == eager.to_dict()

    def test_zero_value_lands_in_bucket_zero(self):
        hist = HistogramData()
        hist.add_counts([2, 0, 0])
        assert hist.buckets == {0: 2}
        assert (hist.count, hist.total, hist.min, hist.max) == (2, 0, 0, 0)

    def test_all_zero_counts_leave_the_histogram_empty(self):
        hist = HistogramData()
        hist.add_counts([0] * 8)
        assert hist.to_dict() == HistogramData().to_dict()


class TestRegistryMerge:
    def build(self, scale):
        reg = MetricsRegistry()
        reg.inc("repro_misses_total", 10 * scale, kind="read", protocol="mesi")
        reg.inc("repro_misses_total", 5 * scale, kind="write", protocol="mesi")
        reg.observe("repro_miss_latency_cycles", 16 * scale, protocol="mesi")
        return reg

    def test_merge_is_commutative(self):
        left = self.build(1)
        left.merge(self.build(2))
        right = self.build(2)
        right.merge(self.build(1))
        assert left.to_dict() == right.to_dict()

    def test_merge_is_associative(self):
        abc = self.build(1)
        abc.merge(self.build(2))
        abc.merge(self.build(3))
        bc = self.build(2)
        bc.merge(self.build(3))
        a_bc = self.build(1)
        a_bc.merge(bc)
        assert abc.to_dict() == a_bc.to_dict()

    def test_wire_form_is_json_round_trippable(self):
        reg = self.build(3)
        wire = json.loads(json.dumps(reg.to_dict()))
        back = MetricsRegistry.from_dict(wire)
        assert back.to_dict() == reg.to_dict()

    def test_merge_dict_ignores_unknown_sections(self):
        reg = MetricsRegistry()
        reg.merge_dict({"counters": {"c": 1}, "future_section": {"x": 2}})
        assert reg.counter_value("c") == 1
