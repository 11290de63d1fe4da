"""Span statistics: per-stage aggregation and the rendered summary."""

import pytest

from repro.obs import EventCollector, Tracer, format_summary, summarize_events


def _events_with_spans():
    sink = EventCollector()
    tracer = Tracer(sink)
    for index, duration in enumerate((1e-6, 2e-6, 3e-6, 4e-6, 5e-6)):
        tracer.set_context("flow0", index)
        tracer.span("encode", track="encoder", start=index * 1e-5,
                    end=index * 1e-5 + duration)
    tracer.clear_context()
    tracer.span("decode", track="decoder", start=0.0, end=6e-6)
    tracer.instant("link.drop", track="wire", ts=1.0)  # not a span
    return sink.events


class TestSummarizeEvents:
    def test_counts_and_stage_stats(self):
        summary = summarize_events(_events_with_spans(), top=2)
        assert summary["events"] == 7
        assert summary["spans"] == 6
        stages = {stage["stage"]: stage for stage in summary["stages"]}
        assert set(stages) == {"encode", "decode"}

        encode = stages["encode"]
        assert encode["count"] == 5
        assert encode["mean_s"] == pytest.approx(3e-6)
        assert encode["max_s"] == pytest.approx(5e-6)
        assert encode["total_s"] == pytest.approx(1.5e-5)
        # Nearest-rank percentiles over [1, 2, 3, 4, 5] us.
        assert encode["p50_s"] == pytest.approx(3e-6)
        assert encode["p99_s"] == pytest.approx(5e-6)

    def test_stages_sorted_by_total_time(self):
        summary = summarize_events(_events_with_spans())
        totals = [stage["total_s"] for stage in summary["stages"]]
        assert totals == sorted(totals, reverse=True)

    def test_slowest_spans_carry_chunk_identity(self):
        summary = summarize_events(_events_with_spans(), top=2)
        encode = next(s for s in summary["stages"] if s["stage"] == "encode")
        slowest = encode["slowest"]
        assert len(slowest) == 2
        assert slowest[0]["dur_s"] == pytest.approx(5e-6)
        assert slowest[0]["flow"] == "flow0"
        assert slowest[0]["chunk"] == 4

    def test_instants_are_counted_by_name(self):
        events = _events_with_spans()
        tracer = Tracer(EventCollector())
        tracer.instant("controlplane.digest", track="controlplane.encoder")
        tracer.instant("controlplane.digest", track="controlplane.encoder")
        events += tracer.sink.events
        assert summarize_events(events)["instants"] == {
            "controlplane.digest": 2,
            "link.drop": 1,
        }

    def test_empty_input(self):
        summary = summarize_events([])
        assert summary["events"] == 0
        assert summary["spans"] == 0
        assert summary["stages"] == []
        assert summary["instants"] == {}


class TestFormatSummary:
    def test_renders_table_and_slowest_sections(self):
        text = format_summary(summarize_events(_events_with_spans(), top=1))
        assert "7 events, 6 spans, 2 stages" in text
        assert "encode" in text and "decode" in text
        for column in ("count", "mean", "p50", "p99", "total"):
            assert column in text
        assert "slowest encode:" in text
        assert "flow=flow0" in text
        assert "link.drop" in text.splitlines()[2]

    def test_renders_empty_summary(self):
        assert "0 events" in format_summary(summarize_events([]))
