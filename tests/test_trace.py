"""Unit tests for the hierarchical span tracer (repro.perf.trace)."""

import json
import re

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.net.channel import make_channel_pair
from repro.net.runner import run_protocol
from repro.perf.trace import TRACE_SCHEMA, Tracer, channel_span, iter_spans, load_trace


class TestSpanTree:
    def test_nested_spans_and_paths(self):
        tracer = Tracer("client")
        with tracer.span("offline") as offline:
            with tracer.span("layer0") as layer:
                with tracer.span("triplets") as trip:
                    assert trip.path == "offline/layer0/triplets"
                assert tracer.current is layer
        assert tracer.current is tracer.root
        assert offline.duration_s is not None
        assert offline.duration_s >= 0

    def test_slash_names_open_nested_spans(self):
        tracer = Tracer()
        with tracer.span("online/layer3/matmul", m=7) as leaf:
            assert leaf.name == "matmul"
            assert leaf.path == "online/layer3/matmul"
            assert leaf.attrs == {"m": 7}
        doc = tracer.to_dict()
        paths = [path for path, _ in iter_spans(doc)]
        assert paths == ["online", "online/layer3", "online/layer3/matmul"]

    def test_io_attributed_to_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.record_io("send", 10)
            with tracer.span("inner") as inner:
                tracer.record_io("send", 100)
                tracer.record_io("recv", 7)
            tracer.record_io("recv", 3)
        assert (outer.sent_bytes, outer.recv_bytes) == (10, 3)
        assert (inner.sent_bytes, inner.recv_bytes) == (100, 7)
        totals = outer.totals()
        assert totals["sent_bytes"] == 110
        assert totals["recv_bytes"] == 10
        assert totals["sent_msgs"] == 2
        assert totals["recv_msgs"] == 2

    def test_rounds_count_direction_flips_across_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.record_io("send", 1)  # flip 1 (first message)
            tracer.record_io("send", 1)  # same direction: no flip
        with tracer.span("b") as b:
            tracer.record_io("send", 1)  # still sending: no flip
            tracer.record_io("recv", 1)  # flip 2
            tracer.record_io("recv", 1)
            tracer.record_io("send", 1)  # flip 3
        root_totals = tracer.root.totals()
        assert root_totals["rounds"] == 3
        assert b.rounds == 2

    def test_exception_closes_open_spans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current is tracer.root
        phase = tracer.root.children[0]
        assert phase.duration_s is not None
        assert phase.children[0].duration_s is not None

    def test_end_span_closes_dangling_children(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("dangling")
        tracer.end_span(outer)
        assert tracer.current is tracer.root
        assert outer.children[0].duration_s is not None
        with pytest.raises(ConfigError):
            tracer.end_span(outer)  # already closed

    def test_resume_reopens_a_span_and_its_ancestors(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("offline"):
            with tracer.span("layer0/triplets") as trip:
                tracer.record_io("send", 5)
            layer = trip.parent
            first = trip.duration_s
            with tracer.span("layer1/triplets"):
                pass
            with tracer.resume(trip) as again:
                assert again is trip
                assert [s.name for s in tracer._stack[-2:]] == ["layer0", "triplets"]
                tracer.record_io("recv", 7)
            assert tracer.current.name == "offline"
        # one span, both passes' bytes, both passes' time
        assert [child.name for child in tracer.root.children[0].children] == [
            "layer0", "layer1",
        ]
        assert (trip.sent_bytes, trip.recv_bytes, trip.rounds) == (5, 7, 2)
        assert trip.duration_s > first and layer.duration_s >= trip.duration_s
        with pytest.raises(ConfigError):
            with Tracer().resume(trip):  # another tracer's span
                pass
        with tracer.span("open") as still_open:
            with pytest.raises(ConfigError):
                with tracer.resume(still_open):
                    pass

    def test_bad_inputs(self):
        tracer = Tracer()
        with pytest.raises(ConfigError):
            tracer.start_span("")
        with pytest.raises(ConfigError):
            tracer.record_io("sideways", 1)
        with pytest.raises(ConfigError):
            with tracer.span("///"):
                pass


class TestExport:
    def test_save_load_roundtrip(self, tmp_path):
        tracer = Tracer("server")
        with tracer.span("offline", layers=3):
            tracer.record_io("send", 42)
        path = str(tmp_path / "trace.json")
        tracer.save(path)
        doc = load_trace(path)
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["party"] == "server"
        offline = doc["root"]["children"][0]
        assert offline["attrs"] == {"layers": 3}
        assert offline["self"]["sent_bytes"] == 42
        assert offline["total"]["sent_bytes"] == 42

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "abnn2-trace/999", "root": {}}))
        with pytest.raises(ConfigError, match="schema"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "text", [None, "{not json", "[]", "\xff\xfe"],
        ids=["missing", "not_json", "not_an_object", "not_utf8"],
    )
    def test_unreadable_file_is_one_error_naming_the_path(self, tmp_path, text):
        path = tmp_path / "trace.json"
        if text is not None:
            path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_trace(str(path))

    def test_open_spans_get_provisional_durations(self):
        tracer = Tracer()
        tracer.start_span("still-open")
        doc = tracer.to_dict()
        assert doc["root"]["children"][0]["duration_s"] >= 0


class TestChannelIntegration:
    def test_channel_span_without_tracer_is_noop(self):
        server, _client = make_channel_pair()
        assert server.tracer is None
        with channel_span(server, "anything", m=1):
            pass  # must not raise, and no tracer appears
        assert server.tracer is None

    def test_traced_exchange_matches_channel_stats(self):
        """Tracer byte/round totals must equal ChannelStats' view."""
        tracers = {}

        def server_fn(ch):
            tracers["server"] = tr = Tracer("server")
            ch.tracer = tr
            with tr.span("phase"):
                ch.send(np.arange(10, dtype=np.uint64))
                ch.recv()
                ch.send(b"xyz")
            return True

        def client_fn(ch):
            tracers["client"] = tr = Tracer("client")
            ch.tracer = tr
            with tr.span("phase"):
                ch.recv()
                ch.send(np.ones(3, dtype=np.uint64))
                ch.recv()
            return True

        result = run_protocol(server_fn, client_fn, timeout_s=30)
        stats = result.stats
        for tracer in tracers.values():
            totals = tracer.root.totals()
            assert totals["sent_bytes"] + totals["recv_bytes"] == stats.total_bytes
            assert totals["rounds"] == stats.rounds
            assert totals["sent_msgs"] + totals["recv_msgs"] == stats.total_messages

    def test_faulty_channel_delegates_tracer(self):
        from repro.net.faults import FaultPlan, FaultyChannel

        server, client = make_channel_pair()
        wrapped = FaultyChannel(client, FaultPlan())
        tracer = Tracer("client")
        wrapped.tracer = tracer
        assert client.tracer is tracer  # lives on the inner endpoint
        with tracer.span("s"):
            wrapped.send(b"abcd")
        assert tracer.root.totals()["sent_bytes"] == 4
        server.recv()
