"""Memory observability: span allocation peaks, RSS counters, the
closed-form working-set model and the ``report --memory`` surface.

The tracer's memory mode (:mod:`repro.perf.trace`) folds the global
:mod:`tracemalloc` peak into every open span at each span boundary, so
nested spans carry their own allocation high-water marks.  The cost
model (:mod:`repro.perf.costmodel`) prices the same working sets in
closed form, including the row-chunked ``Ring.matmul`` expansion bound
by :data:`repro.utils.ring.MATMUL_EXPANSION_WORDS`.  These tests pin
both sides plus the report table that joins them.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

import repro.core.triplets as triplets_mod
from repro.cli import main
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.crypto.codes import code_length
from repro.errors import ConfigError
from repro.net import run_protocol
from repro.perf.costmodel import (
    TRIPLET_SUB_BLOCK_WORDS,
    WORD_BYTES,
    _matmul_intermediate_words,
    linear_working_set_bytes,
    lowered_operand_bytes,
    triplet_sub_block_ots,
    triplet_working_set_bytes,
)
from repro.perf.report import (
    check_conformance,
    check_memory,
    memory_rows,
    render_memory_report,
)
from repro.perf.trace import (
    MEMORY_ENV,
    Tracer,
    current_rss_bytes,
    peak_rss_bytes,
    reset_peak_rss,
)
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import MATMUL_EXPANSION_WORDS, Ring

BIG = 32 * 1024 * 1024  # bytes of the "large" allocation below
SMALL_CAP = 4 * 1024 * 1024


class TestSpanAllocPeaks:
    def test_nested_peaks_attribute_to_the_right_spans(self):
        tracer = Tracer(memory=True)
        with tracer.span("outer"):
            with tracer.span("big"):
                blob = np.ones(BIG // 8, dtype=np.uint64)
                del blob
            with tracer.span("small"):
                tiny = np.ones(128, dtype=np.uint64)
                del tiny
        doc = tracer.to_dict()
        spans = {s["name"]: s for _, s in _walk(doc["root"])}
        assert spans["big"]["alloc_peak_bytes"] >= BIG
        assert spans["small"]["alloc_peak_bytes"] < SMALL_CAP
        # the parent sees at least its largest child's growth
        assert spans["outer"]["alloc_peak_bytes"] >= spans["big"]["alloc_peak_bytes"]
        assert doc["root"]["attrs"]["peak_rss_bytes"] > 0

    def test_memory_off_emits_no_memory_keys(self):
        tracer = Tracer(memory=False)
        with tracer.span("phase"):
            blob = np.ones(1024, dtype=np.uint64)
            del blob
        doc = tracer.to_dict()
        for _, span in _walk(doc["root"]):
            assert "alloc_peak_bytes" not in span
        assert "peak_rss_bytes" not in doc["root"]["attrs"]

    def test_env_var_turns_memory_on_by_default(self, monkeypatch):
        monkeypatch.setenv(MEMORY_ENV, "1")
        assert Tracer().memory is True
        monkeypatch.setenv(MEMORY_ENV, "off")
        assert Tracer().memory is False
        monkeypatch.delenv(MEMORY_ENV)
        assert Tracer().memory is False

    def test_adopt_carries_alloc_peak(self):
        child = Tracer(memory=True)
        with child.span("work"):
            blob = np.ones(BIG // 8, dtype=np.uint64)
            del blob
        parent = Tracer(memory=True)
        span = parent.adopt(child, "shard0")
        # adoption folds the child's root, which saw the big allocation
        child_doc = child.to_dict()
        assert span.alloc_peak_bytes == child_doc["root"]["alloc_peak_bytes"]


    def test_peak_reaches_every_tracers_open_spans(self):
        # The two parties of an in-process pair each own a tracer; one's
        # span boundary resets the global peak, yet the other's open
        # span still sees the allocation.
        waiting, busy = Tracer(memory=True), Tracer(memory=True)
        with waiting.span("waiting"):
            with busy.span("busy"):
                blob = np.ones(BIG // 8, dtype=np.uint64)
                del blob
        spans = {s["name"]: s for _, s in _walk(waiting.to_dict()["root"])}
        assert spans["waiting"]["alloc_peak_bytes"] >= BIG


class TestRssCounters:
    def test_current_and_peak_are_plausible(self):
        current = current_rss_bytes()
        peak = peak_rss_bytes()
        assert current > 1024 * 1024  # a python process is megabytes-big
        assert peak >= current

    def test_reset_peak_drops_high_water(self):
        blob = np.ones(BIG // 8, dtype=np.uint64)
        blob += 1  # force residency
        del blob
        if not reset_peak_rss():
            pytest.skip("clear_refs not supported on this platform")
        # after the reset the high-water mark restarts near current RSS
        assert peak_rss_bytes() <= current_rss_bytes() + BIG // 2


class TestWorkingSetModel:
    def test_operand_bytes(self):
        assert lowered_operand_bytes(18, 72) == 18 * 72 * WORD_BYTES
        with pytest.raises(ConfigError):
            lowered_operand_bytes(0, 10)

    def test_unchunked_vs_chunked_closed_forms(self):
        m, n, total = 8, 18, 72
        inter_full = _matmul_intermediate_words(m, n, total)
        inter_blk = _matmul_intermediate_words(m, n, 7)
        assert linear_working_set_bytes(m, n, total) == WORD_BYTES * (
            total * (n + 2 * m) + inter_full
        )
        assert linear_working_set_bytes(m, n, total, chunk_cols=7) == WORD_BYTES * (
            7 * (n + 3 * m) + inter_blk
        )
        # chunk >= total behaves as unchunked
        assert linear_working_set_bytes(m, n, total, chunk_cols=total) == (
            linear_working_set_bytes(m, n, total)
        )
        # chunking strictly shrinks the transient on wide layers
        assert linear_working_set_bytes(m, n, total, chunk_cols=1) < (
            linear_working_set_bytes(m, n, total)
        )

    def test_intermediate_capped_by_expansion_budget(self):
        # narrow product: all rows fit under the budget
        assert _matmul_intermediate_words(4, 8, 2) == 4 * 8 * 2
        # wide product: the row count is clamped so rows*n*cols stays
        # within one MATMUL_EXPANSION_WORDS chunk (plus one full row)
        m, n, cols = 10_000, 512, 4096
        words = _matmul_intermediate_words(m, n, cols)
        assert words == max(1, MATMUL_EXPANSION_WORDS // (n * cols)) * n * cols
        assert words <= MATMUL_EXPANSION_WORDS + n * cols
        assert _matmul_intermediate_words(4, 8, 0) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            linear_working_set_bytes(0, 18, 72)
        with pytest.raises(ConfigError):
            linear_working_set_bytes(8, 18, 72, chunk_cols=0)


FIG4_L0 = dict(m=128, n=784, ring_bits=32, frag_n_values=[4, 4, 4, 4])


class TestTripletWorkingSet:
    def test_mirrors_match_the_protocol(self):
        assert TRIPLET_SUB_BLOCK_WORDS == triplets_mod._SUB_BLOCK_WORDS
        for bits in ((1,), (2, 2), (4, 4)):
            scheme = FragmentScheme.from_bits(bits)
            n_values = scheme.fragments[0].n_values
            for o in (1, 2, 8, 100, 1024, 1 << 20):
                config = TripletConfig(ring=Ring(32), scheme=scheme, m=1, n=1, o=o)
                assert triplet_sub_block_ots(n_values, o) == config.sub_block(n_values)
        assert triplet_sub_block_ots(4, 1 << 20) == 64

    def test_fig4_layer0_batch8_closed_form(self):
        # 401 408 OTs in wire chunks of 16 Ki OTs.  Between the passes
        # each party holds 24 B of rows per OT (the 192-column N = 4
        # code), and the message frames carry N - 1 = 3 messages of 8
        # elements per OT (12 words).  Pass 2 (both parties' rows, every
        # frame in flight, one chunk of work) is the worst phase, above
        # pass 1 (the rows, every U frame in flight, one chunk's
        # extension).
        total, block, code_words, width = 128 * 784 * 4, 16_384, 3, 4
        assert triplet_sub_block_ots(4, 8) == block
        held, frames = code_words * total, 12 * total
        extension = 3 * held + 10 * code_words * block
        client = block * 4 * (4 * 8 + width + code_words + 2)
        server = block * (5 * width + code_words + 1 + 6 * 8)
        messages = 2 * held + frames + client + 2 * block * 12 + server
        assert extension < messages
        digits = 2 * 128 * 784 * 4  # uint8 digits and choices
        assert triplet_working_set_bytes(o=8, **FIG4_L0) == (
            WORD_BYTES * (4 * 128 * 8 + messages) + digits + (1 << 20)
        )

    def test_chunk_terms_do_not_grow_with_the_layer(self):
        small = triplet_working_set_bytes(o=8, **FIG4_L0)
        big = triplet_working_set_bytes(1280, 784, 8, 32, [4, 4, 4, 4])
        # ten times the OTs adds only per-OT terms: both parties' rows
        # (2 x 3 words), the frames (12 words), the digits and choices,
        # and the accumulator rows
        ots = 1152 * 784 * 4
        assert big - small == WORD_BYTES * (4 * 1152 * 8 + 18 * ots) + 2 * ots

    def test_validation(self):
        with pytest.raises(ConfigError):
            triplet_working_set_bytes(0, 784, 8, 32, [4])
        with pytest.raises(ConfigError):
            triplet_working_set_bytes(128, 784, 8, 32, [])


class TestTripletSpanPeaks:
    """Fig-4 layer 0 under memory tracing: each party's triplets span
    peaks at or under the closed form, and above what the pair must hold
    at once (between the passes, every chunk's rows on both sides but
    the first chunk the server may already have hashed), so the bound is
    not met vacuously."""

    @pytest.fixture(autouse=True)
    def _stop_tracemalloc(self):
        was_tracing = tracemalloc.is_tracing()
        yield
        if not was_tracing:
            tracemalloc.stop()

    @pytest.mark.parametrize("batch", [8, 1])
    def test_fig4_layer0_within_closed_form(self, batch, test_group):
        scheme = FragmentScheme.from_bits((2, 2, 2, 2))
        ring = Ring(32)
        m, n = FIG4_L0["m"], FIG4_L0["n"]
        config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=batch, group=test_group)
        block = config.sub_block(4)
        assert 3 * block < config.total_ots  # four wire chunks or more
        rng = np.random.default_rng(0)
        lo, hi = scheme.weight_range
        w = rng.integers(lo, hi + 1, size=(m, n))
        r = ring.sample(rng, (n, batch))
        attrs = dict(FIG4_L0, o=batch)
        tracers = (Tracer(memory=True), Tracer(memory=True))

        def traced(idx, fn):
            def run(chan):
                chan.tracer = tracers[idx]
                with tracers[idx].span("offline"):
                    with tracers[idx].span("layer0/triplets", **attrs):
                        return fn(chan)

            return run

        result = run_protocol(
            traced(0, lambda ch: generate_triplets_server(ch, w, config, seed=1)),
            traced(
                1,
                lambda ch: generate_triplets_client(
                    ch, r, config, np.random.default_rng(2), seed=3
                ),
            ),
        )
        assert (ring.add(result.server, result.client) == ring.matmul(ring.reduce(w), r)).all()
        bound = triplet_working_set_bytes(o=batch, **FIG4_L0)
        code_words = code_length(4) // 64
        held = WORD_BYTES * code_words * (2 * config.total_ots - block)
        for tracer in tracers:
            doc = tracer.to_dict()
            rows = [row for row in memory_rows(doc) if row.kind == "triplets"]
            assert [row.path for row in rows] == ["offline/layer0/triplets"]
            assert rows[0].predicted_bytes == rows[0].bound_bytes == bound
            assert held <= rows[0].measured_bytes <= bound
            assert rows[0].ok and check_memory(doc) == []


class TestMemoryReport:
    @staticmethod
    def _trace(memory: bool, with_attrs: bool = True):
        tracer = Tracer(memory=memory)
        attrs = {"m": 8, "n": 18, "o": 72, "groups": 1, "chunk_cols": 7}
        if not with_attrs:
            attrs = {}
        with tracer.span("online"):
            with tracer.span("matmul", **attrs):
                blob = np.ones(1 << 18, dtype=np.uint64)
                del blob
        return tracer.to_dict()

    def test_rows_join_measured_and_predicted(self):
        rows = memory_rows(self._trace(memory=True))
        assert len(rows) == 1
        row = rows[0]
        assert row.path == "online/matmul"
        assert row.measured_bytes is not None and row.measured_bytes > 0
        assert row.predicted_bytes == linear_working_set_bytes(
            8, 18, 72, chunk_cols=7
        )
        assert row.operand_bytes == lowered_operand_bytes(18, 72)
        assert "chunk=7" in row.detail

    def test_rows_without_dimensions_or_memory(self):
        rows = memory_rows(self._trace(memory=False, with_attrs=False))
        assert rows[0].measured_bytes is None
        assert rows[0].predicted_bytes is None
        assert rows[0].detail == "missing dimensions"

    def test_render_paths(self):
        text = render_memory_report(self._trace(memory=True))
        assert "process peak RSS" in text
        assert "online/matmul" in text
        cold = render_memory_report(self._trace(memory=False))
        assert "ABNN2_TRACE_MEMORY=1" in cold  # hint when nothing measured
        empty = Tracer(memory=False)
        with empty.span("online"):
            pass
        assert "no matmul spans" in render_memory_report(empty.to_dict())


class TestTripletMemoryRows:
    @staticmethod
    def _trace(peaks):
        tracer = Tracer(memory=False)
        with tracer.span("offline"):
            for idx, (m, o) in enumerate(((128, 8), (10, 8))):
                with tracer.span(
                    f"layer{idx}/triplets", m=m, n=784, o=o, ring_bits=32,
                    frag_n_values=[4, 4],
                ):
                    pass
            with tracer.span("layer2/triplets", m=4):
                pass
        doc = tracer.to_dict()
        spans = [s for _, s in _walk(doc["root"]) if s["name"] == "triplets"]
        for span, peak in zip(spans, peaks):
            span["alloc_peak_bytes"] = peak
        return doc

    def test_rows_bound_and_previous_layer_tail(self):
        first = triplet_working_set_bytes(128, 784, 8, 32, [4, 4])
        second = triplet_working_set_bytes(10, 784, 8, 32, [4, 4])
        rows = memory_rows(self._trace([first, first, 0]))
        assert [row.kind for row in rows] == ["triplets"] * 3
        assert [row.predicted_bytes for row in rows] == [first, second, None]
        # the peer's tail of layer 0 lands in layer 1's span
        assert [row.bound_bytes for row in rows] == [first, first, None]
        assert "previous layer" in rows[1].detail
        assert [row.ok for row in rows] == [True, True, None]
        assert rows[2].detail == "missing dimensions"
        text = render_memory_report(self._trace([first, first, 0]))
        assert "offline/layer1/triplets" in text and "FAIL" not in text

    def test_check_fails_above_the_bound(self):
        first = triplet_working_set_bytes(128, 784, 8, 32, [4, 4])
        doc = self._trace([first + 1, 0, 0])
        failures = check_memory(doc)
        assert len(failures) == 1 and "offline/layer0/triplets" in failures[0]
        assert failures[0] in check_conformance(doc)
        assert "FAIL" in render_memory_report(doc)

    def test_unmeasured_rows_are_not_gated(self):
        doc = self._trace([])
        assert all(row.ok is None for row in memory_rows(doc))
        assert check_memory(doc) == []


class TestCliMemoryReport:
    def test_report_demo_memory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(MEMORY_ENV, "1")
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "report", "--demo", "--memory", "--check",
                "--save-trace", str(trace_path),
                "--hidden", "6", "--batch", "1", "--scheme", "ternary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory (per-span allocation peaks" in out
        assert "process peak RSS" in out
        assert "FAIL" not in out
        doc = json.loads(trace_path.read_text())
        measured = [
            span.get("alloc_peak_bytes")
            for _, span in _walk(doc["root"])
            if span["name"] == "matmul"
        ]
        assert measured and all(m is not None for m in measured)
        assert "offline/layer0/triplets" in out
        triplets = [row for row in memory_rows(doc) if row.kind == "triplets"]
        assert triplets and all(row.ok for row in triplets)

    def test_report_demo_memory_multi_batch(self, capsys, monkeypatch):
        # The CI smoke shape: batch 2, two products per OT.
        monkeypatch.setenv(MEMORY_ENV, "1")
        code = main(
            ["report", "--demo", "--memory", "--check", "--hidden", "8", "--batch", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for idx in range(3):
            assert f"offline/layer{idx}/triplets" in out
        assert "m=8 n=784 o=2" in out
        assert "FAIL" not in out


def _walk(span, prefix=""):
    path = f"{prefix}/{span['name']}" if prefix else span["name"]
    yield path, span
    for child in span.get("children", ()):
        yield from _walk(child, path)
