"""Pipelined online execution: the layer-graph planner's contract.

The equivalence matrix under test (docs/PROTOCOLS.md §14): pipelining
with streamed garbling is a *local* execution strategy — for a fixed
seed the logit shares must be byte-identical to the sequential executor
across every cell of {in-memory, TCP} x {traced, untraced} x batch
widths {1, 2, 4} x chunk sizes {1, 16, unbounded} x {banked, unbanked}
offline material, and the per-stream mux byte totals must be a function
of the protocol configuration alone (chunk size), never of the
transport or of tracer attachment.  On top of the matrix:

* peak garbled-table residency stays O(chunk) (the streaming memory
  bound), pinned against :func:`repro.gc.stream.table_block_bytes`;
* per-layer stream spans conform to the Table 1 closed form plus the
  exact chunk-framing overhead, *byte equality*, even though the spans
  interleave with the main stream (tracer overlap conformance);
* a transport that opts out of mux framing degrades to the sequential
  executor with a byte-identical wire transcript.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.plan import GC_STREAM_BASE, MAIN_STREAM, build_plan
from repro.core.protocol import Abnn2Client, Abnn2Server, ModelMeta, secure_predict
from repro.crypto.group import MODP_TEST
from repro.errors import ConfigError
from repro.gc.stream import table_block_bytes
from repro.net import tcp
from repro.net.channel import make_channel_pair
from repro.nn.model import mnist_mlp
from repro.nn.quantize import quantize_model
from repro.perf.costmodel import gc_relu_wire_bits, gc_stream_overhead_bits
from repro.perf.report import check_conformance, conformance_rows
from repro.perf.trace import iter_spans
from repro.quant.fragments import FragmentScheme
from repro.utils.ring import Ring

HIDDEN = 12
INPUT_DIM = 20
CLASSES = 5
CHUNKS = (1, 16, None)
TIMEOUT_S = 60.0


@pytest.fixture(scope="module")
def pmodel():
    """Small untrained 3-Dense/2-ReLU MLP; ternary => bit-exact logits."""
    model = mnist_mlp(seed=3, hidden=HIDDEN, input_dim=INPUT_DIM, classes=CLASSES)
    return quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)


@pytest.fixture(scope="module")
def xs():
    rng = np.random.default_rng(42)
    return rng.normal(size=(4, INPUT_DIM))


@pytest.fixture(scope="module")
def test_group():
    """Module-scoped copy of the fast insecure test group (the session
    fixtures below are module-scoped and cannot request the function-
    scoped conftest one)."""
    return MODP_TEST


@pytest.fixture(scope="module")
def sequential_ref(pmodel, xs, test_group):
    """Sequential-executor logits per batch width, the matrix baseline."""
    refs = {}
    for batch in (1, 2, 4):
        report = secure_predict(pmodel, xs[:batch], group=test_group, seed=0)
        expect = pmodel.forward_int(pmodel.encoder.encode(xs[:batch].T))
        assert (report.logits_int == expect).all()
        refs[batch] = report.logits_int
    return refs


class _no_thread_leak:
    """Assert the with-block leaves no extra live threads behind."""

    def __enter__(self):
        self._before = set(threading.enumerate())
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            return False
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                t for t in threading.enumerate()
                if t not in self._before and t.is_alive()
            ]
            if not leaked:
                return False
            time.sleep(0.01)
        raise AssertionError(f"leaked threads: {[t.name for t in leaked]}")


def _tcp_pair(timeout_s=30.0):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    box = {}

    def _serve():
        box["server"] = tcp.listen(port, timeout_s=timeout_s)

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    client = tcp.connect("127.0.0.1", port, timeout_s=timeout_s)
    thread.join(timeout=timeout_s)
    return box["server"], client


def _both(server_fn, client_fn, channels):
    """Run both parties on threads; re-raise the first party error."""
    server_chan, client_chan = channels
    out: dict = {}
    errors: list[BaseException] = []

    def runner(name, fn, chan):
        def body():
            try:
                out[name] = fn(chan)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        return threading.Thread(target=body, name=f"party-{name}", daemon=True)

    threads = [
        runner("server", server_fn, server_chan),
        runner("client", client_fn, client_chan),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=TIMEOUT_S)
    if errors:
        raise errors[0]
    assert not any(t.is_alive() for t in threads), "party thread hung"
    return out["server"], out["client"]


def _detach_tracing(party):
    """The 'untraced' matrix axis: IO attribution becomes a no-op.

    The tracer object itself stays (spans structure the phase stats);
    what the matrix pins is that *recording* bytes never changes them.
    """
    party.tracer.record_io = lambda *_a, **_k: None


def _run_pipelined(
    qmodel,
    x,
    group,
    *,
    chunk,
    channels=None,
    banked=False,
    untraced=False,
    pipeline=True,
    seed=0,
):
    """One direct-party run; returns (logits, server, client)."""
    meta = ModelMeta.from_model(qmodel)
    batch = x.shape[0]
    x_ring = qmodel.encoder.encode(x.T)
    pipe = PipelineConfig(chunk=chunk) if pipeline else None
    if channels is None:
        channels = make_channel_pair(timeout_s=TIMEOUT_S)

    def server_fn(chan):
        server = Abnn2Server(
            chan, qmodel, batch, group=group, seed=seed + 1, pipeline=pipe
        )
        if untraced:
            _detach_tracing(server)
        server.offline(rounds=1)
        if banked:
            server.load_offline_round(server.export_offline_round())
        server.online()
        return server

    def client_fn(chan):
        client = Abnn2Client(
            chan, meta, batch, group=group, seed=seed + 2, pipeline=pipe
        )
        if untraced:
            _detach_tracing(client)
        client.offline(rounds=1)
        if banked:
            client.load_offline_round(client.export_offline_round())
        logits = client.online(x_ring)
        return client, logits

    server, (client, logits) = _both(server_fn, client_fn, channels)
    return logits, server, client


# --------------------------------------------------------------------- #
# the equivalence matrix
# --------------------------------------------------------------------- #
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_logits_match_sequential(
        self, pmodel, xs, test_group, sequential_ref, chunk, batch
    ):
        """Chunk size x batch width: logit shares byte-identical."""
        with _no_thread_leak():
            logits, server, client = _run_pipelined(
                pmodel, xs[:batch], test_group, chunk=chunk
            )
        assert (logits == sequential_ref[batch]).all()
        # The pipelined executor actually ran: both parties hold a mux
        # with the planned streams (main + one per ReLU layer).
        plan = build_plan(pmodel_meta(pmodel), pipelined=True)
        expected_tags = {MAIN_STREAM} | set(plan.stream_tags())
        for party in (server, client):
            assert party._mux is not None
            assert set(party._mux.stream_totals()) == expected_tags

    @pytest.mark.parametrize("chunk", [16, None])
    def test_banked_rounds_match(
        self, pmodel, xs, test_group, sequential_ref, chunk
    ):
        """export/load round-tripped material composes with pipelining."""
        logits, _server, _client = _run_pipelined(
            pmodel, xs[:2], test_group, chunk=chunk, banked=True
        )
        assert (logits == sequential_ref[2]).all()

    def test_stream_totals_invariant_across_matrix(
        self, pmodel, xs, test_group, sequential_ref
    ):
        """Per-stream byte totals depend on the chunk size alone — not on
        transport, tracer attachment, or banked offline material."""
        x = xs[:2]
        base_logits, base_s, base_c = _run_pipelined(
            pmodel, x, test_group, chunk=16
        )
        ref = {
            "server": base_s._mux.stream_totals(),
            "client": base_c._mux.stream_totals(),
        }
        variants = {
            "untraced": dict(untraced=True),
            "banked": dict(banked=True),
        }
        for name, kwargs in variants.items():
            logits, server, client = _run_pipelined(
                pmodel, x, test_group, chunk=16, **kwargs
            )
            assert (logits == base_logits).all(), name
            assert server._mux.stream_totals() == ref["server"], name
            assert client._mux.stream_totals() == ref["client"], name

        channels = _tcp_pair(timeout_s=TIMEOUT_S)
        try:
            logits, server, client = _run_pipelined(
                pmodel, x, test_group, chunk=16, channels=channels
            )
            assert (logits == base_logits).all()
            assert server._mux.stream_totals() == ref["server"]
            assert client._mux.stream_totals() == ref["client"]
        finally:
            channels[0].close()
            channels[1].close()

    def test_stream_totals_mirror_between_parties(self, pmodel, xs, test_group):
        """Per tag: one party's sends are the other party's receives."""
        _logits, server, client = _run_pipelined(pmodel, xs[:2], test_group, chunk=16)
        st, ct = server._mux.stream_totals(), client._mux.stream_totals()
        assert set(st) == set(ct)
        for tag in st:
            assert st[tag]["sent_bytes"] == ct[tag]["recv_bytes"]
            assert st[tag]["recv_bytes"] == ct[tag]["sent_bytes"]
            assert st[tag]["sent_msgs"] == ct[tag]["recv_msgs"]
            assert st[tag]["recv_msgs"] == ct[tag]["sent_msgs"]

    def test_chunking_overhead_is_the_closed_form(self, pmodel, xs, test_group):
        """Shrinking the chunk adds exactly the framing overhead delta on
        each GC stream (per party, sent+received)."""
        runs = {
            chunk: _run_pipelined(pmodel, xs[:2], test_group, chunk=chunk)
            for chunk in (None, 16, 1)
        }
        n_and = 3 * 32 - 2  # relu template AND gates at l=32
        for tag in (GC_STREAM_BASE, GC_STREAM_BASE + 1):
            totals = {}
            for chunk, (_l, server, _c) in runs.items():
                per_stream = server._mux.stream_totals()[tag]
                totals[chunk] = per_stream["sent_bytes"] + per_stream["recv_bytes"]
            for chunk in (16, 1):
                n_chunks = -(-n_and // chunk)
                expected = (
                    gc_stream_overhead_bits(n_chunks) - gc_stream_overhead_bits(1)
                ) // 8
                assert totals[chunk] - totals[None] == expected

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(chunk=0)
        with pytest.raises(ConfigError):
            PipelineConfig(window=0)


def pmodel_meta(qmodel):
    return ModelMeta.from_model(qmodel)


# --------------------------------------------------------------------- #
# streaming memory bound
# --------------------------------------------------------------------- #
class TestResidency:
    def test_peak_table_residency_is_o_chunk(self, pmodel, xs, test_group):
        """At chunk=16 the largest garbled-table block either party ever
        holds for transfer is one chunk, ~5.9x below the full table."""
        chunk, batch = 16, 4
        report = secure_predict(
            pmodel, xs[:batch], group=test_group, seed=0,
            pipeline=PipelineConfig(chunk=chunk),
        )
        n_inst = HIDDEN * batch
        n_and = 3 * 32 - 2
        full_bytes = table_block_bytes(n_and, n_inst)
        expected_peak = table_block_bytes(chunk, n_inst)
        for trace in (report.server_trace, report.client_trace):
            peaks = [
                span["attrs"]["peak_table_bytes"]
                for _path, span in iter_spans(trace)
                if span["name"] == "relu" and "peak_table_bytes" in span["attrs"]
            ]
            assert len(peaks) == 2  # one per ReLU layer
            for peak in peaks:
                assert peak == expected_peak
                assert peak * 5 < full_bytes

    def test_unbounded_chunk_ships_whole_table(self, pmodel, xs, test_group):
        report = secure_predict(
            pmodel, xs[:1], group=test_group, seed=0, pipeline=PipelineConfig()
        )
        n_and = 3 * 32 - 2
        for _path, span in iter_spans(report.server_trace):
            if span["name"] == "relu":
                assert span["attrs"]["stream_chunks"] == 1
                assert span["attrs"]["peak_table_bytes"] == table_block_bytes(
                    n_and, HIDDEN
                )


# --------------------------------------------------------------------- #
# tracer overlap conformance (per-stream spans vs Table 1 closed forms)
# --------------------------------------------------------------------- #
class TestStreamSpanConformance:
    @pytest.mark.parametrize("chunk", [16, 1])
    def test_relu_spans_byte_exact_despite_interleaving(
        self, pmodel, xs, test_group, chunk
    ):
        """Every streamed ReLU span equals gc_relu_wire_bits plus the
        exact chunk-framing overhead — on both parties, to the byte,
        even though table transfer interleaves with the main stream."""
        batch = 2
        report = secure_predict(
            pmodel, xs[:batch], group=test_group, seed=0,
            pipeline=PipelineConfig(chunk=chunk),
        )
        n_and = 3 * 32 - 2
        n_chunks = -(-n_and // chunk)
        for trace in (report.server_trace, report.client_trace):
            assert check_conformance(trace) == []
            relu_rows = [r for r in conformance_rows(trace) if r.kind == "relu"]
            assert len(relu_rows) == 2
            for row in relu_rows:
                assert row.ok is True
                assert row.slack_min_bits == row.slack_max_bits == 0
                predicted = gc_relu_wire_bits(
                    32, HIDDEN * batch
                ) + gc_stream_overhead_bits(n_chunks)
                assert row.predicted_bits == predicted
                assert row.core_bits == predicted  # byte equality, no slack
            # The spans advertise how they were streamed.
            for _path, span in iter_spans(trace):
                if span["name"] == "relu":
                    assert span["attrs"]["stream_chunks"] == n_chunks

    def test_sequential_spans_unchanged(self, pmodel, xs, test_group):
        """No pipeline => no stream_chunks attr, legacy predicted form."""
        report = secure_predict(pmodel, xs[:2], group=test_group, seed=0)
        for trace in (report.server_trace, report.client_trace):
            assert check_conformance(trace) == []
            for _path, span in iter_spans(trace):
                if span["name"] == "relu":
                    assert "stream_chunks" not in span["attrs"]


# --------------------------------------------------------------------- #
# graceful degradation
# --------------------------------------------------------------------- #
class _MuxlessChannel:
    """A transport that opts out of mux framing (both endpoints agree)."""

    supports_mux = False

    def __init__(self, inner):
        self._inner = inner

    @property
    def party(self):
        return self._inner.party

    @property
    def stats(self):
        return self._inner.stats

    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value):
        self._inner.tracer = value

    @property
    def timeout_s(self):
        return self._inner.timeout_s

    def send(self, obj):
        self._inner.send(obj)

    def recv(self):
        return self._inner.recv()

    def exchange(self, obj):
        self.send(obj)
        return self.recv()

    def close(self):
        self._inner.close()


class TestGracefulDegrade:
    def test_muxless_transport_runs_sequential_transcript(
        self, pmodel, xs, test_group, sequential_ref
    ):
        """pipeline= on a mux-incapable transport falls back to the
        sequential executor with a byte-identical wire transcript."""
        x = xs[:2]
        _logits, ref_server, ref_client = _run_pipelined(
            pmodel, x, test_group, chunk=None, pipeline=False
        )
        raw = make_channel_pair(timeout_s=TIMEOUT_S)
        channels = (_MuxlessChannel(raw[0]), _MuxlessChannel(raw[1]))
        with _no_thread_leak():
            logits, server, client = _run_pipelined(
                pmodel, x, test_group, chunk=16, channels=channels
            )
        assert (logits == sequential_ref[2]).all()
        assert server._mux is None and client._mux is None
        ref_stats = ref_server.chan.stats
        stats = raw[0].stats
        assert stats.bytes_sent == ref_stats.bytes_sent
        assert stats.messages_sent == ref_stats.messages_sent
        assert stats.rounds == ref_stats.rounds

    def test_optimized_relu_has_nothing_streamable(
        self, pmodel, xs, test_group
    ):
        """The optimized ReLU's stage-2 tables depend on online-revealed
        signs, so its plan declares nothing streamable and the pipelined
        request degrades to the sequential executor."""
        x = xs[:2]
        ref = secure_predict(
            pmodel, x, relu_variant="optimized", group=test_group, seed=0
        )
        report = secure_predict(
            pmodel, x, relu_variant="optimized", group=test_group, seed=0,
            pipeline=PipelineConfig(chunk=16),
        )
        assert (report.logits_int == ref.logits_int).all()
        assert report.online_client.payload_bytes == ref.online_client.payload_bytes
