"""Traced protocol runs vs the analytic cost model (Table 1 conformance).

Every traced run here attaches a :class:`repro.perf.trace.Tracer` to the
channel, wraps the protocol in the span taxonomy that
:func:`repro.perf.report.conformance_rows` consumes, and asserts that
the measured wire bytes land inside the *derived* tolerance band
documented in ``repro/perf/report.py``:

* triplets, at every batch width: byte-exact at ``predicted + word-padding slack``
  (each wire chunk pads its packed elements to a word, so the slack is
  exactly computable and the band has zero width);
* GC ReLU, both variants: byte-exact against ``gc_relu_wire_bits`` at
  the layer's ``(l, m, f, n)`` (and, optimized, its revealed sign count).

Base-OT set-up traffic is isolated in ``base-ot`` spans by the channel's
OT set-up and subtracted by the checker before comparing; the set-up
itself is one zero-slack row per handshake against ``base_ot_setup_bits``.
"""

import numpy as np
import pytest

from repro.core.relu import relu_layer_client, relu_layer_server
from repro.core.triplets import (
    TripletConfig,
    generate_triplets_client,
    generate_triplets_server,
)
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.perf.costmodel import (
    abnn2_comm_bits_radices,
    base_ot_setup_bits,
    gc_relu_wire_bits,
)
from repro.perf.report import (
    check_conformance,
    conformance_rows,
    setup_rows,
    triplet_slack_bits,
)
from repro.perf.trace import Tracer
from repro.quant.fragments import TABLE2_SCHEMES
from repro.utils.ring import Ring


def _random_weights(scheme, shape, rng):
    lo, hi = scheme.weight_range
    return rng.integers(lo, hi + 1, size=shape)


def _traced_triplets(scheme, m, n, o, ring_bits, group, rng):
    """Run triplet generation with both parties traced.

    Returns ``(protocol_result, traces)`` where ``traces`` maps party
    name to the exported trace document.
    """
    ring = Ring(ring_bits)
    w = _random_weights(scheme, (m, n), rng)
    r = ring.sample(rng, (n, o))
    config = TripletConfig(ring=ring, scheme=scheme, m=m, n=n, o=o, group=group)
    attrs = dict(
        m=m,
        n=n,
        o=o,
        ring_bits=ring_bits,
        frag_n_values=[frag.n_values for frag in scheme.fragments],
    )
    traces = {}

    def server_fn(chan):
        tracer = Tracer("server")
        chan.tracer = tracer
        with tracer.span("offline/layer0/triplets", **attrs):
            u = generate_triplets_server(chan, w, config, seed=3)
        traces["server"] = tracer.to_dict()
        return u

    def client_fn(chan):
        tracer = Tracer("client")
        chan.tracer = tracer
        with tracer.span("offline/layer0/triplets", **attrs):
            v = generate_triplets_client(
                chan, r, config, np.random.default_rng(4), seed=5
            )
        traces["client"] = tracer.to_dict()
        return v

    result = run_protocol(server_fn, client_fn)
    expected = ring.matmul(ring.reduce(w), r)
    assert (ring.add(result.server, result.client) == expected).all()
    return result, traces


def _assert_conformant(result, traces, *, expect_exact):
    """Both parties' rows must be in tolerance and byte-identical views."""
    for party, trace in traces.items():
        rows = [row for row in conformance_rows(trace) if row.kind == "triplets"]
        assert len(rows) == 1, f"{party}: expected one triplets row, got {rows}"
        row = rows[0]
        assert row.path == "offline/layer0/triplets"
        assert row.ok is True, (
            f"{party}: core {row.core_bits} bits vs predicted {row.predicted_bits} "
            f"+ slack [{row.slack_min_bits}, {row.slack_max_bits}] ({row.detail})"
        )
        if expect_exact:
            assert row.slack_min_bits == row.slack_max_bits
            assert row.core_bits == row.predicted_bits + row.slack_min_bits
        assert check_conformance(trace) == []
        # Tracer totals must agree with the shared channel accounting:
        # both directions' payload bytes are visible to each party.
        totals = trace["root"]["total"]
        assert totals["sent_bytes"] + totals["recv_bytes"] == result.stats.total_bytes
        assert totals["rounds"] == result.stats.rounds


TRIPLET_GRID = [
    # scheme, m, n, o, ring_bits — exercises uniform and mixed radices,
    # o = 1 and o > 1, odd o (padding slack) and non-64-divisible l.
    ("binary", 4, 6, 4, 32),
    ("binary", 4, 6, 1, 32),
    ("ternary", 4, 6, 4, 32),
    ("ternary", 4, 6, 1, 32),
    ("4(2,2)", 4, 6, 4, 32),
    ("4(2,2)", 5, 3, 3, 17),
    ("4(2,2)", 5, 3, 3, 64),
    ("4(2,2)", 4, 6, 1, 32),
    ("8(3,3,2)", 4, 6, 4, 32),
    ("8(3,3,2)", 3, 5, 1, 32),
    ("3(2,1)", 4, 6, 3, 32),
    ("3(2,1)", 4, 6, 1, 17),
]


class TestTripletConformance:
    @pytest.mark.parametrize("scheme_name,m,n,o,ring_bits", TRIPLET_GRID)
    def test_traced_bytes_match_model(
        self, scheme_name, m, n, o, ring_bits, test_group, rng
    ):
        scheme = TABLE2_SCHEMES[scheme_name]
        result, traces = _traced_triplets(scheme, m, n, o, ring_bits, test_group, rng)
        _assert_conformant(result, traces, expect_exact=True)

    def test_multi_slack_formula(self):
        # Each chunk's N - 1 messages of o elements per OT are packed back
        # to back: the only slack is the chunk's padding to a word.
        assert triplet_slack_bits(4, 6, 2, 32, [2, 2]) == (0, 0)
        # 24 OTs x 3 messages x 3 elements x 32 bits fill 108 words
        assert triplet_slack_bits(4, 6, 3, 32, [4]) == (0, 0)
        # 30 OTs (two N = 4 fragments) x 9 elements x 17 bits = 4590 bits
        assert triplet_slack_bits(5, 3, 3, 17, [4, 4]) == (4608 - 4590,) * 2
        # one chunk per radix group: N = 3 packs 12 x 17 = 204 bits into 4
        # words, N = 2 packs 6 x 17 = 102 bits into 2
        assert triplet_slack_bits(2, 3, 1, 17, [3, 2]) == (52 + 26,) * 2

    def test_predicted_matches_scheme_form(self):
        # The radix-list form must agree with the FragmentScheme form.
        from repro.perf.costmodel import abnn2_comm_bits

        scheme = TABLE2_SCHEMES["8(3,3,2)"]
        radices = [frag.n_values for frag in scheme.fragments]
        for o in (1, 4):
            assert abnn2_comm_bits(scheme, 7, 11, o, 32) == (
                abnn2_comm_bits_radices(radices, 7, 11, o, 32)
            )


def _traced_relu(ring, y, z1, variant, group, width=None, shift=0):
    rng = np.random.default_rng(5)
    y1 = ring.sample(rng, y.shape)
    y0 = ring.sub(y, y1)
    width = ring.bits if width is None else width
    attrs = dict(
        variant=variant, n_relus=int(y.size), ring_bits=ring.bits, width=width, shift=shift
    )
    traces = {}

    def server_fn(chan):
        tracer = Tracer("server")
        chan.tracer = tracer
        sessions = GcSessions(chan, "evaluator", group=group, seed=1)
        with tracer.span("online/layer0/relu", **attrs):
            z0 = relu_layer_server(chan, y0, sessions, ring, variant, width, shift)
        traces["server"] = tracer.to_dict()
        return z0

    def client_fn(chan):
        tracer = Tracer("client")
        chan.tracer = tracer
        sessions = GcSessions(chan, "garbler", group=group, seed=2)
        with tracer.span("online/layer0/relu", **attrs):
            relu_layer_client(
                chan, y1, z1, sessions, ring, np.random.default_rng(9), variant,
                width, shift,
            )
        traces["client"] = tracer.to_dict()
        return True

    result = run_protocol(server_fn, client_fn)
    relu = ring.reduce(np.maximum(ring.to_signed(y) >> shift, 0))
    assert (ring.add(result.server, z1) == relu).all()
    return traces


def _bounded(ring, rng, n, width):
    """``n`` ring values with ``|y| < 2^(width-1)``."""
    half = 1 << (width - 1)
    return ring.reduce(rng.integers(-half + 1, half, size=n))


class TestGcReluConformance:
    @staticmethod
    def _assert_byte_exact(traces, predicted):
        for party, trace in traces.items():
            rows = [row for row in conformance_rows(trace) if row.kind == "relu"]
            assert len(rows) == 1
            row = rows[0]
            assert row.predicted_bits == predicted
            assert row.ok is True
            # the GC ReLU model is *exact*: zero-width tolerance band
            assert row.core_bits == row.predicted_bits, (
                f"{party}: measured-core {row.core_bits} != "
                f"predicted {row.predicted_bits}"
            )
            assert row.base_ot_bits > 0  # IKNP setup was isolated, not lost
            assert check_conformance(trace) == []

    @pytest.mark.parametrize("ring_bits,n_relus", [(4, 9), (8, 9), (8, 1)])
    def test_oblivious_relu_byte_exact(self, ring_bits, n_relus, test_group, rng):
        ring = Ring(ring_bits)
        y = ring.sample(rng, n_relus)
        z1 = ring.sample(rng, n_relus)
        traces = _traced_relu(ring, y, z1, "oblivious", test_group)
        self._assert_byte_exact(traces, gc_relu_wire_bits(ring_bits, n_relus))

    @pytest.mark.parametrize(
        "ring_bits,n_relus,width,shift", [(8, 9, 5, 2), (32, 7, 13, 3), (32, 3, 32, 5)]
    )
    def test_narrowed_relu_byte_exact(self, ring_bits, n_relus, width, shift, test_group, rng):
        """At width m and shift f, the (l, m, f, n) form, row table included."""
        ring = Ring(ring_bits)
        y = _bounded(ring, rng, n_relus, width)
        z1 = ring.sample(rng, n_relus)
        traces = _traced_relu(ring, y, z1, "oblivious", test_group, width, shift)
        self._assert_byte_exact(
            traces, gc_relu_wire_bits(ring_bits, n_relus, width, shift)
        )

    @pytest.mark.parametrize("ring_bits,width,shift", [(8, 8, 0), (32, 13, 3)])
    @pytest.mark.parametrize("sign", ["mixed", "negative", "positive"])
    def test_optimized_relu_byte_exact(self, ring_bits, width, shift, sign, test_group, rng):
        """The revealed sign count prices the optimized variant exactly,
        including the all-negative case that skips stage 2."""
        ring = Ring(ring_bits)
        half = 1 << (width - 1)
        lo, hi = {"mixed": (-half + 1, half), "negative": (-half + 1, 0), "positive": (0, half)}[sign]
        y = ring.reduce(rng.integers(lo, hi, size=6))
        z1 = ring.sample(rng, 6)
        traces = _traced_relu(ring, y, z1, "optimized", test_group, width, shift)
        n_positive = int((ring.to_signed(y) >= 0).sum())
        for trace in traces.values():
            rows = [row for row in conformance_rows(trace) if row.kind == "relu"]
            assert len(rows) == 1
            assert f"positive={n_positive}" in rows[0].detail
            assert rows[0].core_bits == rows[0].predicted_bits == gc_relu_wire_bits(
                ring_bits, 6, width, shift, "optimized", n_positive
            )
            assert check_conformance(trace) == []


class TestEndToEndTraceConformance:
    def test_secure_predict_traces_conform(self, trained_model, small_dataset, test_group):
        """Every modeled span in a full prediction run is within tolerance."""
        from repro.core.protocol import ModelMeta, secure_predict
        from repro.nn.quantize import quantize_model
        from repro.quant.fragments import FragmentScheme

        qmodel = quantize_model(
            trained_model, FragmentScheme.ternary(), Ring(32), frac_bits=6
        )
        batch = 2
        x = small_dataset.test_x[:batch]
        report = secure_predict(qmodel, x, group=test_group, seed=11)
        for trace in (report.server_trace, report.client_trace):
            assert trace is not None
            rows = conformance_rows(trace)
            # one triplets row and one oblivious-relu row per hidden layer,
            # plus a triplets row for the output layer
            assert sum(row.kind == "triplets" for row in rows) == len(qmodel.layers)
            assert all(row.ok is True for row in rows if row.predicted_bits is not None)
            # each layer's ReLU span is the (l, m, f, n) closed form to the byte
            # (the output ring, the next layer's, sizes the packed row table)
            relu_rows = [row for row in rows if row.kind == "relu"]
            meta = ModelMeta.from_model(qmodel)
            assert [row.core_bits for row in relu_rows] == [
                gc_relu_wire_bits(
                    meta.layer_ring(i + 1).bits, layer.out_features * batch,
                    layer.relu_bits, layer.truncate_bits,
                )
                for i, layer in enumerate(qmodel.layers[:-1])
            ]
            assert all(layer.relu_bits < 32 for layer in qmodel.layers[:-1])
            assert check_conformance(trace) == []


def _assert_one_setup(trace, columns: int, group) -> None:
    """Exactly one ``base-ot`` span, ``columns`` wide, at zero slack."""
    rows = setup_rows(trace)
    assert len(rows) == 1, [row.path for row in rows]
    row = rows[0]
    assert f"columns={columns} " in row.detail
    assert row.core_bits == row.predicted_bits == base_ot_setup_bits(
        columns, 8 * group.element_bytes
    )
    assert check_conformance(trace) == []


class TestSetupConformance:
    """One set-up per channel and direction, priced once (Table 1's way)."""

    def test_secure_predict_runs_one_c_max_setup(
        self, trained_model, small_dataset, test_group
    ):
        """One handshake per party, as wide as the model's widest KK13 code."""
        from repro.core.protocol import ModelMeta, secure_predict
        from repro.crypto.codes import code_length
        from repro.nn.quantize import quantize_model
        from repro.quant.fragments import FragmentScheme

        qmodel = quantize_model(
            trained_model, FragmentScheme.ternary(), Ring(32), frac_bits=6
        )
        c_max = max(
            code_length(frag.n_values)
            for layer in ModelMeta.from_model(qmodel).layers
            for frag in layer.scheme.fragments
        )
        report = secure_predict(qmodel, small_dataset.test_x[:1], group=test_group, seed=3)
        for trace in (report.server_trace, report.client_trace):
            _assert_one_setup(trace, c_max, test_group)

    def test_served_bank_session_runs_one_128_column_setup(self, test_group):
        import threading

        from repro.core.protocol import ModelMeta
        from repro.net.channel import make_channel_pair
        from repro.nn.model import mnist_mlp
        from repro.nn.quantize import quantize_model
        from repro.quant.fragments import FragmentScheme
        from repro.serve import ClientSession, ServerSession, TripletBank

        qmodel = quantize_model(
            mnist_mlp(seed=7, hidden=8, input_dim=16), FragmentScheme.ternary(),
            Ring(32), frac_bits=6,
        )
        bank = TripletBank(
            qmodel, 1, capacity=2, generator="dealer", auto_replenish=False,
            group=test_group, seed=11,
        )
        bank.fill(2)
        server_chan, client_chan = make_channel_pair(timeout_s=30.0)
        session = ServerSession(server_chan, qmodel, bank, session_id=1, group=test_group)
        thread = threading.Thread(target=session.run, daemon=True)
        thread.start()
        client = ClientSession(
            client_chan, ModelMeta.from_model(qmodel), 1, group=test_group, seed=9
        )
        for x in np.random.default_rng(6).uniform(0, 1, size=(2, 16)):
            client.predict_encoded(qmodel.encoder.encode(x[:, None]))
        client.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        for tracer in (session.tracer, client.tracer):
            _assert_one_setup(tracer.to_dict(), 128, test_group)
