"""Client-side wrapper: connect, keep the session open, predict many times.

:class:`PredictionClient` is the TCP counterpart of
:class:`~repro.serve.server.PredictionServer`: it connects with the
wildcard session id (the server assigns one), runs the session-layer
hello, and then exposes :meth:`predict` — float features in, logits and
argmax labels out — once per offline round the server grants.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import ModelMeta
from repro.crypto.group import DEFAULT_GROUP, ModpGroup
from repro.errors import ChannelError, ConfigError
from repro.net import tcp
from repro.perf.trace import Tracer
from repro.quant.fixed_point import FixedPointEncoder
from repro.serve.session import ClientSession
from repro.utils.ring import Ring


class PredictionClient:
    """One serving connection from the data owner's side.

    ::

        with PredictionClient(meta, batch=4, port=srv.port) as client:
            logits, labels = client.predict(x)       # round 1
            logits, labels = client.predict(x2)      # round 2 (keep-alive)

    ``seed`` fixes the client's randomness, for tests only: interactive
    sessions under one seed draw the same input mask, so the server
    learns the difference of their inputs.  Leave it ``None`` for real inputs.
    """

    def __init__(
        self,
        meta: ModelMeta,
        batch: int,
        *,
        host: str = "127.0.0.1",
        port: int,
        mode: str = "bank",
        relu_variant: str = "oblivious",
        timeout_s: float = 600.0,
        group: ModpGroup = DEFAULT_GROUP,
        seed: int | None = None,
        tracer: Tracer | None = None,
        channel_wrap=None,
    ) -> None:
        self.meta = meta
        self.batch = batch
        self.ring = Ring(meta.ring_bits)
        self.encoder = FixedPointEncoder(self.ring, meta.frac_bits)
        self.chan = tcp.connect(
            host, port, timeout_s=timeout_s, session_id=tcp.SESSION_ANY
        )
        if channel_wrap is not None:
            # e.g. a ShapedChannel for link-shaped benchmarking.
            self.chan = channel_wrap(self.chan)
        try:
            self.session = ClientSession(
                self.chan, meta, batch, relu_variant=relu_variant, mode=mode,
                group=group, seed=seed, tracer=tracer,
            )
        except Exception:
            # Best-effort teardown: a socket already reset by the server
            # must not raise out of close() here and replace the typed
            # deny reason the session-layer exception carries.
            try:
                self.chan.close()
            except (ChannelError, OSError):
                pass
            raise
        self.tracer = self.session.tracer
        self.session_id = self.session.session_id

    @property
    def rounds_done(self) -> int:
        return self.session.rounds_done

    def predict(self, x_float: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One secure prediction on ``(batch, features)`` float inputs.

        Returns ``(logits, labels)``: signed fixed-point logits shaped
        ``(classes, batch)`` and the argmax label per column.
        """
        x = np.asarray(x_float, dtype=np.float64)
        expected = (self.batch, self.meta.layers[0].in_features)
        if x.shape != expected:
            raise ConfigError(f"expected input of shape {expected}, got {x.shape}")
        logits = self.session.predict_encoded(self.encoder.encode(x.T))
        labels = np.argmax(self.ring.to_signed(logits), axis=0)
        return logits, labels

    def close(self) -> None:
        self.session.close()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
