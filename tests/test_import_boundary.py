"""Import boundaries, each checked in a fresh interpreter.

* The shipped prediction paths never load the shard engine: a one-shot
  ``secure_predict`` and one served bank session may not import
  ``repro.exec`` or ``repro.net.mux``.  Both are reached only by their
  own tests and the benchmark's probes, so deleting them later must stay
  a pure deletion.
* The OT-extension engine does not depend on its 1-out-of-2 forms:
  importing ``repro.crypto.kk13`` does not load ``repro.crypto.iknp``.
"""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent(
    """
    import sys
    import threading

    import numpy as np

    from repro.core.protocol import ModelMeta, secure_predict
    from repro.crypto.group import MODP_TEST
    from repro.net.channel import make_channel_pair
    from repro.nn.model import mnist_mlp
    from repro.nn.quantize import quantize_model
    from repro.quant.fragments import FragmentScheme
    from repro.serve import ClientSession, ServerSession, TripletBank
    from repro.utils.ring import Ring

    qmodel = quantize_model(
        mnist_mlp(seed=7, hidden=8, input_dim=16), FragmentScheme.ternary(),
        Ring(32), frac_bits=6,
    )
    x = np.random.default_rng(3).uniform(0, 1, size=(1, 16))
    secure_predict(qmodel, x, group=MODP_TEST, seed=0)

    bank = TripletBank(
        qmodel, 1, capacity=1, generator="dealer", auto_replenish=False,
        group=MODP_TEST, seed=11,
    )
    bank.fill(1)
    server_chan, client_chan = make_channel_pair(timeout_s=30.0)
    server = ServerSession(server_chan, qmodel, bank, session_id=1, group=MODP_TEST, seed=5)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    client = ClientSession(client_chan, ModelMeta.from_model(qmodel), 1, group=MODP_TEST, seed=9)
    client.predict_encoded(qmodel.encoder.encode(x.T))
    client.close()
    thread.join(timeout=30)
    assert not thread.is_alive()
    print(" ".join(sorted(
        name for name in sys.modules
        if name == "repro.net.mux" or name.split(".")[:2] == ["repro", "exec"]
    )))
    """
)


def test_shipped_paths_do_not_import_the_shard_engine():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_the_ot_engine_does_not_import_its_two_choice_forms():
    result = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.crypto.kk13; print('repro.crypto.iknp' in sys.modules)",
        ],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
