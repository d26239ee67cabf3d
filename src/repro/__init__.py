"""ABNN2: secure two-party arbitrary-bitwidth quantized NN predictions.

Reproduction of Shen et al., DAC 2022.  Typical usage::

    from repro import (
        Ring, FragmentScheme, mnist_mlp, synthetic_mnist,
        train_classifier, quantize_model, secure_predict,
    )

    data = synthetic_mnist()
    model = mnist_mlp()
    train_classifier(model, data.train_x, data.train_y)
    qmodel = quantize_model(model, FragmentScheme.from_bits((2, 2, 2, 2)), Ring(32))
    report = secure_predict(qmodel, data.test_x[:8])
    print(report.predictions)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table.
"""

import importlib

#: Each public name and the module it comes from.  They load on first
#: use (PEP 562), so importing one subsystem, such as the OT engine
#: ``repro.crypto.kk13``, does not load the whole protocol stack.
_EXPORTS = {
    "Ring": "repro.utils.ring",
    "FragmentScheme": "repro.quant.fragments",
    "FixedPointEncoder": "repro.quant.fixed_point",
    "SyntheticMnist": "repro.nn.data",
    "synthetic_mnist": "repro.nn.data",
    "Sequential": "repro.nn.model",
    "mnist_mlp": "repro.nn.model",
    "TrainConfig": "repro.nn.train",
    "train_classifier": "repro.nn.train",
    "QuantizedModel": "repro.nn.quantize",
    "quantize_model": "repro.nn.quantize",
    "optimal_scheme": "repro.core.params",
    "scheme_for": "repro.core.params",
    "Abnn2Server": "repro.core.protocol",
    "Abnn2Client": "repro.core.protocol",
    "ModelMeta": "repro.core.protocol",
    "PredictionReport": "repro.core.protocol",
    "secure_predict": "repro.core.protocol",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
