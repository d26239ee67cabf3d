"""Persistence: ship a quantized model to the server, its metadata to the
client.

A deployment has three artifacts:

* the **server bundle** (``save_model`` / ``load_model``): weights,
  biases, schemes — an ``.npz`` with a JSON manifest inside;
* the **client metadata** (``save_meta`` / ``load_meta``): a JSON file
  with layer shapes, fragment schemes, ring/fixed-point parameters — no
  weights, exactly :class:`repro.core.protocol.ModelMeta`;
* the code, which is shared.

The formats are deliberately plain (npz + json) so they can be inspected
and diffed; they are versioned for forward compatibility.  A file that is
not a readable bundle of its kind raises one :class:`ConfigError` naming
its path (:func:`repro.errors.load_errors`).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.protocol import LayerMeta, ModelMeta
from repro.errors import ConfigError, load_errors
from repro.nn.lowering import Im2colSpec, PoolSpec
from repro.nn.quantize import QuantizedDense, QuantizedModel
from repro.quant.fragments import FragmentScheme, FragmentSpec
from repro.quant.schemes import QuantizedTensor
from repro.utils.ring import Ring

#: 3: ``relu_bits`` on every layer, the logits width included, sizing
#: each layer's ring (format-2 files lack the logits width and, like
#: format 1, are refused).
FORMAT_VERSION = 3


# --------------------------------------------------------------------- #
# scheme <-> dict
# --------------------------------------------------------------------- #
def scheme_to_dict(scheme: FragmentScheme) -> dict:
    return {
        "name": scheme.name,
        "eta": scheme.eta,
        "signed": scheme.signed,
        "fragments": [
            {"n_values": f.n_values, "values": list(f.values)} for f in scheme.fragments
        ],
    }


def scheme_from_dict(data: dict) -> FragmentScheme:
    fragments = [
        FragmentSpec(f["n_values"], tuple(f["values"])) for f in data["fragments"]
    ]
    return FragmentScheme(data["name"], data["eta"], fragments, data["signed"])


def _spec_to_dict(spec: Im2colSpec | None) -> dict | None:
    if spec is None:
        return None
    data = {
        "in_channels": spec.in_channels,
        "height": spec.height,
        "width": spec.width,
        "kernel": spec.kernel,
        "stride": spec.stride,
    }
    # The chunking policy is optional metadata: emitted only when set so
    # unchunked bundles stay byte-identical to the historical layout.
    if spec.chunk_cols is not None:
        data["chunk_cols"] = spec.chunk_cols
    return data


def _spec_from_dict(data: dict | None) -> Im2colSpec | None:
    return Im2colSpec(**data) if data else None


def _pool_to_dict(pool: PoolSpec | None) -> dict | None:
    if pool is None:
        return None
    return {
        "channels": pool.channels,
        "height": pool.height,
        "width": pool.width,
        "kernel": pool.kernel,
    }


def _pool_from_dict(data: dict | None) -> PoolSpec | None:
    if not data:
        return None
    # Older files carry a pool "kind"; a max pool must never load as an
    # average, which would silently give wrong predictions.
    fields = dict(data)
    kind = fields.pop("kind", "avg")
    if kind != "avg":
        raise ConfigError(f"{kind!r} pooling is not supported; only average pooling ships")
    return PoolSpec(**fields)


# --------------------------------------------------------------------- #
# server bundle
# --------------------------------------------------------------------- #
def save_model(path, model: QuantizedModel) -> None:
    """Write the full quantized model (server side) to an ``.npz``."""
    manifest = {
        "format_version": FORMAT_VERSION,
        "ring_bits": model.ring.bits,
        "frac_bits": model.encoder.frac_bits,
        "output_deferral": model.output_deferral,
        "layers": [
            {
                "scheme": scheme_to_dict(layer.scheme),
                "scale": layer.weights.scale,
                "shift": layer.weights.shift,
                "truncate_bits": layer.truncate_bits,
                "conv": _spec_to_dict(layer.conv),
                "pool": _pool_to_dict(layer.pool),
                "backend": layer.backend,
                "relu_bits": layer.relu_bits,
            }
            for layer in model.layers
        ],
    }
    arrays = {"manifest": np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)}
    for idx, layer in enumerate(model.layers):
        arrays[f"w{idx}"] = layer.w_int
        arrays[f"b{idx}"] = layer.bias_int
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path) -> QuantizedModel:
    """Inverse of :func:`save_model`."""
    with load_errors(path, "model bundle", f"format-{FORMAT_VERSION} model"):
        return _read_model(path)


def _read_model(path) -> QuantizedModel:
    with np.load(path) as bundle:
        manifest = json.loads(bytes(bundle["manifest"]).decode())
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported model format {manifest.get('format_version')}"
            )
        layers = []
        for idx, info in enumerate(manifest["layers"]):
            tensor = QuantizedTensor(
                ints=bundle[f"w{idx}"].astype(np.int64),
                scale=info["scale"],
                scheme=scheme_from_dict(info["scheme"]),
                shift=info["shift"],
            )
            layers.append(
                QuantizedDense(
                    weights=tensor,
                    bias_int=bundle[f"b{idx}"].astype(np.int64),
                    truncate_bits=info["truncate_bits"],
                    conv=_spec_from_dict(info["conv"]),
                    pool=_pool_from_dict(info.get("pool")),
                    backend=info.get("backend", "im2col"),
                    relu_bits=info["relu_bits"],
                )
            )
    return QuantizedModel(
        layers,
        Ring(manifest["ring_bits"]),
        manifest["frac_bits"],
        output_deferral=manifest["output_deferral"],
    )


# --------------------------------------------------------------------- #
# client metadata
# --------------------------------------------------------------------- #
def save_meta(path, meta: ModelMeta) -> None:
    """Write the weight-free architecture metadata (client side) as JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "ring_bits": meta.ring_bits,
        "frac_bits": meta.frac_bits,
        "layers": [
            {
                "out_features": layer.out_features,
                "in_features": layer.in_features,
                "scheme": scheme_to_dict(layer.scheme),
                "truncate_bits": layer.truncate_bits,
                "conv": _spec_to_dict(layer.conv),
                "pool": _pool_to_dict(layer.pool),
                "backend": layer.backend,
                "relu_bits": layer.relu_bits,
            }
            for layer in meta.layers
        ],
    }
    pathlib.Path(path).write_text(json.dumps(doc, indent=2))


def load_meta(path) -> ModelMeta:
    """Inverse of :func:`save_meta`."""
    with load_errors(path, "model meta", f"format-{FORMAT_VERSION} meta file"):
        return _read_meta(path)


def _read_meta(path) -> ModelMeta:
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported meta format {doc.get('format_version')}")
    layers = tuple(
        LayerMeta(
            out_features=info["out_features"],
            in_features=info["in_features"],
            scheme=scheme_from_dict(info["scheme"]),
            truncate_bits=info["truncate_bits"],
            conv=_spec_from_dict(info["conv"]),
            pool=_pool_from_dict(info.get("pool")),
            backend=info.get("backend", "im2col"),
            relu_bits=info["relu_bits"],
        )
        for info in doc["layers"]
    )
    return ModelMeta(layers=layers, ring_bits=doc["ring_bits"], frac_bits=doc["frac_bits"])
