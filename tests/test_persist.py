"""Model/metadata persistence roundtrips."""

import json
import re

import numpy as np
import pytest

from repro.core.protocol import ModelMeta
from repro.errors import ConfigError
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, ReLU
from repro.nn.model import Sequential
from repro.nn.persist import (
    load_meta,
    load_model,
    save_meta,
    save_model,
    scheme_from_dict,
    scheme_to_dict,
)
from repro.nn.quantize import quantize_model
from repro.quant.fragments import TABLE2_SCHEMES, FragmentScheme
from repro.utils.ring import Ring


class TestSchemeDict:
    @pytest.mark.parametrize("name", sorted(TABLE2_SCHEMES))
    def test_roundtrip(self, name):
        scheme = TABLE2_SCHEMES[name]
        restored = scheme_from_dict(scheme_to_dict(scheme))
        assert restored.name == scheme.name
        assert restored.gamma == scheme.gamma
        assert restored.weight_range == scheme.weight_range
        for i in range(scheme.gamma):
            assert (restored.values(i) == scheme.values(i)).all()

    def test_json_serializable(self):
        json.dumps(scheme_to_dict(FragmentScheme.from_bits((3, 3, 2))))


class TestModelBundle:
    def test_roundtrip_mlp(self, trained_model, small_dataset, tmp_path):
        qm = quantize_model(
            trained_model, FragmentScheme.from_bits((2, 2)), Ring(32), frac_bits=6
        )
        path = tmp_path / "model.npz"
        save_model(path, qm)
        restored = load_model(path)

        x = small_dataset.test_x[:5]
        assert (restored.predict(x) == qm.predict(x)).all()
        got = restored.forward_int(restored.encoder.encode(x.T))
        expect = qm.forward_int(qm.encoder.encode(x.T))
        assert (got == expect).all()
        assert restored.output_deferral == qm.output_deferral

    def test_roundtrip_conv(self, tmp_path, rng):
        model = Sequential(
            [Conv2d(1, 2, kernel_size=3, seed=1), ReLU(), Flatten(), Dense(2 * 36, 4, seed=2)]
        )
        qm = quantize_model(
            model, FragmentScheme.ternary(), Ring(32), frac_bits=6, input_shape=(1, 8, 8)
        )
        path = tmp_path / "conv.npz"
        save_model(path, qm)
        restored = load_model(path)
        x = rng.uniform(0, 1, size=(2, 64))
        assert (restored.predict(x) == qm.predict(x)).all()
        assert restored.layers[0].conv == qm.layers[0].conv

    def test_version_check(self, trained_model, tmp_path):
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32))
        path = tmp_path / "model.npz"
        save_model(path, qm)
        # tamper with the version
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        manifest = json.loads(bytes(arrays["manifest"]).decode())
        manifest["format_version"] = 999
        arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ConfigError):
            load_model(path)


class TestMetaFile:
    def test_roundtrip(self, trained_model, tmp_path):
        qm = quantize_model(trained_model, FragmentScheme.from_bits((2, 1)), Ring(32))
        meta = ModelMeta.from_model(qm)
        path = tmp_path / "meta.json"
        save_meta(path, meta)
        restored = load_meta(path)
        assert restored.ring_bits == meta.ring_bits
        assert restored.frac_bits == meta.frac_bits
        assert len(restored.layers) == len(meta.layers)
        for a, b in zip(restored.layers, meta.layers):
            assert (a.out_features, a.in_features) == (b.out_features, b.in_features)
            assert a.scheme.name == b.scheme.name
            assert a.truncate_bits == b.truncate_bits

    def test_meta_contains_no_weights(self, trained_model, tmp_path):
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32))
        path = tmp_path / "meta.json"
        save_meta(path, ModelMeta.from_model(qm))
        text = path.read_text()
        doc = json.loads(text)
        # only architecture keys; nothing resembling a weight array
        assert "layers" in doc
        assert all("w" not in layer or layer["w"] is None for layer in doc["layers"])
        assert len(text) < 20_000  # weights would be megabytes

    def test_version_check(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(ConfigError):
            load_meta(path)


class TestReluWidthFields:
    """Format 3 carries the public ``relu_bits`` of every layer, the
    logits width included."""

    def test_roundtrip(self, trained_model, tmp_path):
        qm = quantize_model(trained_model, FragmentScheme.from_bits((2, 2)), Ring(32))
        save_model(tmp_path / "model.npz", qm)
        save_meta(tmp_path / "meta.json", ModelMeta.from_model(qm))
        model, meta = load_model(tmp_path / "model.npz"), load_meta(tmp_path / "meta.json")
        widths = [layer.relu_bits for layer in qm.layers]
        assert all(w is not None and w < 32 for w in widths)
        assert [layer.relu_bits for layer in model.layers] == widths
        assert [layer.relu_bits for layer in meta.layers] == widths

    def test_format_1_is_refused(self, trained_model, tmp_path):
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32))
        bundle, meta = tmp_path / "model.npz", tmp_path / "meta.json"
        save_model(bundle, qm)
        save_meta(meta, ModelMeta.from_model(qm))

        def to_format_1(doc):
            doc["format_version"] = 1
            for layer in doc["layers"]:
                layer.pop("relu_bits")
            return doc

        def edit(arrays):
            manifest = to_format_1(json.loads(bytes(arrays["manifest"]).decode()))
            arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)

        _rewrite_bundle(bundle, edit)
        meta.write_text(json.dumps(to_format_1(json.loads(meta.read_text()))))
        for load, path in ((load_model, bundle), (load_meta, meta)):
            with pytest.raises(ConfigError, match="format 1"):
                load(path)


    def test_format_2_is_refused(self, trained_model, tmp_path):
        """A format-2 file (no logits width) fails typed, naming its path."""
        qm = quantize_model(trained_model, FragmentScheme.ternary(), Ring(32))
        bundle, meta = tmp_path / "model.npz", tmp_path / "meta.json"
        save_model(bundle, qm)
        save_meta(meta, ModelMeta.from_model(qm))

        def to_format_2(doc):
            doc["format_version"] = 2
            doc["layers"][-1]["relu_bits"] = None
            return doc

        def edit(arrays):
            manifest = to_format_2(json.loads(bytes(arrays["manifest"]).decode()))
            arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)

        _rewrite_bundle(bundle, edit)
        meta.write_text(json.dumps(to_format_2(json.loads(meta.read_text()))))
        for load, path in ((load_model, bundle), (load_meta, meta)):
            with pytest.raises(ConfigError, match="format 2") as info:
                load(path)
            assert str(path) in str(info.value)


def _rewrite_bundle(path, edit) -> None:
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestMalformedFiles:
    """A malformed model bundle or meta file fails as one ConfigError
    naming its path, never as numpy's or json's raw exception."""

    @pytest.mark.parametrize("case", ["not_npz", "missing_manifest", "missing_weights"])
    def test_model_bundle(self, trained_model, tmp_path, case):
        path = tmp_path / "model.npz"
        save_model(path, quantize_model(trained_model, FragmentScheme.ternary(), Ring(32)))
        if case == "not_npz":
            path.write_text("this is not a model bundle")
        else:
            key = "manifest" if case == "missing_manifest" else "w1"
            _rewrite_bundle(path, lambda arrays: arrays.pop(key))
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[]", json.dumps({"format_version": 1, "ring_bits": 32, "frac_bits": 6})],
        ids=["not_json", "not_an_object", "missing_layers"],
    )
    def test_meta_file(self, tmp_path, text):
        path = tmp_path / "meta.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_meta(path)

    def test_declared_max_pool_never_loads_as_average(self, tmp_path):
        """Files written when max pooling existed carry a pool ``kind``:
        ``"avg"`` still loads, ``"max"`` is one ConfigError naming the path."""
        net = Sequential(
            [Conv2d(1, 2, 3, seed=0), ReLU(), AvgPool2d(2), Flatten(), Dense(18, 4, seed=1)]
        )
        qm = quantize_model(net, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8))
        bundle, meta = tmp_path / "model.npz", tmp_path / "meta.json"

        def declare(kind):
            def edit(arrays):
                manifest = json.loads(bytes(arrays["manifest"]).decode())
                manifest["layers"][0]["pool"]["kind"] = kind
                arrays["manifest"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)

            save_model(bundle, qm)
            _rewrite_bundle(bundle, edit)
            save_meta(meta, ModelMeta.from_model(qm))
            doc = json.loads(meta.read_text())
            doc["layers"][0]["pool"]["kind"] = kind
            meta.write_text(json.dumps(doc))

        declare("avg")
        assert load_model(bundle).layers[0].pool == qm.layers[0].pool
        assert load_meta(meta).layers[0].pool == qm.layers[0].pool
        declare("max")
        for path, load in ((bundle, load_model), (meta, load_meta)):
            with pytest.raises(ConfigError, match=re.escape(str(path))) as info:
                load(path)
            assert "'max' pooling is not supported" in str(info.value)
