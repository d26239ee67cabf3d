"""The Winograd F(2x2,3x3) names the end-to-end probe still times.

Every conv layer lowers with im2col; :class:`WinogradSpec` and
:func:`lower_tiles` are kept for ``benchmarks/e2e/probes.py::nn_probes``
only (EXPERIMENTS.md, *Winograd verdict*).  These tests pin their tile
geometry and that the input transform commutes with additive sharing.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.nn.lowering import Im2colSpec
from repro.nn.winograd import WinogradSpec, lower_tiles
from repro.utils.ring import Ring


class TestWinogradSpec:
    def test_geometry(self):
        spec = WinogradSpec(2, 8, 8)
        assert (spec.out_h, spec.out_w) == (6, 6)
        assert (spec.tiles_h, spec.tiles_w) == (3, 3)
        assert spec.n_tiles == 9
        assert (spec.pad_h, spec.pad_w) == (8, 8)

    def test_odd_output_pads(self):
        spec = WinogradSpec(1, 7, 6)  # out 5x4 -> tiles 3x2
        assert spec.n_tiles == 6
        assert spec.pad_h == 8 and spec.pad_w == 6

    def test_eligibility(self):
        assert WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=3, stride=1))
        assert not WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=3, stride=2))
        assert not WinogradSpec.supports(Im2colSpec(1, 8, 8, kernel=2, stride=1))
        with pytest.raises(ConfigError):
            WinogradSpec.from_im2col(Im2colSpec(1, 8, 8, kernel=3, stride=2))
        with pytest.raises(ConfigError):
            WinogradSpec(1, 2, 5)


class TestTransforms:
    def test_lowering_is_additive(self, rng):
        """B^T d B on shares equals B^T d B on the shared value."""
        ring = Ring(32)
        spec = WinogradSpec(2, 6, 6)
        z = ring.sample(rng, (spec.in_features, 2))
        z1 = ring.sample(rng, (spec.in_features, 2))
        z0 = ring.sub(z, z1)
        left = ring.add(lower_tiles(spec, z0, ring), lower_tiles(spec, z1, ring))
        assert (left == lower_tiles(spec, z, ring)).all()
