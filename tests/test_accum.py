"""Exact uint64 segment sums (the np.add.at replacement)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils.accum import segment_sum_u64


def _reference(values, index, n_segments):
    out = np.zeros((n_segments, values.shape[1]), dtype=np.uint64)
    np.add.at(out, index, values)
    return out


class TestSegmentSum:
    def test_matches_add_at(self, rng):
        values = rng.integers(0, 1 << 63, size=(500, 3), dtype=np.uint64)
        index = rng.integers(0, 40, size=500)
        assert (segment_sum_u64(values, index, 40) == _reference(values, index, 40)).all()

    def test_wraps_mod_2_64(self):
        # Two near-max values in one bucket: the sum must wrap exactly.
        values = np.full((2, 1), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        index = np.zeros(2, dtype=np.int64)
        got = segment_sum_u64(values, index, 1)
        assert got[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFE)

    def test_empty_input(self):
        got = segment_sum_u64(np.zeros((0, 4), dtype=np.uint64), np.zeros(0, dtype=np.int64), 7)
        assert got.shape == (7, 4)
        assert not got.any()

    def test_untouched_segments_are_zero(self, rng):
        values = rng.integers(0, 100, size=(10, 2), dtype=np.uint64)
        index = np.full(10, 3, dtype=np.int64)
        got = segment_sum_u64(values, index, 5)
        assert (got[3] == values.sum(axis=0)).all()
        assert not got[[0, 1, 2, 4]].any()

    def test_rejects_out_of_range_index(self):
        values = np.ones((2, 1), dtype=np.uint64)
        with pytest.raises(ConfigError):
            segment_sum_u64(values, np.array([0, 5]), 3)
        with pytest.raises(ConfigError):
            segment_sum_u64(values, np.array([-1, 0]), 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            segment_sum_u64(np.zeros(4, dtype=np.uint64), np.zeros(4, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            segment_sum_u64(np.zeros((4, 1), dtype=np.uint64), np.zeros(3, dtype=np.int64), 2)

    def test_many_lanes(self, rng):
        values = rng.integers(0, 1 << 62, size=(64, 17), dtype=np.uint64)
        index = np.sort(rng.integers(0, 9, size=64))
        assert (segment_sum_u64(values, index, 9) == _reference(values, index, 9)).all()
