"""Tests for the packed uint64 bitset primitives of the word-native core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitset import (
    full_bits,
    n_words_for_bits,
    pack_bool_rows,
    popcount,
    unpack_bits,
)


class TestPrimitives:
    def test_n_words_for_bits(self):
        assert n_words_for_bits(0) == 1
        assert n_words_for_bits(1) == 1
        assert n_words_for_bits(64) == 1
        assert n_words_for_bits(65) == 2
        assert n_words_for_bits(128) == 2
        assert n_words_for_bits(129) == 3

    @pytest.mark.parametrize("n_bits", [0, 1, 7, 63, 64, 65, 130])
    def test_pack_unpack_roundtrip(self, n_bits):
        rng = np.random.default_rng(n_bits)
        matrix = rng.random((5, n_bits)) > 0.5
        packed = pack_bool_rows(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, n_words_for_bits(n_bits))
        assert np.array_equal(unpack_bits(packed, n_bits), matrix)

    def test_pack_requires_2d(self):
        with pytest.raises(ValueError):
            pack_bool_rows(np.zeros(4, dtype=bool))

    def test_pack_bit_layout_matches_word_convention(self):
        # Bit b lives at word b // 64, bit b % 64.
        matrix = np.zeros((1, 130), dtype=bool)
        matrix[0, [0, 63, 64, 129]] = True
        packed = pack_bool_rows(matrix)
        assert int(packed[0, 0]) == (1 << 0) | (1 << 63)
        assert int(packed[0, 1]) == 1 << 0
        assert int(packed[0, 2]) == 1 << 1

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 128, 200])
    def test_full_bits(self, n_bits):
        row = full_bits(n_bits)
        assert np.array_equal(unpack_bits(row, max(n_bits, 1)).nonzero()[0],
                              np.arange(n_bits))
        # No tail bits beyond n_bits may be set.
        assert np.array_equal(unpack_bits(row, row.size * 64)[n_bits:],
                              np.zeros(row.size * 64 - n_bits, dtype=bool))

    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2 ** 63, size=(4, 3)).astype(np.uint64)
        expected = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        assert np.array_equal(popcount(words).astype(np.int64), expected)
