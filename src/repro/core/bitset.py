"""Packed uint64 bitset primitives of the word-native enumeration core.

The evidence pipeline already stores evidences as packed ``(n, n_words)``
uint64 word planes (:mod:`repro.core.evidence`).  This module provides the
matching packing primitives the enumerators need to build their
per-predicate membership planes and candidate rows; the search itself then
mutates preallocated uint64 planes in place (:mod:`repro.native`) — the
DCFinder-style bit-level engineering (Pena et al.) that keeps the per-node
budget of the search free of Python-int bitmask churn.

Bit layout matches the evidence words everywhere: bit ``b`` of a bitset
lives at word ``b // 64``, bit ``b % 64`` (word 0 least significant).

``popcount`` is :func:`numpy.bitwise_count` — numpy >= 2.0 is the declared
dependency floor, so there is exactly one popcount path.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 64


def n_words_for_bits(n_bits: int) -> int:
    """Number of uint64 words needed to hold ``n_bits`` bits (at least 1)."""
    return max(1, (int(n_bits) + _WORD_BITS - 1) // _WORD_BITS)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element number of set bits of a uint64 array."""
    return np.bitwise_count(words)


def pack_bool_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n_rows, n_bits)`` matrix into uint64 word rows.

    Returns an ``(n_rows, n_words_for_bits(n_bits))`` uint64 array with bit
    ``b`` of row ``r`` set iff ``matrix[r, b]``.
    """
    rows = np.ascontiguousarray(matrix, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D boolean matrix; got shape {rows.shape}")
    n_rows, n_bits = rows.shape
    padded_bits = n_words_for_bits(n_bits) * _WORD_BITS
    if n_bits < padded_bits:
        rows = np.concatenate(
            [rows, np.zeros((n_rows, padded_bits - n_bits), dtype=bool)], axis=1
        )
    packed_bytes = np.packbits(rows, axis=1, bitorder="little")
    # Reinterpreting little-endian bytes as "<u8" keeps bit b of the value at
    # position b regardless of the platform's native byte order; astype then
    # normalises to the native uint64 dtype without copying on little-endian.
    return np.ascontiguousarray(packed_bytes).view("<u8").astype(np.uint64, copy=False)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Boolean view of packed words; inverse of :func:`pack_bool_rows`.

    Accepts a single ``(n_words,)`` row or an ``(n_rows, n_words)`` plane and
    returns the matching boolean array truncated to ``n_bits`` positions.
    """
    contiguous = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = np.ascontiguousarray(contiguous.astype("<u8", copy=False)).view(np.uint8)
    as_bytes = as_bytes.reshape(contiguous.shape[:-1] + (contiguous.shape[-1] * 8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n_bits].astype(bool)


def full_bits(n_bits: int) -> np.ndarray:
    """Packed row with the first ``n_bits`` bits set (tail bits clear)."""
    row = np.zeros(n_words_for_bits(n_bits), dtype=np.uint64)
    full_words, remainder = divmod(int(n_bits), _WORD_BITS)
    row[:full_words] = np.uint64(0xFFFFFFFFFFFFFFFF)
    if remainder:
        row[full_words] = np.uint64((1 << remainder) - 1)
    return row
