"""Packed bit sequences.

Switching signatures (Section 4, Observation 2 of the paper) are binary
vectors with one entry per simulated cycle.  The paper stresses that the
bit-flip correlation can be computed with "fast bit-parallel calculation";
this module provides exactly that: sequences are stored 64 cycles per
``numpy.uint64`` word so AND/shift/popcount run word-parallel.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

_WORD_BITS = 64

# Per-byte popcount table; np.uint64 arrays are viewed as uint8 to count bits.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def pack_bits(bits: Sequence[int]) -> np.ndarray:
    """Pack an iterable of 0/1 ints into a little-endian uint64 word array.

    Bit ``i`` of the sequence lands in word ``i // 64`` at bit position
    ``i % 64``.
    """
    bits = np.asarray(list(bits), dtype=np.uint8)
    if bits.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if bits.max(initial=0) > 1:
        raise ValueError("pack_bits expects only 0/1 values")
    n_words = (bits.size + _WORD_BITS - 1) // _WORD_BITS
    padded = np.zeros(n_words * _WORD_BITS, dtype=np.uint8)
    padded[: bits.size] = bits
    words = padded.reshape(n_words, _WORD_BITS)
    weights = (np.uint64(1) << np.arange(_WORD_BITS, dtype=np.uint64))
    return (words.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def unpack_bits(words: np.ndarray, length: int) -> List[int]:
    """Inverse of :func:`pack_bits`: return the first ``length`` bits."""
    out: List[int] = []
    for i in range(length):
        word = int(words[i // _WORD_BITS])
        out.append((word >> (i % _WORD_BITS)) & 1)
    return out


def hamming_weight(words: np.ndarray) -> int:
    """Total number of set bits across a uint64 word array."""
    if words.size == 0:
        return 0
    return int(_POPCOUNT8[words.view(np.uint8)].sum())


class BitSequence:
    """An immutable-length bit sequence with word-parallel operations.

    Used for switching signatures: index ``i`` says whether a node toggled
    between cycles ``i-1`` and ``i``.  Supports the exact operations the
    paper's correlation formula needs: bitwise AND, logical left shift of the
    *sequence* (``ss(rs) << i`` drops the first ``i`` cycles and appends
    zeros), and Hamming weight.
    """

    __slots__ = ("length", "words")

    def __init__(self, length: int, words: np.ndarray | None = None):
        if length < 0:
            raise ValueError("length must be non-negative")
        self.length = length
        n_words = (length + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self.words = np.zeros(n_words, dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.shape != (n_words,):
                raise ValueError("words array has wrong dtype or shape")
            self.words = words.copy()
            self._mask_tail()

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitSequence":
        bits = list(bits)
        return cls(len(bits), pack_bits(bits))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "BitSequence":
        """Build a switching signature from a per-cycle logic-value trace.

        ``signature[i] = 1`` iff ``values[i] != values[i-1]``; cycle 0 is
        defined as not switching (there is no previous cycle).
        """
        vals = list(values)
        bits = [0] * len(vals)
        for i in range(1, len(vals)):
            bits[i] = 1 if vals[i] != vals[i - 1] else 0
        return cls.from_bits(bits)

    def _mask_tail(self) -> None:
        tail = self.length % _WORD_BITS
        if tail and self.words.size:
            mask = np.uint64((1 << tail) - 1)
            self.words[-1] &= mask

    def to_bits(self) -> List[int]:
        return unpack_bits(self.words, self.length)

    def popcount(self) -> int:
        return hamming_weight(self.words)

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range [0, {self.length})")
        return (int(self.words[i // _WORD_BITS]) >> (i % _WORD_BITS)) & 1

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range [0, {self.length})")
        word, bit = divmod(i, _WORD_BITS)
        if value:
            self.words[word] |= np.uint64(1 << bit)
        else:
            self.words[word] &= np.uint64(~np.uint64(1 << bit))

    def __and__(self, other: "BitSequence") -> "BitSequence":
        if other.length != self.length:
            raise ValueError("bit sequences must have equal length")
        return BitSequence(self.length, self.words & other.words)

    def __or__(self, other: "BitSequence") -> "BitSequence":
        if other.length != self.length:
            raise ValueError("bit sequences must have equal length")
        return BitSequence(self.length, self.words | other.words)

    def __xor__(self, other: "BitSequence") -> "BitSequence":
        if other.length != self.length:
            raise ValueError("bit sequences must have equal length")
        return BitSequence(self.length, self.words ^ other.words)

    def shift_left(self, n: int) -> "BitSequence":
        """Drop the first ``n`` entries, append ``n`` zeros at the end.

        This matches the paper's ``ss(rs) << i``: aligning the responding
        signal's switching at cycle ``j + i`` with the cone node's switching
        at cycle ``j`` (flips need ``i`` cycles to propagate through ``i``
        register stages).  Word-level: entry ``j + n`` sits in word
        ``(j + n) // 64``, so each output word is the input word ``n // 64``
        further on, shifted down by ``n % 64`` with the low bits of the
        following word carried in.
        """
        if n < 0:
            return self.shift_right(-n)
        offset, carry = divmod(n, _WORD_BITS)
        src = self.words[offset:]
        out = np.zeros_like(self.words)
        if src.size:
            out[: src.size] = src >> np.uint64(carry)
            if carry:
                out[: src.size - 1] |= src[1:] << np.uint64(_WORD_BITS - carry)
        return BitSequence(self.length, out)

    def shift_right(self, n: int) -> "BitSequence":
        """Prepend ``n`` zeros, dropping entries that fall off the end.

        The word-level mirror of :meth:`shift_left`: each output word is the
        input word ``n // 64`` earlier, shifted up by ``n % 64`` with the high
        bits of the preceding word carried in.
        """
        if n < 0:
            return self.shift_left(-n)
        offset, carry = divmod(n, _WORD_BITS)
        src = self.words[: max(self.words.size - offset, 0)]
        out = np.zeros_like(self.words)
        if src.size:
            out[offset:] = src << np.uint64(carry)
            if carry:
                out[offset + 1 :] |= src[:-1] >> np.uint64(_WORD_BITS - carry)
        return BitSequence(self.length, out)

    def correlation_with(self, other: "BitSequence", shift: int = 0) -> float:
        """The paper's bit-flip correlation.

        ``Corr_i(g, rs) = |ss(g) & (ss(rs) << i)| / |ss(g)|`` — the fraction
        of the node's toggles that line up with a responding-signal toggle
        ``shift`` cycles later.  Returns 0.0 for a node that never toggles.
        """
        own_weight = self.popcount()
        if own_weight == 0:
            return 0.0
        aligned = other.shift_left(shift) if shift >= 0 else other.shift_right(-shift)
        return (self & aligned).popcount() / own_weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self.length == other.length and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.length, self.words.tobytes()))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        prefix = "".join(str(b) for b in self.to_bits()[:32])
        more = "..." if self.length > 32 else ""
        return f"BitSequence({self.length}, {prefix}{more})"
