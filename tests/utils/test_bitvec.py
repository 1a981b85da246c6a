"""Unit + property tests for packed bit sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gatesim.logic import signatures_from_values
from repro.utils.bitvec import BitSequence, hamming_weight, pack_bits, unpack_bits

bits_lists = st.lists(st.integers(0, 1), min_size=1, max_size=200)


@st.composite
def long_bits_lists(draw, max_bits=1100):
    """Bit lists up to ~17 words long (the excitation trace is 973 cycles),
    drawn as raw bytes so long lists stay cheap to generate and shrink."""
    n = draw(st.integers(1, max_bits))
    raw = draw(st.binary(min_size=(n + 7) // 8, max_size=(n + 7) // 8))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n].tolist()


@st.composite
def bits_and_shifts(draw):
    """A long bit list and a shift in ``[0, len + 70]``, often a whole
    number of words so shifts without a carried remainder are covered."""
    bits = draw(long_bits_lists())
    limit = len(bits) + 70
    n = draw(
        st.one_of(
            st.integers(0, limit),
            st.integers(0, limit // 64).map(lambda k: 64 * k),
        )
    )
    return bits, n


class TestPackUnpack:
    def test_roundtrip_simple(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    def test_empty(self):
        assert pack_bits([]).size == 0
        assert hamming_weight(pack_bits([])) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            pack_bits([0, 2, 1])

    @given(bits_lists)
    def test_roundtrip_property(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)) == bits

    @given(bits_lists)
    def test_hamming_weight_matches_sum(self, bits):
        assert hamming_weight(pack_bits(bits)) == sum(bits)

    def test_word_boundary(self):
        bits = [1] * 64 + [0] * 63 + [1]
        packed = pack_bits(bits)
        assert packed.size == 2
        assert hamming_weight(packed) == 65
        assert unpack_bits(packed, 128) == bits


class TestBitSequence:
    def test_from_values_switching(self):
        # values 1,1,0,1,1 -> switches at cycles 2 and 3 only
        seq = BitSequence.from_values([1, 1, 0, 1, 1])
        assert seq.to_bits() == [0, 0, 1, 1, 0]

    def test_cycle_zero_never_switches(self):
        assert BitSequence.from_values([1]).to_bits() == [0]

    def test_get_set(self):
        seq = BitSequence(10)
        seq.set(3, 1)
        assert seq.get(3) == 1
        seq.set(3, 0)
        assert seq.get(3) == 0
        with pytest.raises(IndexError):
            seq.get(10)
        with pytest.raises(IndexError):
            seq.set(-1, 1)

    def test_and_requires_equal_length(self):
        with pytest.raises(ValueError):
            BitSequence(4) & BitSequence(5)

    @given(bits_lists)
    def test_popcount(self, bits):
        assert BitSequence.from_bits(bits).popcount() == sum(bits)

    @given(bits_and_shifts())
    def test_shift_left_semantics(self, case):
        bits, n = case
        seq = BitSequence.from_bits(bits).shift_left(n)
        expected = bits[n:] + [0] * min(n, len(bits))
        assert seq.to_bits() == expected[: len(bits)]
        # popcount reads whole words: no stray bits past the end.
        assert seq.popcount() == sum(expected[: len(bits)])

    @given(bits_and_shifts())
    def test_shift_right_semantics(self, case):
        bits, n = case
        seq = BitSequence.from_bits(bits).shift_right(n)
        expected = [0] * min(n, len(bits)) + bits[: max(len(bits) - n, 0)]
        assert seq.to_bits() == expected[: len(bits)]
        assert seq.popcount() == sum(expected[: len(bits)])

    @given(bits_and_shifts())
    def test_shift_negative_is_inverse_direction(self, case):
        bits, n = case
        seq = BitSequence.from_bits(bits)
        assert seq.shift_left(-n) == seq.shift_right(n)
        assert seq.shift_right(-n) == seq.shift_left(n)

    @given(bits_lists)
    def test_xor_or_and_consistency(self, bits):
        a = BitSequence.from_bits(bits)
        b = BitSequence.from_bits(list(reversed(bits)))
        assert (a ^ b).popcount() == sum(
            x != y for x, y in zip(bits, reversed(bits))
        )
        # (a & b) | (a ^ b) == a | b
        assert ((a & b) | (a ^ b)) == (a | b)

    @given(st.lists(long_bits_lists(), min_size=1, max_size=4))
    def test_signatures_from_values_matches_from_values(self, traces):
        # The first trace, and every other one after it, starts high.
        traces = [[1 - i % 2] + vals[1:] for i, vals in enumerate(traces)]
        packed = {7 * i: BitSequence.from_bits(v) for i, v in enumerate(traces)}
        sigs = signatures_from_values(packed)
        assert list(sigs) == list(packed)
        for i, vals in enumerate(traces):
            assert sigs[7 * i] == BitSequence.from_values(vals)

    def test_equality_and_hash(self):
        a = BitSequence.from_bits([1, 0, 1])
        b = BitSequence.from_bits([1, 0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != BitSequence.from_bits([1, 0, 0])


class TestCorrelation:
    def test_paper_example(self):
        """The worked example from Section 4 of the paper (Figure 3).

        Signatures are given MSB-first in the paper; our sequences index
        cycle 0 first, so reverse the strings.
        """
        def seq(s):
            return BitSequence.from_bits([int(c) for c in reversed(s)])

        rs = seq("01001101")
        g1 = seq("00101101")
        g2 = seq("01100111")
        g3 = seq("01001111")
        assert g1.correlation_with(rs, 0) == pytest.approx(3 / 4)
        assert g2.correlation_with(rs, 0) == pytest.approx(3 / 5)
        assert g3.correlation_with(rs, 1) == pytest.approx(2 / 5)

    def test_zero_for_silent_node(self):
        silent = BitSequence.from_bits([0, 0, 0, 0])
        rs = BitSequence.from_bits([1, 1, 1, 1])
        assert silent.correlation_with(rs, 0) == 0.0

    @given(bits_lists, st.integers(0, 8))
    def test_correlation_bounded(self, bits, shift):
        a = BitSequence.from_bits(bits)
        b = BitSequence.from_bits(bits[::-1])
        assert 0.0 <= a.correlation_with(b, shift) <= 1.0

    @given(bits_lists)
    def test_self_correlation_at_zero_shift(self, bits):
        a = BitSequence.from_bits(bits)
        if a.popcount():
            assert a.correlation_with(a, 0) == pytest.approx(1.0)
