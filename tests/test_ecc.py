"""The ECC codecs: parity, SECDED(72,64), DEC-TED BCH(79,64)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EccError
from repro.faults.ecc import (
    DecodeStatus,
    DectedCode,
    EvenParityCode,
    SecdedCode,
    flip_bits,
)


@pytest.fixture(scope="module")
def words():
    rng = random.Random(1234)
    return [rng.getrandbits(64) for _ in range(50)] + [0, (1 << 64) - 1, 1]


class TestFlipBits:
    def test_single_flip(self):
        assert flip_bits(0b1000, [3]) == 0
        assert flip_bits(0, [0, 2]) == 0b101

    def test_double_flip_same_position_cancels(self):
        assert flip_bits(0xDEAD, [5, 5]) == 0xDEAD

    def test_negative_position_rejected(self):
        with pytest.raises(EccError):
            flip_bits(1, [-1])


class TestEvenParity:
    def test_roundtrip(self, words):
        codec = EvenParityCode()
        for word in words:
            result = codec.decode(codec.encode(word))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == word

    def test_single_flip_detected(self, words):
        codec = EvenParityCode()
        for word in words[:10]:
            codeword = codec.encode(word)
            for pos in (0, 17, 63, 64):
                result = codec.decode(flip_bits(codeword, [pos]))
                assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_double_flip_undetected(self):
        # Parity's fundamental limit: even flip counts pass silently.
        codec = EvenParityCode()
        codeword = codec.encode(0x1234)
        result = codec.decode(flip_bits(codeword, [3, 40]))
        assert result.status is DecodeStatus.CLEAN
        assert result.data != 0x1234  # silent corruption

    def test_oversized_codeword_rejected(self):
        with pytest.raises(EccError):
            EvenParityCode().decode(1 << 65)


class TestSecded:
    def test_roundtrip(self, words):
        codec = SecdedCode()
        for word in words:
            result = codec.decode(codec.encode(word))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == word

    def test_every_single_bit_error_corrected(self):
        codec = SecdedCode()
        word = 0xA5A5_5A5A_0F0F_F0F0
        codeword = codec.encode(word)
        for pos in range(72):
            result = codec.decode(flip_bits(codeword, [pos]))
            assert result.status is DecodeStatus.CORRECTED, pos
            assert result.data == word, pos

    def test_double_bit_errors_detected(self, words):
        codec = SecdedCode()
        rng = random.Random(99)
        for word in words[:20]:
            codeword = codec.encode(word)
            positions = rng.sample(range(72), 2)
            result = codec.decode(flip_bits(codeword, positions))
            assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_corrected_positions_reported(self):
        codec = SecdedCode()
        codeword = codec.encode(7)
        result = codec.decode(flip_bits(codeword, [9]))
        assert result.corrected_positions == (9,)
        assert result.ok

    def test_uncorrectable_flagged_not_ok(self):
        codec = SecdedCode()
        result = codec.decode(flip_bits(codec.encode(7), [3, 9]))
        assert not result.ok

    def test_data_word_width_enforced(self):
        with pytest.raises(EccError):
            SecdedCode().encode(1 << 64)
        with pytest.raises(EccError):
            SecdedCode().encode(-1)


class LoopSecdedOracle:
    """The per-bit loop SECDED(72,64) codec, kept as the oracle of the
    table-driven :class:`SecdedCode` (same layout, same decisions)."""

    codeword_bits = 72
    check_positions = (1, 2, 4, 8, 16, 32, 64)
    data_positions = [
        pos for pos in range(1, 72) if pos not in (1, 2, 4, 8, 16, 32, 64)
    ]

    def encode(self, data):
        codeword = 0
        for i, pos in enumerate(self.data_positions):
            if (data >> i) & 1:
                codeword |= 1 << pos
        for check in self.check_positions:
            parity = 0
            for pos in range(1, self.codeword_bits):
                if pos & check and (codeword >> pos) & 1:
                    parity ^= 1
            if parity:
                codeword |= 1 << check
        if bin(codeword).count("1") & 1:
            codeword |= 1
        return codeword

    def syndrome(self, codeword):
        syndrome = 0
        for pos in range(1, self.codeword_bits):
            if (codeword >> pos) & 1:
                syndrome ^= pos
        return syndrome

    def extract(self, codeword):
        data = 0
        for i, pos in enumerate(self.data_positions):
            if (codeword >> pos) & 1:
                data |= 1 << i
        return data

    def decode(self, codeword):
        """``(data, status, corrected_positions)``."""
        syndrome = self.syndrome(codeword)
        parity_error = bin(codeword).count("1") & 1
        if syndrome == 0 and not parity_error:
            return self.extract(codeword), DecodeStatus.CLEAN, ()
        if syndrome == 0:
            return self.extract(codeword), DecodeStatus.CORRECTED, (0,)
        if parity_error and syndrome < self.codeword_bits:
            corrected = codeword ^ (1 << syndrome)
            return self.extract(corrected), DecodeStatus.CORRECTED, (syndrome,)
        return (
            self.extract(codeword), DecodeStatus.DETECTED_UNCORRECTABLE, ()
        )


class TestSecdedMatchesLoopOracle:
    @given(
        data=st.integers(min_value=0, max_value=(1 << 64) - 1),
        flips=st.lists(
            st.integers(min_value=0, max_value=71), max_size=3, unique=True
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_codec_matches_loop_oracle(self, data, flips):
        codec = SecdedCode()
        oracle = LoopSecdedOracle()
        codeword = codec.encode(data)
        assert codeword == oracle.encode(data)
        corrupted = flip_bits(codeword, flips)
        assert codec._syndrome(corrupted) == oracle.syndrome(corrupted)
        assert codec._extract(corrupted) == oracle.extract(corrupted)
        result = codec.decode(corrupted)
        assert (
            result.data, result.status, result.corrected_positions
        ) == oracle.decode(corrupted)

    def test_every_codeword_bit_against_oracle(self):
        # Exhaustive single-bit sweep: each spread/gather table entry
        # and check mask is hit at least once.
        codec = SecdedCode()
        oracle = LoopSecdedOracle()
        for pos in range(64):
            assert codec.encode(1 << pos) == oracle.encode(1 << pos)
        for pos in range(72):
            assert codec._syndrome(1 << pos) == oracle.syndrome(1 << pos)
            assert codec._extract(1 << pos) == oracle.extract(1 << pos)


class TestDected:
    @pytest.fixture(scope="class")
    def codec(self):
        return DectedCode()

    def test_roundtrip(self, codec, words):
        for word in words:
            result = codec.decode(codec.encode(word))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == word

    def test_every_single_bit_error_corrected(self, codec):
        word = 0x0123_4567_89AB_CDEF
        codeword = codec.encode(word)
        for pos in range(79):
            result = codec.decode(flip_bits(codeword, [pos]))
            assert result.status is DecodeStatus.CORRECTED, pos
            assert result.data == word, pos

    def test_random_double_bit_errors_corrected(self, codec, words):
        rng = random.Random(7)
        for word in words:
            codeword = codec.encode(word)
            positions = rng.sample(range(79), 2)
            result = codec.decode(flip_bits(codeword, positions))
            assert result.status is DecodeStatus.CORRECTED, positions
            assert result.data == word, positions

    def test_adjacent_double_bit_errors_corrected(self, codec):
        # Adjacent pairs are the physically common double-bit pattern.
        word = 0xFEED_FACE_CAFE_BEEF
        codeword = codec.encode(word)
        for pos in range(78):
            result = codec.decode(flip_bits(codeword, [pos, pos + 1]))
            assert result.status is DecodeStatus.CORRECTED, pos
            assert result.data == word, pos

    def test_triple_bit_errors_detected(self, codec, words):
        rng = random.Random(21)
        for word in words[:30]:
            codeword = codec.encode(word)
            positions = rng.sample(range(79), 3)
            result = codec.decode(flip_bits(codeword, positions))
            assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE, positions

    def test_parity_bit_plus_data_bit_corrected(self, codec):
        # The even-weight corner case: one BCH-part flip plus the
        # overall parity bit.
        word = 0x1111_2222_3333_4444
        codeword = codec.encode(word)
        result = codec.decode(flip_bits(codeword, [10, 78]))
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == word

    def test_stronger_than_secded(self, codec):
        # The Section-6 claim in codec form: a double-bit pattern that
        # SECDED can only detect, DEC-TED corrects.
        secded = SecdedCode()
        word = 0xDEAD_BEEF_DEAD_BEEF
        sec_result = secded.decode(flip_bits(secded.encode(word), [4, 33]))
        dec_result = codec.decode(flip_bits(codec.encode(word), [4, 33]))
        assert sec_result.status is DecodeStatus.DETECTED_UNCORRECTABLE
        assert dec_result.status is DecodeStatus.CORRECTED
        assert dec_result.data == word
