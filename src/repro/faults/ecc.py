"""Working error-correcting codes for the simulated cache arrays.

Three codecs, all operating on 64-bit data words held as Python ints:

* :class:`EvenParityCode` -- single even-parity bit, detect-only.  The
  X-Gene 2 L1 instruction and data caches are parity protected
  (Table 2).
* :class:`SecdedCode` -- Hamming SECDED(72,64): corrects any single-bit
  error and detects any double-bit error.  The L2 and L3 caches are ECC
  protected (Table 2); SECDED is the standard choice the paper's
  Section 6 calls out ("SECDEC ECC protection at the lower levels of
  the memory hierarchy does not provide enough protection at lower
  voltages").
* :class:`DectedCode` -- a double-error-correcting, triple-error-
  detecting shortened BCH(79,64) code over GF(2^7) plus an overall
  parity bit.  This implements the Section-6 "stronger error
  protection" design enhancement used by the ablation benchmarks.

These are real codecs: encode/decode round-trips, syndromes, Chien-style
root finding -- not lookup stubs -- so the cache models exercise genuine
correction/detection behaviour when the SRAM model flips bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import EccError

#: Width of the protected data word, bits.
DATA_BITS = 64


def flip_bits(word: int, positions: Iterable[int]) -> int:
    """Return ``word`` with the given bit positions flipped."""
    for pos in positions:
        if pos < 0:
            raise EccError(f"bit position must be non-negative, got {pos}")
        word ^= 1 << pos
    return word


class DecodeStatus(enum.Enum):
    """Outcome of decoding one codeword."""

    #: No error detected.
    CLEAN = "clean"
    #: Error(s) detected and corrected; data is trustworthy.
    CORRECTED = "corrected"
    #: Error detected but beyond the code's correction capability.
    DETECTED_UNCORRECTABLE = "detected_uncorrectable"


@dataclass(frozen=True)
class EccDecodeResult:
    """Result of decoding one codeword.

    ``data`` is best-effort when ``status`` is
    :data:`DecodeStatus.DETECTED_UNCORRECTABLE` and must not be consumed
    by correctness-sensitive callers.  ``corrected_positions`` lists the
    codeword bit indices that were repaired.
    """

    data: int
    status: DecodeStatus
    corrected_positions: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the returned data is trustworthy."""
        return self.status is not DecodeStatus.DETECTED_UNCORRECTABLE


def _check_data_word(data: int) -> int:
    if not isinstance(data, int):
        raise EccError(f"data word must be an int, got {type(data).__name__}")
    if data < 0 or data >> DATA_BITS:
        raise EccError(f"data word must fit in {DATA_BITS} bits")
    return data


# ---------------------------------------------------------------------------
# Even parity (L1 arrays).
# ---------------------------------------------------------------------------


class EvenParityCode:
    """Single even-parity bit over a 64-bit word: detects odd bit flips.

    Parity cannot correct; the cache model decides what a detected
    parity error means (clean line -> refetch, dirty line -> data loss).
    """

    codeword_bits = DATA_BITS + 1

    def encode(self, data: int) -> int:
        """Append the even-parity bit as bit 64 of the codeword."""
        data = _check_data_word(data)
        parity = bin(data).count("1") & 1
        return data | (parity << DATA_BITS)

    def decode(self, codeword: int) -> EccDecodeResult:
        """Check parity; any odd number of flips is detected."""
        if codeword < 0 or codeword >> self.codeword_bits:
            raise EccError(f"codeword must fit in {self.codeword_bits} bits")
        data = codeword & ((1 << DATA_BITS) - 1)
        if bin(codeword).count("1") & 1:
            return EccDecodeResult(data, DecodeStatus.DETECTED_UNCORRECTABLE)
        return EccDecodeResult(data, DecodeStatus.CLEAN)


# ---------------------------------------------------------------------------
# SECDED(72,64) Hamming (L2/L3 arrays).
# ---------------------------------------------------------------------------


def _byte_spread_tables(
    bit_map: Sequence[Optional[int]],
) -> Tuple[Tuple[int, ...], ...]:
    """Per source byte, the 256 images of its values under ``bit_map``.

    ``bit_map[i]`` is the destination bit of source bit ``i`` (None
    drops it); the image of a word is the OR of its bytes' table
    entries, so a 64-bit permutation costs 8 lookups instead of a
    per-bit loop.
    """
    tables = []
    for base in range(0, len(bit_map), 8):
        table = [0]
        for dst in bit_map[base:base + 8]:
            # Values with this bit set follow those without it.
            bit = 0 if dst is None else 1 << dst
            table += [entry | bit for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


#: SECDED(72,64) layout: check bits at the power-of-two positions, data
#: bits at the other positions 1..71 in ascending order.
_SECDED_BITS = 72
_SECDED_CHECKS = (1, 2, 4, 8, 16, 32, 64)
_SECDED_DATA_POSITIONS = tuple(
    pos for pos in range(1, _SECDED_BITS) if pos not in _SECDED_CHECKS
)
#: Data byte -> codeword bits, and codeword byte -> data bits.
_SECDED_SPREAD = _byte_spread_tables(_SECDED_DATA_POSITIONS)
_SECDED_GATHER = _byte_spread_tables([
    _SECDED_DATA_POSITIONS.index(pos) if pos in _SECDED_DATA_POSITIONS else None
    for pos in range(_SECDED_BITS)
])
#: Per check position, the Hamming positions (1..71) it covers.
_SECDED_CHECK_MASKS = tuple(
    (check, sum(1 << pos for pos in range(1, _SECDED_BITS) if pos & check))
    for check in _SECDED_CHECKS
)


class SecdedCode:
    """Hamming SECDED(72,64): single-error-correcting, double-detecting.

    Layout: classic extended Hamming.  Codeword positions 1..71 hold the
    Hamming code (check bits at the power-of-two positions, data bits at
    the rest); position 0 holds the overall even-parity bit.  The
    decoder distinguishes:

    * zero syndrome, parity OK          -> clean;
    * non-zero syndrome, parity flipped -> single error, corrected;
    * zero syndrome, parity flipped     -> parity bit itself flipped,
      corrected;
    * non-zero syndrome, parity OK      -> double error, detected.

    The codec is table driven: data bits move to and from their
    codeword positions through per-byte spread tables, and check bit
    ``c`` is the parity of the codeword under a mask of the positions
    with bit ``c`` set (``bin(x).count("1")``, a popcount that needs no
    Python 3.10 ``int.bit_count``).  The tables are built once, at
    import.
    """

    codeword_bits = _SECDED_BITS

    # -- encode ------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode a 64-bit word into a 72-bit SECDED codeword."""
        data = _check_data_word(data)
        codeword = 0
        for table in _SECDED_SPREAD:
            codeword |= table[data & 0xFF]
            data >>= 8
        # The check positions are still clear, so each mask's parity is
        # the parity of the data bits that check covers.
        for check, mask in _SECDED_CHECK_MASKS:
            if bin(codeword & mask).count("1") & 1:
                codeword |= 1 << check
        # Overall parity over the whole 72-bit word, kept even.
        if bin(codeword).count("1") & 1:
            codeword |= 1
        return codeword

    # -- decode ---------------------------------------------------------------

    def _syndrome(self, codeword: int) -> int:
        """XOR of the set Hamming positions, one masked parity per bit."""
        syndrome = 0
        for check, mask in _SECDED_CHECK_MASKS:
            if bin(codeword & mask).count("1") & 1:
                syndrome |= check
        return syndrome

    def _extract(self, codeword: int) -> int:
        data = 0
        for table in _SECDED_GATHER:
            data |= table[codeword & 0xFF]
            codeword >>= 8
        return data

    def decode(self, codeword: int) -> EccDecodeResult:
        """Decode a 72-bit codeword, correcting up to one flipped bit."""
        if codeword < 0 or codeword >> self.codeword_bits:
            raise EccError(f"codeword must fit in {self.codeword_bits} bits")
        syndrome = self._syndrome(codeword)
        parity_error = bin(codeword).count("1") & 1
        if syndrome == 0 and not parity_error:
            return EccDecodeResult(self._extract(codeword), DecodeStatus.CLEAN)
        if syndrome == 0 and parity_error:
            # The overall parity bit itself flipped.
            return EccDecodeResult(
                self._extract(codeword), DecodeStatus.CORRECTED, (0,)
            )
        if parity_error:
            # Odd number of flips with a valid location: single-bit error.
            if syndrome < self.codeword_bits:
                corrected = codeword ^ (1 << syndrome)
                return EccDecodeResult(
                    self._extract(corrected), DecodeStatus.CORRECTED, (syndrome,)
                )
            return EccDecodeResult(
                self._extract(codeword), DecodeStatus.DETECTED_UNCORRECTABLE
            )
        # Even number of flips but non-zero syndrome: double-bit error.
        return EccDecodeResult(
            self._extract(codeword), DecodeStatus.DETECTED_UNCORRECTABLE
        )


# ---------------------------------------------------------------------------
# DEC-TED shortened BCH(79,64) over GF(2^7) (Section-6 ablation).
# ---------------------------------------------------------------------------


class _GF128:
    """Arithmetic in GF(2^7) with primitive polynomial x^7 + x^3 + 1."""

    ORDER = 127  # multiplicative group order
    _PRIMITIVE_POLY = 0b10001001

    def __init__(self) -> None:
        self.exp = [0] * (2 * self.ORDER)
        self.log = [0] * (self.ORDER + 1)
        value = 1
        for power in range(self.ORDER):
            self.exp[power] = value
            self.log[value] = power
            value <<= 1
            if value & 0x80:
                value ^= self._PRIMITIVE_POLY
        for power in range(self.ORDER, 2 * self.ORDER):
            self.exp[power] = self.exp[power - self.ORDER]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(128)")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % self.ORDER]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            return 0
        return self.exp[(self.log[a] * n) % self.ORDER]

    def solve_quadratic_trace(self, c: int) -> Optional[int]:
        """Solve ``y^2 + y = c``; return one root or None if no solution.

        GF(2^7) is small enough that direct search (128 candidates) is
        both simple and fast; the other root is ``y ^ 1``.
        """
        for y in range(128):
            if self.mul(y, y) ^ y == c:
                return y
        return None


def _poly_mul_gf2(a: int, b: int) -> int:
    """Multiply two GF(2) polynomials held as bitmasks."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def _minimal_polynomial(gf: _GF128, element_log: int) -> int:
    """Minimal polynomial over GF(2) of alpha**element_log in GF(2^7).

    Built as prod (x - alpha**(element_log * 2^i)) over the conjugacy
    class; the product necessarily has GF(2) coefficients.
    """
    conjugates = []
    e = element_log % gf.ORDER
    while e not in conjugates:
        conjugates.append(e)
        e = (e * 2) % gf.ORDER
    # Polynomial with GF(128) coefficients, low-degree first.
    poly = [1]
    for conj in conjugates:
        root = gf.exp[conj]
        # poly *= (x + root)
        new = [0] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            new[i + 1] ^= coeff              # x * coeff
            new[i] ^= gf.mul(coeff, root)    # root * coeff
        poly = new
    mask = 0
    for i, coeff in enumerate(poly):
        if coeff not in (0, 1):
            raise EccError("minimal polynomial has non-binary coefficient")
        if coeff:
            mask |= 1 << i
    return mask


class DectedCode:
    """Shortened BCH(79,64) DEC-TED codec.

    The underlying code is the 2-error-correcting binary BCH code of
    length 127 with generator ``g(x) = m1(x) * m3(x)`` (degree 14),
    shortened to 64 data bits, plus one overall parity bit for
    triple-error *detection*.  Codeword layout (bit index in the int):

    * bits 0..13:  BCH parity (remainder of ``d(x) * x^14 mod g(x)``),
    * bits 14..77: data,
    * bit 78:      overall even parity.

    Decoding computes syndromes ``S1 = r(alpha)`` and ``S3 = r(alpha^3)``
    and solves the error locator directly (quadratic in GF(2^7)),
    using the overall parity bit to tell double from triple errors.
    """

    codeword_bits = 79
    _n_parity = 14
    _shortened_len = 78  # BCH part, without the overall parity bit

    def __init__(self) -> None:
        self._gf = _GF128()
        m1 = _minimal_polynomial(self._gf, 1)
        m3 = _minimal_polynomial(self._gf, 3)
        self._generator = _poly_mul_gf2(m1, m3)
        if self._generator.bit_length() - 1 != self._n_parity:
            raise EccError("unexpected BCH generator degree")

    # -- encode --------------------------------------------------------------

    def _bch_remainder(self, message: int) -> int:
        """Remainder of ``message`` (already shifted) divided by g(x)."""
        gen = self._generator
        gen_deg = self._n_parity
        rem = message
        for bit in range(rem.bit_length() - 1, gen_deg - 1, -1):
            if (rem >> bit) & 1:
                rem ^= gen << (bit - gen_deg)
        return rem

    def encode(self, data: int) -> int:
        """Encode a 64-bit word into a 79-bit DEC-TED codeword."""
        data = _check_data_word(data)
        shifted = data << self._n_parity
        codeword = shifted | self._bch_remainder(shifted)
        if bin(codeword).count("1") & 1:
            codeword |= 1 << (self._shortened_len)
        return codeword

    # -- decode ----------------------------------------------------------------

    def _syndromes(self, bch_part: int) -> Tuple[int, int]:
        gf = self._gf
        s1 = 0
        s3 = 0
        word = bch_part
        pos = 0
        while word:
            if word & 1:
                s1 ^= gf.exp[pos % gf.ORDER]
                s3 ^= gf.exp[(3 * pos) % gf.ORDER]
            word >>= 1
            pos += 1
        return s1, s3

    def _extract(self, bch_part: int) -> int:
        return bch_part >> self._n_parity

    def decode(self, codeword: int) -> EccDecodeResult:
        """Decode, correcting up to 2 flipped bits, detecting 3."""
        if codeword < 0 or codeword >> self.codeword_bits:
            raise EccError(f"codeword must fit in {self.codeword_bits} bits")
        gf = self._gf
        bch_part = codeword & ((1 << self._shortened_len) - 1)
        parity_odd = bool(bin(codeword).count("1") & 1)
        s1, s3 = self._syndromes(bch_part)

        if s1 == 0 and s3 == 0:
            if not parity_odd:
                return EccDecodeResult(self._extract(bch_part), DecodeStatus.CLEAN)
            # Only the overall parity bit flipped.
            return EccDecodeResult(
                self._extract(bch_part),
                DecodeStatus.CORRECTED,
                (self._shortened_len,),
            )

        if parity_odd:
            # Odd error count with non-zero syndrome: try single error.
            if s1 != 0 and s3 == gf.pow(s1, 3):
                pos = gf.log[s1]
                if pos < self._shortened_len:
                    corrected = bch_part ^ (1 << pos)
                    return EccDecodeResult(
                        self._extract(corrected), DecodeStatus.CORRECTED, (pos,)
                    )
            # Triple (or worse) error: detected, not correctable.
            return EccDecodeResult(
                self._extract(bch_part), DecodeStatus.DETECTED_UNCORRECTABLE
            )

        # Even error count with non-zero syndrome: try double error.
        if s1 != 0 and s3 == gf.pow(s1, 3):
            # One BCH-part error plus the overall parity bit flipped.
            pos = gf.log[s1]
            if pos < self._shortened_len:
                corrected = bch_part ^ (1 << pos)
                return EccDecodeResult(
                    self._extract(corrected),
                    DecodeStatus.CORRECTED,
                    (pos, self._shortened_len),
                )
            return EccDecodeResult(
                self._extract(bch_part), DecodeStatus.DETECTED_UNCORRECTABLE
            )
        if s1 != 0:
            # Locator: x^2 + s1*x + (s3 + s1^3)/s1 = 0; substitute
            # x = s1*y to get y^2 + y = q with q = (s3 + s1^3) / s1^3.
            q = gf.div(s3 ^ gf.pow(s1, 3), gf.pow(s1, 3))
            y = gf.solve_quadratic_trace(q)
            if y is not None and y not in (0, 1):
                x1 = gf.mul(s1, y)
                x2 = gf.mul(s1, y ^ 1)
                pos1, pos2 = gf.log[x1], gf.log[x2]
                if (
                    pos1 != pos2
                    and pos1 < self._shortened_len
                    and pos2 < self._shortened_len
                ):
                    corrected = bch_part ^ (1 << pos1) ^ (1 << pos2)
                    return EccDecodeResult(
                        self._extract(corrected),
                        DecodeStatus.CORRECTED,
                        tuple(sorted((pos1, pos2))),
                    )
        return EccDecodeResult(
            self._extract(bch_part), DecodeStatus.DETECTED_UNCORRECTABLE
        )
