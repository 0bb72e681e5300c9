"""Pure-Python AES block cipher (AES-128/192/256), FIPS-197 from scratch.

The paper's TEDStore prototype encrypts chunks with OpenSSL AES-256 (secure
profile) or AES-128 (fast profile). We rebuild the block cipher here so the
reproduction carries no external crypto dependency. The implementation is a
straightforward byte-oriented realization of FIPS-197 (SubBytes, ShiftRows,
MixColumns, AddRoundKey) with the S-box generated from the GF(2^8) inverse at
import time rather than pasted in as a table.

Correctness is pinned by the FIPS-197 Appendix C known-answer vectors in the
test suite. Throughput is obviously far below OpenSSL; the performance
experiments that stream megabytes use :mod:`repro.crypto.shactr` instead (see
DESIGN.md §4 for the substitution rationale).
"""

from __future__ import annotations

import struct
from typing import List, Tuple


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial 0x11B."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> Tuple[bytes, bytes]:
    """Generate the AES S-box and its inverse from first principles."""
    # Multiplicative inverses in GF(2^8) via exponentiation tables on the
    # generator 0x03.
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 0x03)
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        inverse = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation over GF(2).
        transformed = 0
        for bit in range(8):
            t = (
                (inverse >> bit)
                ^ (inverse >> ((bit + 4) % 8))
                ^ (inverse >> ((bit + 5) % 8))
                ^ (inverse >> ((bit + 6) % 8))
                ^ (inverse >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= t << bit
        sbox[value] = transformed
        inv_sbox[transformed] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 0x02))

# Precomputed GF(2^8) multiplication tables for the MixColumns constants.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))

BLOCK_SIZE = 16

# -- T-tables (DESIGN.md §16) -------------------------------------------------
#
# The batched encrypt path folds SubBytes + ShiftRows + MixColumns into
# four 256-entry 32-bit tables: one full round becomes 16 table lookups
# and 16 XORs on big-endian column words, with no per-byte state
# mutation. Derived from the generated S-box, so still constant-free.
_T0 = tuple(
    (_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s]
    for s in _SBOX
)
_T1 = tuple(
    (_MUL3[s] << 24) | (_MUL2[s] << 16) | (s << 8) | s
    for s in _SBOX
)
_T2 = tuple(
    (s << 24) | (_MUL3[s] << 16) | (_MUL2[s] << 8) | s
    for s in _SBOX
)
_T3 = tuple(
    (s << 24) | (s << 16) | (_MUL3[s] << 8) | _MUL2[s]
    for s in _SBOX
)

_WORDS4 = struct.Struct(">4I")


class AES:
    """AES block cipher over 16-byte blocks.

    Args:
        key: 16, 24, or 32 bytes selecting AES-128/192/256.

    Example:
        >>> cipher = AES(bytes(range(16)))
        >>> block = cipher.encrypt_block(bytes.fromhex(
        ...     "00112233445566778899aabbccddeeff"))
        >>> cipher.decrypt_block(block).hex()
        '00112233445566778899aabbccddeeff'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24, or 32 bytes")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        # Word-form schedule for the T-table batch path: one flat tuple
        # of big-endian 32-bit columns, computed once per key and reused
        # across every block of every batch this cipher encrypts.
        self._round_words = tuple(
            word
            for round_key in self._round_keys
            for word in _WORDS4.unpack(round_key)
        )

    def _expand_key(self, key: bytes) -> List[bytes]:
        """FIPS-197 key schedule; returns per-round 16-byte subkeys."""
        nk = len(key) // 4
        words = [key[i * 4 : i * 4 + 4] for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                rotated = temp[1:] + temp[:1]
                temp = bytes(_SBOX[b] for b in rotated)
                temp = bytes([temp[0] ^ _RCON[i // nk - 1]]) + temp[1:]
            elif nk > 6 and i % nk == 4:
                temp = bytes(_SBOX[b] for b in temp)
            words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
        return [
            b"".join(words[r * 4 : r * 4 + 4]) for r in range(self.rounds + 1)
        ]

    @staticmethod
    def _add_round_key(state: bytearray, round_key: bytes) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: bytearray) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: bytearray) -> None:
        # State is column-major: state[row + 4*col].
        state[1], state[5], state[9], state[13] = (
            state[5],
            state[9],
            state[13],
            state[1],
        )
        state[2], state[6], state[10], state[14] = (
            state[10],
            state[14],
            state[2],
            state[6],
        )
        state[3], state[7], state[11], state[15] = (
            state[15],
            state[3],
            state[7],
            state[11],
        )

    @staticmethod
    def _inv_shift_rows(state: bytearray) -> None:
        state[5], state[9], state[13], state[1] = (
            state[1],
            state[5],
            state[9],
            state[13],
        )
        state[10], state[14], state[2], state[6] = (
            state[2],
            state[6],
            state[10],
            state[14],
        )
        state[15], state[3], state[7], state[11] = (
            state[3],
            state[7],
            state[11],
            state[15],
        )

    @staticmethod
    def _mix_columns(state: bytearray) -> None:
        for col in range(4):
            base = col * 4
            s0, s1, s2, s3 = state[base : base + 4]
            state[base] = _MUL2[s0] ^ _MUL3[s1] ^ s2 ^ s3
            state[base + 1] = s0 ^ _MUL2[s1] ^ _MUL3[s2] ^ s3
            state[base + 2] = s0 ^ s1 ^ _MUL2[s2] ^ _MUL3[s3]
            state[base + 3] = _MUL3[s0] ^ s1 ^ s2 ^ _MUL2[s3]

    @staticmethod
    def _inv_mix_columns(state: bytearray) -> None:
        for col in range(4):
            base = col * 4
            s0, s1, s2, s3 = state[base : base + 4]
            state[base] = _MUL14[s0] ^ _MUL11[s1] ^ _MUL13[s2] ^ _MUL9[s3]
            state[base + 1] = _MUL9[s0] ^ _MUL14[s1] ^ _MUL11[s2] ^ _MUL13[s3]
            state[base + 2] = _MUL13[s0] ^ _MUL9[s1] ^ _MUL14[s2] ^ _MUL11[s3]
            state[base + 3] = _MUL11[s0] ^ _MUL13[s1] ^ _MUL9[s2] ^ _MUL14[s3]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on 16-byte blocks")
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self.rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.rounds])
        return bytes(state)

    def encrypt_blocks(self, data) -> bytes:
        """Encrypt a run of consecutive 16-byte blocks in one call.

        ``data`` is any bytes-like object whose length is a multiple of
        16 (ECB over the batch — the CTR layer feeds counter blocks, so
        no chaining is wanted). Runs the T-table round function over
        every block with the word-form key schedule reused across the
        batch; byte-identical to calling :meth:`encrypt_block` per block
        (property-tested).
        """
        view = memoryview(data)
        if len(view) % BLOCK_SIZE:
            raise ValueError("batch length must be a multiple of 16")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sbox = _SBOX
        words = self._round_words
        rounds = self.rounds
        out = bytearray(len(view))
        unpack = _WORDS4.unpack_from
        pack = _WORDS4.pack_into
        for offset in range(0, len(view), BLOCK_SIZE):
            w0, w1, w2, w3 = unpack(view, offset)
            w0 ^= words[0]
            w1 ^= words[1]
            w2 ^= words[2]
            w3 ^= words[3]
            base = 4
            for _ in range(1, rounds):
                n0 = (
                    t0[w0 >> 24]
                    ^ t1[(w1 >> 16) & 0xFF]
                    ^ t2[(w2 >> 8) & 0xFF]
                    ^ t3[w3 & 0xFF]
                    ^ words[base]
                )
                n1 = (
                    t0[w1 >> 24]
                    ^ t1[(w2 >> 16) & 0xFF]
                    ^ t2[(w3 >> 8) & 0xFF]
                    ^ t3[w0 & 0xFF]
                    ^ words[base + 1]
                )
                n2 = (
                    t0[w2 >> 24]
                    ^ t1[(w3 >> 16) & 0xFF]
                    ^ t2[(w0 >> 8) & 0xFF]
                    ^ t3[w1 & 0xFF]
                    ^ words[base + 2]
                )
                n3 = (
                    t0[w3 >> 24]
                    ^ t1[(w0 >> 16) & 0xFF]
                    ^ t2[(w1 >> 8) & 0xFF]
                    ^ t3[w2 & 0xFF]
                    ^ words[base + 3]
                )
                w0, w1, w2, w3 = n0, n1, n2, n3
                base += 4
            pack(
                out,
                offset,
                (
                    (sbox[w0 >> 24] << 24)
                    | (sbox[(w1 >> 16) & 0xFF] << 16)
                    | (sbox[(w2 >> 8) & 0xFF] << 8)
                    | sbox[w3 & 0xFF]
                )
                ^ words[base],
                (
                    (sbox[w1 >> 24] << 24)
                    | (sbox[(w2 >> 16) & 0xFF] << 16)
                    | (sbox[(w3 >> 8) & 0xFF] << 8)
                    | sbox[w0 & 0xFF]
                )
                ^ words[base + 1],
                (
                    (sbox[w2 >> 24] << 24)
                    | (sbox[(w3 >> 16) & 0xFF] << 16)
                    | (sbox[(w0 >> 8) & 0xFF] << 8)
                    | sbox[w1 & 0xFF]
                )
                ^ words[base + 2],
                (
                    (sbox[w3 >> 24] << 24)
                    | (sbox[(w0 >> 16) & 0xFF] << 16)
                    | (sbox[(w1 >> 8) & 0xFF] << 8)
                    | sbox[w2 & 0xFF]
                )
                ^ words[base + 3],
            )
        return bytes(out)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError("AES operates on 16-byte blocks")
        state = bytearray(block)
        self._add_round_key(state, self._round_keys[self.rounds])
        for round_index in range(self.rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[round_index])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
