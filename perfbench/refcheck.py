"""Reference computations for the benchmark's output checks.

Everything here is computed apart from ``src/``: AES comes from the
``cryptography`` package (OpenSSL AES-ECB) and GHASH is a bit-serial
GF(2^128) multiply written out below.  Only the *layouts* are taken from
the program's documentation:

* CTR pads, per ``crypto.fastpath.ctr_seeds``: block ``j`` of the line at
  ``address`` sealed under ``counter`` is ``AES_K(<QII address, counter, j)``
  and the ciphertext is the plaintext XOR that pad.
* XEX direct encryption, per ``crypto.modes.DirectEncryptor``: the tweak
  key is the bitwise-inverted data key, block ``j``'s tweak is
  ``T = AES_K'(<QQ address, j)`` and ``C = AES_K(P ^ T) ^ T``.
* Line tags, per ``crypto.mac.LineAuthenticator``: ``H = AES_K(0^128)``,
  ``tag = GHASH_H(C || <>QQ 0, 8*len(C)) ^ AES_K(<QQ address, counter)``,
  truncated to the scheme's tag size.

``test_refcheck.py`` pins this module to FIPS-197 and SP 800-38D vectors.
"""

from __future__ import annotations

import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

BLOCK = 16
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF
# x^128 + x^7 + x^2 + x + 1 in the bit-reflected GCM convention.
_R = 0xE1 << 120


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


class Aes:
    """AES-ECB block encryption through OpenSSL."""

    def __init__(self, key: bytes) -> None:
        self._encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()

    def encrypt(self, blocks: bytes) -> bytes:
        if len(blocks) % BLOCK:
            raise ValueError("input must be whole 16-byte blocks")
        return self._encryptor.update(blocks)


def gf128_mul(x: int, y: int) -> int:
    """Bit-serial product in GF(2^128), SP 800-38D Algorithm 1."""
    z = 0
    v = x
    for bit in range(127, -1, -1):
        if (y >> bit) & 1:
            z ^= v
        v = (v >> 1) ^ _R if v & 1 else v >> 1
    return z


def ghash(h: bytes, data: bytes) -> bytes:
    """GHASH_H over ``data`` zero-padded to whole blocks."""
    key = int.from_bytes(h, "big")
    y = 0
    padded = data + bytes(-len(data) % BLOCK)
    for offset in range(0, len(padded), BLOCK):
        y = gf128_mul(y ^ int.from_bytes(padded[offset : offset + BLOCK], "big"), key)
    return y.to_bytes(BLOCK, "big")


class Reference:
    """Expected ciphertexts and tags for one key."""

    def __init__(self, key: bytes) -> None:
        self.aes = Aes(key)
        self.tweak_aes = Aes(bytes(b ^ 0xFF for b in key))
        self.h = self.aes.encrypt(bytes(BLOCK))

    def ctr_line(self, address: int, counter: int, plaintext: bytes) -> bytes:
        """Counter-mode ciphertext of one line."""
        seeds = b"".join(
            struct.pack("<QII", address & _MASK64, counter & _MASK32, j)
            for j in range(len(plaintext) // BLOCK)
        )
        return _xor(plaintext, self.aes.encrypt(seeds))

    def xex_line(self, address: int, plaintext: bytes) -> bytes:
        """XEX direct-encryption ciphertext of one line."""
        tweaks = self.tweak_aes.encrypt(
            b"".join(
                struct.pack("<QQ", address & _MASK64, j)
                for j in range(len(plaintext) // BLOCK)
            )
        )
        return _xor(self.aes.encrypt(_xor(plaintext, tweaks)), tweaks)

    def tag(self, address: int, counter: int, ciphertext: bytes, tag_bytes: int) -> bytes:
        """GMAC-style line tag, truncated to ``tag_bytes``."""
        digest = ghash(self.h, ciphertext + struct.pack(">QQ", 0, len(ciphertext) * 8))
        mask = self.aes.encrypt(struct.pack("<QQ", address & _MASK64, counter & _MASK64))
        return _xor(digest, mask)[:tag_bytes]
