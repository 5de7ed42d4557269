"""Known-answer tests for the benchmark's reference checker.

Run with ``python3 -m pytest perfbench/test_refcheck.py``.  The vectors
come from FIPS-197 (AES) and the GCM specification's test cases that
SP 800-38D adopts; GCM is rebuilt here from the checker's own AES and
GHASH, so a pass shows both are right independently of ``src/``.
"""

from __future__ import annotations

import struct

import pytest

from refcheck import BLOCK, Aes, Reference, gf128_mul, ghash

H = bytes.fromhex

FIPS197 = [
    # Appendix B
    ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),
    # Appendix C.1 / C.2 / C.3
    ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"),
]

_P3 = ("d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
_C3 = ("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985")

# (key, iv, plaintext, aad, ciphertext, tag): GCM test cases 1-4.
GCM = [
    ("00" * 16, "00" * 12, "", "", "", "58e2fccefa7e3061367f1d57a4e7455a"),
    ("00" * 16, "00" * 12, "00" * 16, "", "0388dace60b6a392f328c2b971b2fe78",
     "ab6e47d42cec13bdf53a67b21257bddf"),
    ("feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", _P3, "", _C3,
     "4d5c2af327cd64a62cf35abd2ba6fab4"),
    ("feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", _P3[:120],
     "feedfacedeadbeeffeedfacedeadbeefabaddad2", _C3[:120],
     "5bc94fbc3221a5db94fae95ae7121a47"),
]


def _gcm(key: bytes, iv: bytes, plaintext: bytes, aad: bytes) -> tuple[bytes, bytes]:
    """AES-GCM with a 96-bit IV, built from the checker's primitives."""
    aes = Aes(key)
    h = aes.encrypt(bytes(BLOCK))
    j0 = iv + struct.pack(">I", 1)
    blocks = -(-len(plaintext) // BLOCK)
    pads = aes.encrypt(b"".join(iv + struct.pack(">I", 2 + i) for i in range(blocks)))
    ciphertext = bytes(p ^ k for p, k in zip(plaintext, pads))
    lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
    padded_aad = aad + bytes(-len(aad) % BLOCK)
    padded_ct = ciphertext + bytes(-len(ciphertext) % BLOCK)
    digest = ghash(h, padded_aad + padded_ct + lengths)
    tag = bytes(d ^ m for d, m in zip(digest, aes.encrypt(j0)))
    return ciphertext, tag


@pytest.mark.parametrize("key,plaintext,ciphertext", FIPS197)
def test_aes_fips197(key, plaintext, ciphertext):
    assert Aes(H(key)).encrypt(H(plaintext)) == H(ciphertext)


@pytest.mark.parametrize("key,iv,plaintext,aad,ciphertext,tag", GCM)
def test_gcm_vectors(key, iv, plaintext, aad, ciphertext, tag):
    assert _gcm(H(key), H(iv), H(plaintext), H(aad)) == (H(ciphertext), H(tag))


def test_ghash_key_of_test_case_2():
    # SP 800-38D example: H = AES_0(0^128).
    assert Aes(bytes(16)).encrypt(bytes(16)) == H("66e94bd4ef8a2c3b884cfa59ca342b2e")


def test_gf128_identity_and_commutativity():
    one = 1 << 127  # the field's 1 in the reflected convention
    x = int.from_bytes(H("66e94bd4ef8a2c3b884cfa59ca342b2e"), "big")
    y = int.from_bytes(H("0388dace60b6a392f328c2b971b2fe78"), "big")
    assert gf128_mul(x, one) == x
    assert gf128_mul(x, y) == gf128_mul(y, x)


def test_line_tag_is_gcm_tag_with_seed_block():
    # A line tag is GCM's tag with no AAD and the <QQ address, counter>
    # block in place of J0: check that identity on test case 3's data.
    key = H("feffe9928665731c6d6a8f9467308308")
    reference = Reference(key)
    ciphertext = H(_C3)
    seed = struct.pack("<QQ", 0x1000, 7)
    digest = ghash(reference.h, ciphertext + struct.pack(">QQ", 0, len(ciphertext) * 8))
    expected = bytes(d ^ m for d, m in zip(digest, Aes(key).encrypt(seed)))
    assert reference.tag(0x1000, 7, ciphertext, 16) == expected
    assert reference.tag(0x1000, 7, ciphertext, 8) == expected[:8]


def test_ctr_and_xex_layouts_round_trip():
    key = bytes(range(16))
    reference = Reference(key)
    line = bytes(range(128))
    pad = reference.ctr_line(0x2000, 3, bytes(128))
    assert reference.ctr_line(0x2000, 3, line) == bytes(a ^ b for a, b in zip(line, pad))
    first = Aes(key).encrypt(struct.pack("<QII", 0x2000, 3, 0))
    assert pad[:16] == first
    tweak_key = bytes(b ^ 0xFF for b in key)
    tweak = Aes(tweak_key).encrypt(struct.pack("<QQ", 0x2000, 0))
    block = bytes(a ^ b for a, b in zip(line[:16], tweak))
    expected = bytes(a ^ b for a, b in zip(Aes(key).encrypt(block), tweak))
    assert reference.xex_line(0x2000, line)[:16] == expected
