"""Unit + property tests: KDF, AEAD, DH."""

import hashlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.service import avs_identity
from repro.crypto import dh
from repro.crypto.aead import StreamAead
from repro.crypto.dh import (
    GENERATOR,
    MODP_GROUP_14,
    TABLE_BITS,
    TABLE_CACHE_SIZE,
    DhKeyPair,
    fixed_base_pow,
    generator_pow,
    shared_chain_pow,
    shared_secrets,
)
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract, hmac_sha256
from repro.errors import AuthenticationFailure, CryptoError


class TestKdf:
    def test_hkdf_rfc5869_case1(self):
        """RFC 5869 test case 1 (SHA-256)."""
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_expand_lengths(self):
        prk = hkdf_extract(b"salt", b"ikm")
        for n in (1, 31, 32, 33, 64, 100):
            assert len(hkdf_expand(prk, b"i", n)) == n

    def test_expand_too_long(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"0" * 32, b"", 256 * 32)

    def test_derive_key_labels_independent(self):
        assert derive_key(b"master", "a") != derive_key(b"master", "b")

    def test_hmac_known_answer(self):
        # RFC 4231 test case 2.
        out = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert out.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )


class TestAead:
    def test_round_trip(self):
        aead = StreamAead(b"k" * 32)
        nonce = b"n" * 12
        sealed = aead.seal(nonce, b"attack at dawn", aad=b"hdr")
        assert aead.open(nonce, sealed, aad=b"hdr") == b"attack at dawn"

    def test_ciphertext_differs_from_plaintext(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"attack at dawn")
        assert b"attack at dawn" not in sealed

    def test_tamper_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = bytearray(aead.seal(b"n" * 12, b"payload"))
        sealed[0] ^= 1
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, bytes(sealed))

    def test_wrong_aad_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"payload", aad=b"a")
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, sealed, aad=b"b")

    def test_wrong_key_detected(self):
        sealed = StreamAead(b"k" * 32).seal(b"n" * 12, b"payload")
        with pytest.raises(AuthenticationFailure):
            StreamAead(b"j" * 32).open(b"n" * 12, sealed)

    def test_wrong_nonce_detected(self):
        aead = StreamAead(b"k" * 32)
        sealed = aead.seal(b"n" * 12, b"payload")
        with pytest.raises(AuthenticationFailure):
            aead.open(b"m" * 12, sealed)

    def test_truncated_blob_rejected(self):
        aead = StreamAead(b"k" * 32)
        with pytest.raises(AuthenticationFailure):
            aead.open(b"n" * 12, b"short")

    def test_bad_nonce_length(self):
        aead = StreamAead(b"k" * 32)
        with pytest.raises(CryptoError):
            aead.seal(b"short", b"x")

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            StreamAead(b"tiny")

    @given(st.binary(max_size=512), st.binary(max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(self, plaintext, aad):
        aead = StreamAead(b"property-key-0123456789abcdef!!")
        nonce = b"\x01" * 12
        assert aead.open(nonce, aead.seal(nonce, plaintext, aad), aad) == plaintext


class TestDh:
    def test_shared_secret_agreement(self):
        alice = DhKeyPair.generate(b"a" * 32)
        bob = DhKeyPair.generate(b"b" * 32)
        assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)

    def test_different_peers_different_secrets(self):
        alice = DhKeyPair.generate(b"a" * 32)
        bob = DhKeyPair.generate(b"b" * 32)
        carol = DhKeyPair.generate(b"c" * 32)
        assert alice.shared_secret(bob.public) != alice.shared_secret(carol.public)

    def test_public_in_group(self):
        kp = DhKeyPair.generate(b"x" * 32)
        assert 2 <= kp.public <= MODP_GROUP_14 - 2

    def test_degenerate_peer_rejected(self):
        kp = DhKeyPair.generate(b"x" * 32)
        for bad in (0, 1, MODP_GROUP_14 - 1, MODP_GROUP_14):
            with pytest.raises(CryptoError):
                kp.shared_secret(bad)

    def test_insufficient_randomness_rejected(self):
        with pytest.raises(CryptoError):
            DhKeyPair.generate(b"short")

    def test_public_bytes_length(self):
        assert len(DhKeyPair.generate(b"x" * 32).public_bytes()) == 256

    @pytest.mark.parametrize("random_bytes, digest", [
        (b"a" * 32,
         "7c69daaf13b70cad5655428b17402b94886f0b39ee39f55590a2b0a1c044aa25"),
        (b"\xff" * 32,
         "e82814d8a07df00b182b9e24ffb93abf4ce4003b6619f4963c1b7fa531600246"),
        (bytes(range(64)),
         "d6a1173dcf2b8bf6b231ef631e8c8bc5bce924de2a1752ca2f0152019852b78d"),
    ])
    def test_public_bytes_pinned(self, random_bytes, digest):
        """Golden keys: how ``public`` is computed must never move a byte."""
        public = DhKeyPair.generate(random_bytes).public_bytes()
        assert hashlib.sha256(public).hexdigest() == digest

    @given(st.binary(min_size=32, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_public_is_generator_power(self, random_bytes):
        """``public == g^private mod p``; inputs past 32 bytes give
        exponents wider than 257 bits."""
        kp = DhKeyPair.generate(random_bytes)
        assert kp.public == pow(GENERATOR, kp.private, MODP_GROUP_14)


class TestGeneratorTable:
    def test_every_bit_length_matches_pow(self):
        """Each width from 0 to past the table (the ``pow`` fallback), with
        the lowest, highest and a mixed exponent of that width."""
        exponents = {0, 1, 2, 3, (1 << 256) + 1}
        for bits in range(1, TABLE_BITS + 9):
            top = 1 << (bits - 1)
            exponents |= {top, (top << 1) - 1, top | (0x5A5A5A5A5 % top)}
        for exponent in sorted(exponents):
            assert generator_pow(exponent) == pow(
                GENERATOR, exponent, MODP_GROUP_14
            ), exponent.bit_length()

    def test_import_builds_no_table(self):
        """Neither a table (the generator's or any other base's) nor the
        fleet's cloud identity exists until a handshake asks for one."""
        code = (
            "import repro, repro.crypto.dh as dh, repro.cloud.service as s; "
            "assert dh._base_table.cache_info().currsize == 0; "
            "assert s.avs_identity.cache_info().currsize == 0"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


def _width_sweep() -> list[int]:
    """0 and, for each width up to past the table, the lowest, highest and
    a mixed exponent of that width."""
    exponents = {0, 1, 2, 3, (1 << 256) + 1}
    for bits in range(1, TABLE_BITS + 9):
        top = 1 << (bits - 1)
        exponents |= {top, (top << 1) - 1, top | (0x5A5A5A5A5 % top)}
    return sorted(exponents)


#: One base from the group's whole range, fixed so a failure reproduces.
_RANDOM_BASE = random.Random(25).randrange(2, MODP_GROUP_14 - 1)


def _of_width(bits: int):
    """Exponents of exactly ``bits`` bits (0 for width 0)."""
    if bits == 0:
        return st.just(0)
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


class TestFixedBaseTable:
    @pytest.mark.parametrize("which", ["fleet-identity", "random-base"])
    def test_every_bit_length_matches_pow(self, which):
        base = avs_identity().public if which == "fleet-identity" else _RANDOM_BASE
        for exponent in _width_sweep():
            assert fixed_base_pow(base, exponent) == pow(
                base, exponent, MODP_GROUP_14
            ), exponent.bit_length()

    def test_cache_holds_at_most_its_bound(self):
        bases = [_RANDOM_BASE + i for i in range(TABLE_CACHE_SIZE + 2)]
        for base in bases:
            assert fixed_base_pow(base, 0x5A5A) == pow(base, 0x5A5A, MODP_GROUP_14)
        info = dh._base_table.cache_info()
        assert info.maxsize == TABLE_CACHE_SIZE
        assert info.currsize == TABLE_CACHE_SIZE

    def test_pinned_secret_matches_shared_secret(self):
        client = DhKeyPair.generate(b"c" * 32)
        server = avs_identity()
        assert client.pinned_secret(server.public) == client.shared_secret(
            server.public
        )
        for bad in (0, 1, MODP_GROUP_14 - 1, MODP_GROUP_14):
            with pytest.raises(CryptoError):
                client.pinned_secret(bad)


class TestSharedChain:
    def test_every_bit_length_matches_pow(self):
        exponents = _width_sweep()
        assert shared_chain_pow(_RANDOM_BASE, exponents) == [
            pow(_RANDOM_BASE, e, MODP_GROUP_14) for e in exponents
        ]

    @given(
        base=st.integers(2, MODP_GROUP_14 - 2),
        exponents=st.lists(
            st.integers(0, TABLE_BITS + 8).flatmap(_of_width),
            min_size=1, max_size=4,
        ),
        repeat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_pow(self, base, exponents, repeat):
        """Random bases, exponents of any width up to past the table, and
        (``repeat``) an exponent listed twice."""
        if repeat:
            exponents = exponents + exponents[:1]
        assert shared_chain_pow(base, exponents) == [
            pow(base, e, MODP_GROUP_14) for e in exponents
        ]

    def test_shared_secrets_match_one_at_a_time(self):
        peer = DhKeyPair.generate(b"p" * 32).public
        keys = (DhKeyPair.generate(b"e" * 32), avs_identity())
        assert shared_secrets(peer, keys) == [k.shared_secret(peer) for k in keys]
        with pytest.raises(CryptoError):
            shared_secrets(MODP_GROUP_14 - 1, keys)
