"""Finite-field Diffie-Hellman over RFC 3526 group 14.

Used by the relay's TLS-like handshake for its (EC)DHE step: the real
2048-bit group, computed exactly.  The *cost* of the asymmetric step is
charged from the cost model, not measured from this Python
implementation, so how fast the host computes it never moves a simulated
cycle.

Raising the fixed generator multiplies entries of a precomputed table
(fixed-base windowing, HAC §14.6.3) instead of calling :func:`pow`; the
result is the same integer.  The table is built on first use, so
importing this module stays free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import CryptoError

# RFC 3526, 2048-bit MODP Group 14 prime; generator 2.
MODP_GROUP_14 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2
KEY_BYTES = 256  # 2048 bits

# Fixed-base table geometry: one row per 4-bit digit of the exponent.  65
# rows cover 260 bits, enough for the at most 257-bit private values that
# 32 bytes of randomness produce.
_WINDOW_BITS = 4
_TABLE_ROWS = 65
TABLE_BITS = _WINDOW_BITS * _TABLE_ROWS


@functools.cache
def _generator_table() -> tuple[tuple[int, ...], ...]:
    """``rows[i][d] == GENERATOR ** (d * 16**i) % MODP_GROUP_14``."""
    rows = []
    base = GENERATOR  # GENERATOR ** (16**i)
    for _ in range(_TABLE_ROWS):
        row = [1, base]
        for _ in range(2, 1 << _WINDOW_BITS):
            row.append(row[-1] * base % MODP_GROUP_14)
        rows.append(tuple(row))
        base = row[-1] * base % MODP_GROUP_14
    return tuple(rows)


def generator_pow(exponent: int) -> int:
    """``pow(GENERATOR, exponent, MODP_GROUP_14)`` for ``exponent >= 0``.

    One table entry per nonzero digit, at most 65 multiplies where
    :func:`pow` spends a squaring per exponent bit.  An exponent wider
    than the table falls back to :func:`pow`.
    """
    if exponent.bit_length() > TABLE_BITS:
        return pow(GENERATOR, exponent, MODP_GROUP_14)
    mask = (1 << _WINDOW_BITS) - 1
    result = 1
    for row in _generator_table():
        if not exponent:
            break
        digit = exponent & mask
        if digit:
            result = result * row[digit] % MODP_GROUP_14
        exponent >>= _WINDOW_BITS
    return result


@dataclass(frozen=True)
class DhKeyPair:
    """One party's DH key pair: a handshake ephemeral or a static identity."""

    private: int
    public: int

    @classmethod
    def generate(cls, random_bytes: bytes) -> "DhKeyPair":
        """Create a key pair from caller-supplied randomness (>= 32 bytes)."""
        if len(random_bytes) < 32:
            raise CryptoError("need at least 32 bytes of randomness")
        private = int.from_bytes(random_bytes, "big") % (MODP_GROUP_14 - 2) + 2
        return cls(private=private, public=generator_pow(private))

    def shared_secret(self, peer_public: int) -> bytes:
        """Compute the shared secret with a peer's public value.

        The base varies per peer, so there is no table to reuse; CPython's
        :func:`pow` already windows exponents of this size.
        """
        if not 2 <= peer_public <= MODP_GROUP_14 - 2:
            raise CryptoError("peer public value out of range")
        secret = pow(peer_public, self.private, MODP_GROUP_14)
        return secret.to_bytes(KEY_BYTES, "big")

    def public_bytes(self) -> bytes:
        """Wire encoding of the public value."""
        return self.public.to_bytes(KEY_BYTES, "big")
