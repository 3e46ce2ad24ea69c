"""Finite-field Diffie-Hellman over RFC 3526 group 14.

Used by the relay's TLS-like handshake for its (EC)DHE step: the real
2048-bit group, computed exactly.  The *cost* of the asymmetric step is
charged from the cost model, not measured from this Python
implementation, so how fast the host computes it never moves a simulated
cycle.

Every routine here returns the same integer as :func:`pow`.  A base that
is raised again and again (the generator, a pinned server key) gets a
precomputed table and is raised by multiplying its entries (fixed-base
windowing, HAC §14.6.3); one base raised to several exponents shares one
squaring chain (Yao's method, HAC Algorithm 14.109 with the powers
computed once per call instead of stored).  Tables are built on first
use, so importing this module stays free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

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

# Window geometry: exponents are read in 4-bit digits.  A fixed-base table
# has one row per digit; 65 rows cover 260 bits, enough for the at most
# 257-bit private values that 32 bytes of randomness produce.
_WINDOW_BITS = 4
_DIGIT_MASK = (1 << _WINDOW_BITS) - 1
_TABLE_ROWS = 65
TABLE_BITS = _WINDOW_BITS * _TABLE_ROWS

#: Fixed-base tables kept at once (~0.3 MiB each): the generator, the
#: fleet's cloud key and a little slack for a test's own servers.
TABLE_CACHE_SIZE = 4


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _base_table(base: int) -> tuple[tuple[int, ...], ...]:
    """``rows[i][d] == base ** (d * 16**i) % MODP_GROUP_14``."""
    rows = []
    power = base % MODP_GROUP_14  # base ** (16**i)
    for _ in range(_TABLE_ROWS):
        row = [1, power]
        for _ in range(2, 1 << _WINDOW_BITS):
            row.append(row[-1] * power % MODP_GROUP_14)
        rows.append(tuple(row))
        power = row[-1] * power % MODP_GROUP_14
    return tuple(rows)


def fixed_base_pow(base: int, exponent: int) -> int:
    """``pow(base, exponent, MODP_GROUP_14)`` for ``exponent >= 0``.

    One table entry per nonzero digit, at most 65 multiplies where
    :func:`pow` spends a squaring per exponent bit.  Building ``base``'s
    table costs about fifteen :func:`pow` calls, so this pays only for a
    base that recurs.  An exponent wider than the table falls back to
    :func:`pow`.
    """
    if exponent.bit_length() > TABLE_BITS:
        return pow(base, exponent, MODP_GROUP_14)
    result = 1
    for row in _base_table(base):
        if not exponent:
            break
        digit = exponent & _DIGIT_MASK
        if digit:
            result = result * row[digit] % MODP_GROUP_14
        exponent >>= _WINDOW_BITS
    return result


def generator_pow(exponent: int) -> int:
    """``pow(GENERATOR, exponent, MODP_GROUP_14)`` for ``exponent >= 0``."""
    return fixed_base_pow(GENERATOR, exponent)


def shared_chain_pow(base: int, exponents: Iterable[int]) -> list[int]:
    """``[pow(base, e, MODP_GROUP_14) for e in exponents]``, ``e >= 0``.

    The squarings ``base ** (16**i)`` are computed once for all exponents.
    Each exponent multiplies every such power into the bucket of its digit
    at ``i``, so bucket ``d`` holds the product of the powers where its
    digit is ``d``, and the result is the product of ``bucket[d] ** d``,
    formed with two running products from the top digit down.  Two
    exponents cost one chain of squarings instead of two.
    """
    exponents = list(exponents)
    buckets = [[1] * (1 << _WINDOW_BITS) for _ in exponents]
    power = base % MODP_GROUP_14  # base ** (16**i)
    while True:
        for j, exponent in enumerate(exponents):
            digit = exponent & _DIGIT_MASK
            if digit:
                bucket = buckets[j]
                bucket[digit] = bucket[digit] * power % MODP_GROUP_14
            exponents[j] = exponent >> _WINDOW_BITS
        if not any(exponents):
            break
        power = pow(power, 1 << _WINDOW_BITS, MODP_GROUP_14)
    results = []
    for bucket in buckets:
        result = running = 1
        for digit in range(_DIGIT_MASK, 0, -1):
            running = running * bucket[digit] % MODP_GROUP_14
            result = result * running % MODP_GROUP_14
        results.append(result)
    return results


def _check_peer(peer_public: int) -> None:
    if not 2 <= peer_public <= MODP_GROUP_14 - 2:
        raise CryptoError("peer public value out of range")


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

        A peer seen once has no table to reuse; CPython's :func:`pow`
        already windows exponents of this size.
        """
        _check_peer(peer_public)
        return _secret_bytes(pow(peer_public, self.private, MODP_GROUP_14))

    def pinned_secret(self, peer_public: int) -> bytes:
        """:meth:`shared_secret` with a peer that recurs, such as a pinned
        server key: raised from the peer's fixed-base table."""
        _check_peer(peer_public)
        return _secret_bytes(fixed_base_pow(peer_public, self.private))

    def public_bytes(self) -> bytes:
        """Wire encoding of the public value."""
        return self.public.to_bytes(KEY_BYTES, "big")


def shared_secrets(peer_public: int, keys: Sequence[DhKeyPair]) -> list[bytes]:
    """``[key.shared_secret(peer_public) for key in keys]`` along one
    squaring chain of the peer's value."""
    _check_peer(peer_public)
    return [
        _secret_bytes(secret)
        for secret in shared_chain_pow(peer_public, [k.private for k in keys])
    ]


def _secret_bytes(secret: int) -> bytes:
    return secret.to_bytes(KEY_BYTES, "big")
