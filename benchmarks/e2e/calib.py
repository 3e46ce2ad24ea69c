"""Host-speed probe for the end-to-end benchmark.

Host time depends on the machine and on whatever else shares it: on a
shared 2-vCPU box, neighbours slowed the simulator by up to 1.5x for
seconds at a time.  So the benchmark runs :func:`probe`, a fixed ~1 ms
piece of work, after every utterance, and reports host-time metrics in
*reference-machine units*: a raw throughput is multiplied by
``mean probe ms / reference_ms(...)`` over the same stretch of the run, and a
raw duration divided by it.  Interleaved this finely, the probe sees the
same slowdowns as the work around it.

The work mixes what the simulator itself spends host time on: pure-Python
dict and int bookkeeping (the cycle clock, spans, counters), 2048-bit
modular exponentiation (the TLS handshake) and small numpy kernels
(capture blocks, ASR and the classifier).

The mix has to match the workload's.  Under contention from neighbours a
handshake-size modexp slowed about 1.3x while the interpreter-bound mix
slowed 1.7x, so a workload that spends most of its time in handshakes
takes ``modexps`` extra handshake-size exponentiations in its probe.
"""

from __future__ import annotations

import time

import numpy as np

from repro.crypto.dh import MODP_GROUP_14

#: Median :func:`probe` times on the reference machine (2-vCPU x86-64
#: container, Python 3.11, numpy with one BLAS thread): the base mix, and
#: each added handshake-size modexp.  Re-measure and update them only
#: together with a fresh pair of baseline rows.
CALIB_REF_MS = 1.1
MODEXP_REF_MS = 3.1

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
#: A 256-bit exponent, as ``DhKeyPair`` derives from 32 random bytes.
_HANDSHAKE_EXPONENT = (1 << 255) - 19


def reference_ms(modexps: int) -> float:
    """Median :func:`probe` time on the reference machine."""
    return CALIB_REF_MS + modexps * MODEXP_REF_MS


def probe(modexps: int = 0) -> float:
    """Run the fixed work mix once; returns its host time in ms."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2_500):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + i
        acc ^= counts[key]
    pow(3, (1 << 32) - 5, MODP_GROUP_14)
    for _ in range(modexps):
        pow(3, _HANDSHAKE_EXPONENT, MODP_GROUP_14)
    for _ in range(100):
        acc ^= int((_MATRIX @ _MATRIX[0]).sum())
    return (time.perf_counter() - t0) * 1e3
