"""Deterministic random-stream derivation.

Simulations draw from many independent random streams (per-node backoff,
background churn, traffic phases).  Deriving each child stream with an
ad-hoc ``rng.randrange(2**31)`` works, but couples every stream to the
exact construction order and gives children only 31 bits of state
separation.  This module centralizes derivation:

* :func:`stream_seed` is a pure function of its keys — the same keys
  always yield the same seed, in any process.  ``ParallelRunner`` uses it
  to fan a master seed into per-worker scenario seeds that are identical
  no matter which worker runs which job.
* :func:`spawn_rng` derives a child :class:`random.Random` from a parent
  stream plus a label, mixing a parent draw (so two children with the
  same label under different parents differ) with a hash of the label
  (so two children of the same parent are widely separated even when the
  parent's outputs are close).
* :func:`counter_uniform` is a stateless counter-based draw (after
  Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11):
  draw *k* of counter *i* is a pure function of ``(key, i, k, axis)``,
  so a million walkers need one key, not a million generator states.
  It is built on the SplitMix64 step, defined here once as a Python-int
  form (:func:`mix64`) and a numpy ``uint64`` form (:func:`mix64_array`)
  that agree bit for bit; :func:`counter_uniform_array` is the array
  form of the draw.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = [
    "counter_uniform",
    "counter_uniform_array",
    "mix64",
    "mix64_array",
    "spawn_rng",
    "stream_seed",
]

#: Seeds are confined to 63 bits so they stay exact in any signed 64-bit
#: representation (JSON consumers, numpy dtypes).
_SEED_BITS = 63


def stream_seed(*keys: object) -> int:
    """A deterministic 63-bit seed from an arbitrary key tuple.

    Pure and process-independent: ``stream_seed(42, "sweep", 3)`` is the
    same integer on every platform and in every interpreter, unlike
    ``hash()`` which is salted per process.
    """
    material = ":".join(repr(k) for k in keys).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> (64 - _SEED_BITS)


def spawn_rng(parent: random.Random, key: object) -> random.Random:
    """Derive an independent child stream from *parent* labelled *key*.

    Consumes exactly one 64-bit draw from *parent*, so the parent's
    subsequent output depends only on how many children were spawned,
    not on their labels.  The child's seed mixes that draw with a stable
    hash of *key*, keeping sibling streams decorrelated.
    """
    return random.Random(stream_seed(parent.getrandbits(64), key))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
#: 2**-53: a 53-bit integer times this is a float in [0, 1), exactly.
_UNIT = 2.0**-53
#: The uint64 form's constants, built once (a numpy scalar per call
#: costs as much as a small array operation).
_GOLDEN_U64, _MUL1_U64, _MUL2_U64 = map(np.uint64, (_GOLDEN, _MUL1, _MUL2))
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))


def mix64(z: int) -> int:
    """The SplitMix64 step on a Python int: add the golden gamma, then
    the finalizer's two xor-shift-multiply rounds.  Only the low 64
    bits of *z* matter, as in the ``uint64`` form."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` on a uint64 array (numpy wraps mod 2**64)."""
    z = z + _GOLDEN_U64
    z ^= z >> _S30
    z *= _MUL1_U64
    z ^= z >> _S27
    z *= _MUL2_U64
    z ^= z >> _S31
    return z


def counter_uniform(key: int, i: int, k: int, axis: int) -> float:
    """Draw *k* of counter *i* on *axis* (0 or 1) under *key*, in [0, 1).

    ``(mix64(mix64(key ^ i) ^ (2k + axis)) >> 11) * 2**-53``: the top
    53 bits of the mixed word, scaled exactly, as ``random.random()``
    scales its 53 bits.
    """
    return (mix64(mix64(key ^ i) ^ (2 * k + axis)) >> 11) * _UNIT


def counter_uniform_array(
    key: int, i: np.ndarray, k: np.ndarray | int, axis: np.ndarray | int
) -> np.ndarray:
    """:func:`counter_uniform` elementwise over counters *i*, draws *k*
    and axes *axis*, broadcast against each other."""
    i = np.asarray(i).astype(np.uint64)
    k = np.asarray(k).astype(np.uint64)
    word = k * np.uint64(2) + np.asarray(axis).astype(np.uint64)
    z = mix64_array(mix64_array(np.uint64(key) ^ i) ^ word)
    return (z >> _S11).astype(np.float64) * _UNIT
