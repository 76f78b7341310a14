"""Counter-based reproducible random streams.

A stream is named by (seed, replica, purpose); identical names always
produce identical draws and distinct names produce statistically
independent Philox streams (numpy SeedSequence does the key spreading,
the purpose string is hashed with blake2b so the mapping is stable
across processes and platforms).  Samplers create a fresh generator per
call, so a stream behaves as a pure function of its name.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["RngStream"]


def _purpose_words(purpose: str) -> tuple[int, int]:
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    word = int.from_bytes(digest, "little")
    return word & 0xFFFFFFFF, word >> 32


@dataclass(frozen=True)
class RngStream:
    seed: int
    replica: int = 0
    purpose: str = "main"

    def __post_init__(self):
        # runs on every child and for_replica, so one cheap test
        if type(self.seed) is not int or type(self.replica) is not int:
            raise TypeError("seed and replica must be integers (int, not bool)")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit nonnegative integer")
        if self.replica < 0:
            raise ValueError("replica index must be nonnegative")

    def generator(self) -> np.random.Generator:
        lo, hi = _purpose_words(self.purpose)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.replica, lo, hi))
        return np.random.Generator(np.random.Philox(seq))

    def child(self, label) -> "RngStream":
        return replace(self, purpose=f"{self.purpose}/{label}")

    def for_replica(self, replica: int) -> "RngStream":
        return replace(self, replica=replica)
