"""Seeded, named random streams.

Every stochastic component (clock drift, network jitter, workload key
generation, ...) draws from its own named stream derived deterministically
from a single root seed. Components therefore never perturb each other's
randomness: adding a new consumer does not change the numbers an existing
consumer sees, which keeps experiments comparable across code revisions.
"""

from __future__ import annotations

import hashlib
import random


class RandomStreams:
    """A factory of independent ``random.Random`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is a stable hash of (root seed, name).
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream
