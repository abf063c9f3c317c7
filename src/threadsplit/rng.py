"""Small deterministic PRNG (splitmix64).

Partitioning, schedule randomization, and the verifier's graph generator
all need bit-identical sequences for a given seed, across machines and
Python versions. `random.Random` only guarantees that for `random()`,
not for its integer methods, so we pin a tiny fixed algorithm instead.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

ALGORITHM = "splitmix64"


class Rng:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def chance(self, p: float) -> bool:
        """True with probability p."""
        return self.next_u64() < p * (1 << 64)
