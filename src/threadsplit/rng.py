"""Small deterministic PRNG (splitmix64), computed a chunk at a time.

Partitioning, schedule randomization, and the verifier's graph generator
all need bit-identical sequences for a given seed, across machines and
Python versions. `random.Random` only guarantees that for `random()`,
not for its integer methods, so we pin a tiny fixed algorithm instead.

splitmix64's i-th output is a fixed function of `seed + i * GAMMA`
(mod 2**64), so outputs can be computed in any grouping. `Rng` computes
32 of them at once on one Python int that holds 32 lanes of 64 bits,
lane i in the low half of the 128-bit slot at bit 128 * i. Adding the
packed gammas, each xor-shift and each multiply by a 64-bit constant is
then one int operation for the whole chunk: a lane's 64x64-bit product
fits in its slot, and a right shift moves bits of a slot only into the
upper, unused half of the slot below, which the next `& lanes` clears as
it also takes every lane mod 2**64. The lanes are read out through
`int.to_bytes` in the native byte order and an `array("Q")`.

Each output is bit-identical to the one-at-a-time algorithm and comes
in the same order, so every caller sees the same stream, and partitions,
schedules and artifacts are unchanged. The chunk is small because most
streams are short: a partition draws once per block, and a random
schedule a few dozen times. Outputs computed but never drawn are wasted:
chunks growing from 16 to 128 lanes made a 50-block partition about 1.3x
slower than one output at a time when it ran between the benchmark's
other work, while 32 lanes kept it level there and faster alone.
`state` is the splitmix64 state after the last output computed, which
is past any outputs still buffered.

Chunks are memoized by the state they start from (`_chunk`, an LRU
cache of 1024 chunks, about 0.5 MB). A chunk is a pure function of that
state, so a cached one is exactly what would be computed. The verifier
draws every program's partitions from the same few seeds, and the random
schedules it still runs (those of a program whose wait lists name other
threads' blocks) from `Rng(0)`, `Rng(1)`, ..., so nearly every chunk it
needs is a hit: 237 of 240 in the first 20 rounds of the benchmark's
verify-sweep, 91% with each round's compile-time partition counted. A
hit is a copy, so its undrawn outputs cost almost nothing; a fresh seed,
as in each compile-time partition, still pays for the outputs it never
draws.
`Rng` pops only from its own copy, so no draw changes a cached chunk.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 32  # outputs per chunk

ALGORITHM = "splitmix64"

if array("Q").itemsize != 8:
    raise ImportError(f'threadsplit.rng needs 8-byte array("Q") items, got {array("Q").itemsize}')

# Packed over the lanes: 1, (i + 1) * GAMMA mod 2**64 in lane i, and 2**64 - 1.
_ONES = sum(1 << 128 * i for i in range(_LANES))
_GAMMAS = sum(((i + 1) * _GAMMA & _MASK) << 128 * i for i in range(_LANES))
_LANE_MASKS = _MASK * _ONES


@lru_cache(maxsize=1024)
def _chunk(state: int) -> array:
    """The 32 outputs after splitmix64 state `state`, the next one last; callers copy it."""
    lanes = _LANE_MASKS
    z = (state * _ONES + _GAMMAS) & lanes
    z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
    z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
    z = (z ^ (z >> 31)) & lanes
    words = array("Q", z.to_bytes(16 * _LANES, sys.byteorder))
    # Of n lanes, lane i is word 2i in little-endian order and word
    # 2n-1-2i in big-endian order; the words between are the zeroed
    # upper halves.
    return words[-2::-2] if sys.byteorder == "little" else words[1::2]


class Rng:
    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._buf = array("Q")  # outputs not yet drawn, the next one last
        self._limits: dict[int, int] = {}  # bound -> rejection limit

    def _fill(self) -> int:
        """Copy the next chunk into the buffer and draw its first output."""
        self._buf[:] = _chunk(self.state)
        self.state = (self.state + _LANES * _GAMMA) & _MASK
        return self._buf.pop()

    def next_u64(self) -> int:
        buf = self._buf
        return buf.pop() if buf else self._fill()

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection sampling.
        `bound` is at most 2**64, the number of distinct outputs."""
        limit = self._limits.get(bound)
        if limit is None:
            if not 1 <= bound <= 1 << 64:
                raise ValueError(f"bound must be in [1, 2**64], got {bound}")
            limit = self._limits[bound] = (1 << 64) - (1 << 64) % bound
        buf = self._buf
        while True:
            x = buf.pop() if buf else self._fill()
            if x < limit:
                return x % bound

    def chance(self, p: float) -> bool:
        """True with probability p."""
        return self.next_u64() < p * (1 << 64)
