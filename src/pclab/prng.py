"""Seeded 64-bit generator for reproducible random weights and primality bases.

splitmix64, pinned here so weight streams and the probabilistic Miller-Rabin
bases never depend on Python's random module or its version history.  State
update: s += 0x9E3779B97F4A7C15; the output mix is the standard two-multiply
finalizer.  Weights take the top bit of each output word.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """The first `count` outputs of splitmix64 from `seed`."""
    out = []
    s = seed & _MASK
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append((z ^ (z >> 31)) & _MASK)
    return out


def pm1_weights(seed: int, count: int) -> list[int]:
    """count values in {+1, -1}, from the top bit of the splitmix64 stream."""
    return [1 if w >> 63 else -1 for w in splitmix64(seed, count)]
