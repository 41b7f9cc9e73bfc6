"""The seeded random source.

Every stochastic choice in the pipeline flows through :class:`RandomSource`
so that a single integer seed reproduces a whole run bit for bit, on any
platform. The generator is counter-based SplitMix64: output ``i`` is the
SplitMix64 finalizer applied to ``seed + i * 0x9E3779B97F4A7C15`` (mod
2**64). Because each output is a pure function of ``(seed, i)``, a block
of draws is one vectorized numpy expression; a single draw is a block of
one.

Uniform doubles take the top 53 bits of each word, giving values in
[0, 1). Gaussian draws come from the Box-Muller transform applied to
consecutive uniform pairs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping multiplication)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class RandomSource:
    """Deterministic stream of pseudo-random numbers from one 64-bit seed.

    A source is single-owner: hand parallel consumers their own child via
    :meth:`spawn` instead of sharing one instance.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def next_u64(self) -> int:
        return int(self.u64_block(1)[0])

    def u64_block(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"block size must be >= 0, got {n}")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            state = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        return _mix64_block(state)

    def uniforms(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def gaussians(self, mean: float, stddev: float, n: int) -> np.ndarray:
        """``n`` independent N(mean, stddev**2) draws via Box-Muller.

        Consumes ``2 * ceil(n / 2)`` uniforms; stddev 0 consumes none and
        returns ``n`` copies of ``mean``.
        """
        if stddev < 0:
            raise ParameterError(f"stddev must be >= 0, got {stddev}")
        if n < 0:
            raise ParameterError(f"sample count must be >= 0, got {n}")
        if stddev == 0.0 or n == 0:
            return np.full(n, float(mean))
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        # 1 - u1 lies in (0, 1], so the log is always finite.
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return mean + stddev * out[:n]

    def integers(self, bound: int, n: int) -> np.ndarray:
        """``n`` integers in [0, bound), vectorized."""
        if bound <= 0:
            raise ParameterError(f"bound must be positive, got {bound}")
        vals = (self.uniforms(n) * bound).astype(np.int64)
        return np.minimum(vals, bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of 0..n-1 driven by this stream.

        Swap ``k`` exchanges item ``i = n - 1 - k`` with item
        ``j = min(floor(u_k * (i + 1)), i)``. All ``j`` come from one block
        of ``n - 1`` uniforms, and the swaps run on a Python list, which
        is several times faster than swapping numpy items one at a time.
        """
        if n < 2:
            return np.arange(n, dtype=np.int64)
        bound = np.arange(n, 1, -1)
        picks = np.minimum((self.uniforms(n - 1) * bound).astype(np.int64), bound - 1)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def spawn(self) -> "RandomSource":
        """Derive an independent child stream (consumes one draw)."""
        return RandomSource(self.next_u64())

