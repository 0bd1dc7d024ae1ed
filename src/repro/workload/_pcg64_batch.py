"""Many ``Generator(PCG64(SeedSequence(entropy)))`` streams at once.

:func:`repro.workload.fleet.generate_fleet` gives every string its own
numpy stream, ``default_rng(SeedSequence((seed, tag, 2, k)))``.  Building
one ``Generator`` per string and drawing from it scalar by scalar is
most of fleet generation's cost, so this module reproduces those streams
for a whole batch of entropy tuples with array arithmetic instead:

* :func:`seed_states` is ``SeedSequence`` entropy mixing and
  ``generate_state(4, uint64)`` in uint32 arithmetic, followed by
  PCG64's seeding, for every row at once;
* :class:`Streams` steps PCG64 (a 128-bit LCG with the XSL-RR output
  permutation) on uint64 word pairs and applies ``Generator``'s own
  transforms: doubles as ``(raw >> 11) * 2**-53`` and bounded integers
  by Lemire's method on PCG64's buffered 32-bit halves, rejection loop
  included.

Every value equals, bit for bit, what numpy's ``Generator`` returns for
the same row and the same sequence of calls.  ``tests/test_pcg64_batch.py``
and ``tests/test_fleet_generation.py`` compare against numpy itself, so a
numpy release that changed these streams would fail there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Streams", "seed_states"]

_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)

# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _int_words(n: int) -> list[int]:
    """``SeedSequence``'s uint32 words of a non-negative int, low first."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 arrays."""
    a0, a1 = a & _M32, a >> _U32
    b0, b1 = b & _M32, b >> _U32
    p01 = a0 * b1
    p10 = a1 * b0
    mid = ((a0 * b0) >> _U32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _mul128(
    x_hi: np.ndarray, x_lo: np.ndarray, c_hi: np.ndarray, c_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``x * c mod 2**128`` on (hi, lo) uint64 word pairs."""
    hi = _mulhi64(x_lo, c_lo) + x_hi * c_lo + x_lo * c_hi
    return hi, x_lo * c_lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a + b mod 2**128`` on (hi, lo) uint64 word pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _split(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python ints below 2**128 as (hi, lo) uint64 arrays."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64)
    return hi, lo


@lru_cache(maxsize=8)
def _jump_constants(
    start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LCG jump constants for steps ``start + 1 .. stop``.

    After ``n`` steps the state is ``A_n * state + G_n * inc`` with
    ``A_n = mult**n`` and ``G_n = 1 + mult + ... + mult**(n - 1)``
    (mod 2**128); returns ``(A_hi, A_lo, G_hi, G_lo)``, one column per
    step.
    """
    a, g = 1, 0
    a_n: list[int] = []
    g_n: list[int] = []
    for n in range(1, stop + 1):
        g = (g * _PCG_MULT + 1) & _MASK128
        a = (a * _PCG_MULT) & _MASK128
        if n > start:
            a_n.append(a)
            g_n.append(g)
    return (*_split(a_n), *_split(g_n))


def _hashmix(value: np.ndarray, hash_const: list[int], mult: int) -> np.ndarray:
    """One ``SeedSequence`` hashmix round; advances ``hash_const[0]``."""
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = (hash_const[0] * mult) & 0xFFFFFFFF
    value = value * np.uint32(hash_const[0])
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def seed_states(
    prefix: tuple[int, ...], last: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 states seeded from ``SeedSequence(prefix + (last[r],))``.

    ``prefix`` holds non-negative ints shared by every row; ``last`` the
    per-row final entropy word (each below 2**32).  Returns the seeded
    ``(state_hi, state_lo, inc_hi, inc_lo)`` arrays, i.e. the
    ``PCG64(SeedSequence(...)).state`` of each row.
    """
    last = np.asarray(last, dtype=np.uint64)
    if last.size and int(last.max()) > 0xFFFFFFFF:
        raise ValueError("per-row entropy words must be below 2**32")
    words = [w for n in prefix for w in _int_words(int(n))]
    entropy = [np.full(last.shape, w, dtype=np.uint32) for w in words]
    entropy.append(last.astype(np.uint32))
    entropy += [np.zeros(last.shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))

    # SeedSequence.mix_entropy
    hash_const = [_INIT_A]
    pool = [_hashmix(entropy[i], hash_const, _MULT_A) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(
                    pool[i_dst], _hashmix(pool[i_src], hash_const, _MULT_A)
                )
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, hash_const, _MULT_A))

    # SeedSequence.generate_state(4, np.uint64): 8 words cycling the pool,
    # paired low word first.
    hash_const = [_INIT_B]
    out = [
        _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B).astype(np.uint64)
        for i in range(8)
    ]
    seed = [out[2 * i] | (out[2 * i + 1] << _U32) for i in range(4)]

    # pcg64_set_seed: initstate = seed[0]:seed[1], initseq = seed[2]:seed[3];
    # inc = initseq << 1 | 1; state = ((inc + initstate) * mult + inc).
    inc_hi = (seed[2] << np.uint64(1)) | (seed[3] >> np.uint64(63))
    inc_lo = (seed[3] << np.uint64(1)) | np.uint64(1)
    s_hi, s_lo = _add128(inc_hi, inc_lo, seed[0], seed[1])
    m_hi, m_lo = _split([_PCG_MULT])
    s_hi, s_lo = _mul128(s_hi, s_lo, m_hi, m_lo)
    s_hi, s_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    return s_hi, s_lo, inc_hi, inc_lo


class Streams:
    """One PCG64 ``Generator`` stream per row, drawn for all rows at once.

    Built from each row's PCG64 state (``state``/``inc`` as uint64 word
    pairs, plus the ``has_uint32``/``uinteger`` buffer).  Raw 64-bit
    outputs are precomputed ``width`` per row by LCG jump-ahead and
    extended on demand; each row keeps its own cursor into them, so a
    row whose Lemire draw rejects simply reads further than the others.
    """

    def __init__(
        self,
        state_hi: np.ndarray,
        state_lo: np.ndarray,
        inc_hi: np.ndarray,
        inc_lo: np.ndarray,
        *,
        has_half: np.ndarray | None = None,
        half: np.ndarray | None = None,
        width: int,
    ) -> None:
        n = state_hi.shape[0]
        self._state = (state_hi[:, None], state_lo[:, None])
        self._inc = (inc_hi[:, None], inc_lo[:, None])
        self._rows = np.arange(n)
        self._raw = np.empty((n, 0), dtype=np.uint64)
        #: Index of each row's next unused raw output.
        self.pos = np.zeros(n, dtype=np.int64)
        self.has_half = (
            np.zeros(n, dtype=bool) if has_half is None else has_half.astype(bool)
        )
        self.half = (
            np.zeros(n, dtype=np.uint64) if half is None else half.astype(np.uint64)
        )
        self._extend(width)

    def _extend(self, width: int) -> None:
        """Compute raw outputs up to column ``width`` for every row."""
        start = self._raw.shape[1]
        a_hi, a_lo, g_hi, g_lo = _jump_constants(start, width)
        s_hi, s_lo = _mul128(*self._state, a_hi, a_lo)
        s_hi, s_lo = _add128(s_hi, s_lo, *_mul128(*self._inc, g_hi, g_lo))
        # XSL-RR: rotate (hi ^ lo) right by the state's top 6 bits.
        x = s_hi ^ s_lo
        rot = s_hi >> np.uint64(58)
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        self._raw = np.concatenate([self._raw, out], axis=1)

    def _take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        need = int(cols.max(initial=-1)) + 1
        if need > self._raw.shape[1]:
            self._extend(max(need, 2 * self._raw.shape[1]))
        return self._raw[rows, cols]

    def doubles(self, counts: np.ndarray | int) -> np.ndarray:
        """``counts[r]`` doubles in [0, 1) per row, padded to the widest.

        Column ``c`` of row ``r`` is meaningful for ``c < counts[r]``.
        Doubles use whole 64-bit outputs and leave the 32-bit buffer
        alone, as ``Generator.random`` does.
        """
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), self.pos.shape)
        width = int(counts.max(initial=0))
        cols = self.pos[:, None] + np.arange(width)
        cols = np.where(np.arange(width) < counts[:, None], cols, self.pos[:, None])
        raw = self._take(self._rows[:, None], cols)
        self.pos = self.pos + counts
        return (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    def uniform(
        self, low: float, high: float, counts: np.ndarray | int = 1
    ) -> np.ndarray:
        """``Generator.uniform(low, high, size=counts[r])`` per row."""
        return low + (high - low) * self.doubles(counts)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """PCG64's ``next_uint32`` for ``rows``: buffered high half first."""
        buffered = self.has_half[rows]
        fresh = rows[~buffered]
        raw = self._take(fresh, self.pos[fresh])
        out = self.half[rows].copy()
        out[~buffered] = raw & _M32
        self.half[fresh] = raw >> _U32
        self.pos[fresh] += 1
        self.has_half[rows] = ~buffered
        return out

    def bounded(self, n_values: int, rows: np.ndarray | None = None) -> np.ndarray:
        """``Generator.integers(n_values)`` for ``rows`` (default: all).

        numpy draws nothing when ``n_values == 1``; otherwise Lemire's
        multiply-shift on 32-bit halves, re-drawing a row while the low
        word of its product falls below the rejection threshold.
        """
        if rows is None:
            rows = self._rows
        if n_values == 1:
            return np.zeros(rows.shape, dtype=np.int64)
        if not 1 < n_values <= 0xFFFFFFFF:
            raise ValueError("n_values must lie in [1, 2**32)")
        excl = np.uint64(n_values)
        threshold = np.uint64((2**32 - n_values) % n_values)
        m = self._next32(rows) * excl
        reject = np.flatnonzero((m & _M32) < threshold)
        while reject.size:
            m[reject] = self._next32(rows[reject]) * excl
            reject = reject[(m[reject] & _M32) < threshold]
        return (m >> _U32).astype(np.int64)
