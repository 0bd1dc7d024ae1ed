"""Batched PCG64 streams (:mod:`repro.workload._pcg64_batch`) match numpy.

Seeding must equal ``PCG64(SeedSequence(...))`` row by row, and bounded
draws must follow numpy's Lemire rejection loop, which no realistic
fleet seed reaches, so the tests below force it through chosen states.
"""

import numpy as np

from repro.workload._pcg64_batch import Streams, seed_states


def _words(value):
    """A 128-bit int as its (hi, lo) 64-bit words."""
    return value >> 64, value & (2**64 - 1)


def _streams_from(bit_generators):
    """``Streams`` rows holding the current states of ``bit_generators``.

    Only 4 raw outputs per row are precomputed, so the re-draws below
    also exercise extending the table.
    """
    states = [bg.state for bg in bit_generators]
    state = np.array([_words(s["state"]["state"]) for s in states], dtype=np.uint64)
    inc = np.array([_words(s["state"]["inc"]) for s in states], dtype=np.uint64)
    return Streams(
        state[:, 0],
        state[:, 1],
        inc[:, 0],
        inc[:, 1],
        has_half=np.array([s["has_uint32"] for s in states]),
        half=np.array([s["uinteger"] for s in states], dtype=np.uint64),
        width=4,
    )


def test_seed_states_match_seed_sequence():
    ks = np.array([0, 1, 2**32 - 1])
    for seed in (0, 2**32, 2**63 - 1):
        s_hi, s_lo, i_hi, i_lo = seed_states((seed, 5, 2), ks)
        for r, k in enumerate(ks.tolist()):
            state = np.random.PCG64(np.random.SeedSequence((seed, 5, 2, k))).state
            assert state["state"]["state"] == int(s_hi[r]) << 64 | int(s_lo[r])
            assert state["state"]["inc"] == int(i_hi[r]) << 64 | int(i_lo[r])


def _state_before_zero_output(inc):
    """A PCG64 state whose next raw output is 0 (both 32-bit halves)."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    # XSL-RR maps the stepped state 0 to output 0; undo the step.
    return (0 - inc) * pow(mult, -1, 2**128) % 2**128


def test_lemire_rejection_path_matches_generator():
    """Rejections re-draw, and later draws read the words after them.

    A 32-bit word of 0 scales to a low word of 0, below numpy's
    rejection threshold for 10 values (6) and for 3 values (1), so
    buffering a 0 half forces a rejection.  Row 1 also steps to a raw
    output of 0 and so rejects three times in a row.
    """
    bit_generators = []
    for seed, has_half, half, zero_next in [
        (11, 1, 0, False),
        (12, 1, 0, True),
        (13, 0, 0, False),
        (14, 1, 12345, False),
    ]:
        bg = np.random.PCG64(seed)
        state = bg.state
        state["has_uint32"], state["uinteger"] = has_half, half
        if zero_next:
            inc = state["state"]["inc"]
            state["state"]["state"] = _state_before_zero_output(inc)
        bg.state = state
        bit_generators.append(bg)
    for n_values in (10, 3):
        assert 0 < (2**32 - n_values) % n_values
    streams = _streams_from(bit_generators)

    got_first = streams.bounded(10)
    got_double = streams.doubles(1)[:, 0]
    rows = np.array([0, 1, 3])
    got_last = streams.bounded(3, rows=rows)

    for r, bg in enumerate(bit_generators):
        gen = np.random.Generator(bg)
        assert gen.integers(10) == got_first[r]
        assert gen.random() == got_double[r]
    for p, r in enumerate(rows.tolist()):
        assert np.random.Generator(bit_generators[r]).integers(3) == got_last[p]
    # Every row now sits exactly where numpy's generator does.
    follow = streams.doubles(3)
    for r, bg in enumerate(bit_generators):
        state = bg.state
        assert bool(state["has_uint32"]) == bool(streams.has_half[r])
        if state["has_uint32"]:
            assert state["uinteger"] == int(streams.half[r])
        assert np.array_equal(np.random.Generator(bg).random(3), follow[r])
    # Row 1 used its buffered half and both halves of the zero output.
    assert streams.pos[1] == streams.pos[0] + 1
