"""Helpers that craft controlling-bit streams triggering rare attack corners.

The real generator never produces two adjacent expansion indices of 15, so
inherited weight pairs travel at most 44 positions while equal pairs in the
probing differentials are at least 72 apart: expansion-index ambiguity never
occurs naturally.  These helpers build explicit bit streams whose index
chains bridge the gap, to exercise the neutralization and resolution paths.
"""

import numpy as np


def craft_ambiguous_stream(nprng, candidate: int, same_half_dup: bool,
                           nblocks: int = 24, decision_15: bool = False):
    """A (blocks, 129) bit matrix making one expansion decision ambiguous.

    Returns (bits, block index of the ambiguous decision).  The candidate is
    the payload position whose weight pair collides with the inherited one.
    """
    bits = nprng.integers(0, 2, size=(nblocks, 129), dtype=np.uint8)
    if candidate % 3 == 0:
        # 72-distance collision between positions of the zero second-weight class
        source = next(s for s in range(0, 15 * (nblocks - 6), 9)
                      if (s + 72) % 15 == candidate)
        target = source + 72
    else:
        # 81-distance collision in a nonzero second-weight class
        source = next(s for s in range(15 * (nblocks - 8))
                      if s % 9 != 0 and (s + 81) % 15 == candidate)
        target = source + 81
    kb, tb = source // 15, target // 15

    def set_l(k, val):
        for i in range(4):
            bits[k, i] = (val >> i) & 1

    set_l(kb, source % 15)
    for k in range(kb + 1, tb):
        set_l(k, 15)
    set_l(tb, 15 if decision_15 else candidate)
    for k in range(nblocks):  # keep stray full-15 indices out of other blocks
        if (k < kb or k > tb) and (bits[k, :4] == 1).all():
            bits[k, 0] = 0
    if same_half_dup:
        # park the colliding byte and the expanded byte in the same half
        if candidate < 8:
            bits[tb, 4 + candidate] = 1
            bits[tb, 11] = 0
        else:
            bits[tb, 4 + candidate - 8] = 0
            bits[tb, 11] = 0
    return bits, tb


def random_run_stream(index: int, seed: int = 1):
    """Stream ``index`` of a seeded draw of random streams with runs of l = 15.

    Each stream has 2..39 blocks of random bits, and each block's l is set to
    15 with probability 0.6, so ambiguous decisions are followed by runs of
    l = 15 that lose the base plaintext's expanded byte.  Returns (bits, base
    plaintext, fresh plaintext); the draw replays every earlier stream.
    """
    nprng = np.random.default_rng(seed)
    for _ in range(index + 1):
        nblocks = int(nprng.integers(2, 40))
        bits = nprng.integers(0, 2, (nblocks, 129), dtype=np.uint8)
        bits[nprng.random(nblocks) < 0.6, :4] = 1
        base, fresh = nprng.bytes(15 * nblocks), nprng.bytes(15 * nblocks)
    return bits, base, fresh
