"""Chaotic pseudorandom bit generator and per-block controlling bits.

The state update keeps 129 bits of the scaled product:

    next = floor(419 * (X xor H) / 2**8) mod 2**129

where H is all-ones when the 64 fractional bits of X have odd parity and
zero otherwise.  Bits are extracted MSB-first: controlling bit b(129k+t) is
raw bit 128-t of the k-th state, so block k is steered by state x(k) with
x(0) the key value itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BITS_PER_BLOCK, FIXED129_MAX, FRACTION_MASK, Fixed129
from .errors import DomainError

_MULTIPLIER = 419
# The generator keeps each state shifted left by 7 bits, so that its 17
# big-endian bytes begin with raw bits 128..0, the block's controlling bits.
_SHIFT = 7
_STATE_MASK = (FIXED129_MAX - 1) << _SHIFT
_FRACTION = FRACTION_MASK << _SHIFT


@dataclass(frozen=True)
class PrbsStream:
    """Controlling bits for B blocks as the generator's (B, 17) uint8 state
    rows: block k's bits 0..128 MSB first, then 7 zero pad bits."""

    rows: np.ndarray

    @cached_property
    def bits(self) -> np.ndarray:
        """The (B, 129) matrix of 0s and 1s, read-only; unpacked on first use."""
        bits = np.unpackbits(self.rows, axis=1, count=BITS_PER_BLOCK)
        bits.setflags(write=False)
        return bits


class BlockMemo(dict):
    """Each key's value for the most blocks asked of it, least recently used
    first, at most ``bound`` blocks in all (``size`` counts a value's); a
    value of more blocks than the bound is not kept and evicts nothing."""

    def __init__(self, bound: int, size=len):
        super().__init__()
        self.bound, self.size, self.held = bound, size, 0

    def fetch(self, key, num_blocks: int, build):
        """The kept value of ``key`` if it covers ``num_blocks``, else ``build()``."""
        value = self.pop(key, None)
        have = 0 if value is None else self.size(value)
        self.held -= have
        if have < num_blocks:
            while self.held + num_blocks > self.bound >= num_blocks:
                self.held -= self.size(self.pop(next(iter(self))))
            value, have = build(), num_blocks
        if have <= self.bound:
            self[key] = value
            self.held += have
        return value


# Each seed's longest stream: 2^15 blocks in all, room for a 512x512-byte image's.
_MEMO_BLOCKS = 1 << 15
_memo = BlockMemo(_MEMO_BLOCKS)


def generate_prbs(x0: Fixed129, num_blocks: int) -> PrbsStream:
    """Controlling bits for ``num_blocks`` blocks starting from state x0; a
    kept stream of x0 at least that long serves them as a prefix view."""
    if num_blocks < 1:
        raise DomainError("need at least one block")

    def state_rows() -> np.ndarray:
        states = bytearray()
        state = x0.raw << _SHIFT
        for _ in range(num_blocks):
            states += state.to_bytes(17, "big")
            if (state & _FRACTION).bit_count() & 1:
                state ^= _STATE_MASK
            state = state * _MULTIPLIER >> 8 & _STATE_MASK
        # over immutable bytes, so that no caller can make the rows writable
        return np.frombuffer(bytes(states), dtype=np.uint8).reshape(num_blocks, 17)
    return PrbsStream(_memo.fetch(x0.raw, num_blocks, state_rows)[:num_blocks])
