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
    first, at most ``bound`` bytes in all.  A value of n blocks (``blocks``
    counts them) is charged ``per_entry + per_block * n`` bytes: its arrays
    and the objects that hold them.  A value charged more than the bound is
    not kept and evicts nothing."""

    def __init__(self, bound: int, per_block: int, per_entry: int, blocks=len):
        super().__init__()
        self.bound, self.per_block, self.per_entry, self.blocks = bound, per_block, per_entry, blocks
        self.held = 0

    def charge(self, num_blocks: int) -> int:
        """The bytes a kept value of ``num_blocks`` blocks is charged."""
        return self.per_entry + self.per_block * num_blocks

    def fetch(self, key, num_blocks: int, build):
        """The kept value of ``key`` if it covers ``num_blocks``, else ``build()``."""
        value = self.pop(key, None)
        if value is not None:
            if self.blocks(value) >= num_blocks:
                self[key] = value  # a hit: most recently used now, at the same charge
                return value
            self.held -= self.charge(self.blocks(value))
        while self.held + self.charge(num_blocks) > self.bound >= self.charge(num_blocks):
            self.held -= self.charge(self.blocks(self.pop(next(iter(self)))))
        value = build()
        if self.charge(num_blocks) <= self.bound:
            self[key] = value
            self.held += self.charge(num_blocks)
        return value


# Each seed's longest stream, at most 557,056 bytes in all: 17 a block and about 330 a
# seed for its arrays' objects and its dict entry. Room for the 17,476-block stream of a
# 512x512-byte image, not for two 16,384-block streams.
_memo = BlockMemo(557_056, 17, 330)


def generate_prbs(x0: Fixed129, num_blocks: int) -> PrbsStream:
    """Controlling bits for ``num_blocks`` blocks starting from state x0; a
    kept stream of x0 at least that long serves them as a prefix view."""
    if num_blocks < 1:
        raise DomainError("need at least one block")

    def state_rows() -> np.ndarray:
        states = bytearray()
        state = x0.raw << _SHIFT
        # locals, not globals, in the loop; to_bytes is big-endian by default
        to_bytes, fraction, mask, multiplier = int.to_bytes, _FRACTION, _STATE_MASK, _MULTIPLIER
        for _ in range(num_blocks):
            states += to_bytes(state, 17)
            if (state & fraction).bit_count() & 1:
                state ^= mask
            state = state * multiplier >> 8 & mask
        # over immutable bytes, so that no caller can make the rows writable
        return np.frombuffer(bytes(states), dtype=np.uint8).reshape(num_blocks, 17)
    return PrbsStream(_memo.fetch(x0.raw, num_blocks, state_rows)[:num_blocks])
