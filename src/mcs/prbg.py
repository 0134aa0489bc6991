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

import numpy as np

from .core import BITS_PER_BLOCK, FIXED129_MAX, FRACTION_MASK, Fixed129
from .errors import DomainError

_MULTIPLIER = 419
_ALL_ONES = FIXED129_MAX - 1


def _next_raw(raw: int) -> int:
    h = _ALL_ONES if (raw & FRACTION_MASK).bit_count() & 1 else 0
    return ((raw ^ h) * _MULTIPLIER >> 8) & (FIXED129_MAX - 1)


@dataclass(frozen=True)
class PrbsStream:
    """Controlling bit sequence for B blocks; bits has shape (B, 129)."""

    bits: np.ndarray

    def __post_init__(self):
        if self.bits.ndim != 2 or self.bits.shape[1] != BITS_PER_BLOCK:
            raise DomainError("PRBS bits must have shape (blocks, 129)")
        self.bits.setflags(write=False)


def generate_prbs(x0: Fixed129, num_blocks: int) -> PrbsStream:
    """Controlling bits for ``num_blocks`` blocks starting from state x0."""
    if num_blocks < 1:
        raise DomainError("need at least one block")
    states = bytearray(17 * num_blocks)
    raw = x0.raw
    for k in range(num_blocks):
        # 17 big-endian bytes hold raw bits 135..0; controlling bits are 128..0.
        states[17 * k:17 * k + 17] = raw.to_bytes(17, "big")
        raw = _next_raw(raw)
    unpacked = np.unpackbits(np.frombuffer(bytes(states), dtype=np.uint8))
    return PrbsStream(unpacked.reshape(num_blocks, 136)[:, 7:].copy())
