"""Shared domain types and bit conventions.

Bit-order convention used everywhere in this package: bit j of a byte has
weight 2**j (LSB is j=0).  An 8x8 bit matrix built from 8 bytes has
element (i, j) equal to bit j of byte i.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError

FIXED129_BITS = 129
FIXED129_MAX = 1 << FIXED129_BITS
FRACTION_MASK = (1 << 64) - 1

BITS_PER_BLOCK = 129


def decimal_integer(text: str, what: str) -> int:
    """Read an integer from outside text: ASCII ``-?[0-9]+`` and nothing else.

    int() alone also takes '+', '_', spaces and other scripts' digits.
    """
    if not re.fullmatch("-?[0-9]+", text):
        raise DomainError(f"{what} is not a decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise DomainError(f"{what} has too many digits") from None


@dataclass(frozen=True)
class Fixed129:
    """A 129-bit fixed point value; semantic value is raw * 2**-64.

    Bit j of the semantic value (j = -64..64) is bit j+64 of ``raw``.
    """

    raw: int

    def __post_init__(self):
        if not 0 <= self.raw < FIXED129_MAX:
            raise DomainError(f"raw value out of range: {self.raw:#x}")

    @classmethod
    def from_decimal_string(cls, text: str) -> "Fixed129":
        """Parse a decimal like '0.251' with exact rational rounding."""
        whole, _, frac = text.strip().partition(".")
        if (whole + frac).startswith("-"):  # no sign, not even in '-0.0' or '.-0'
            raise DomainError(f"decimal value has a sign: {text.strip()!r}")
        num = decimal_integer(whole + frac, "decimal value")
        # round num / 10^len(frac) to the nearest multiple of 2**-64, a tie upward
        scale = 10 ** len(frac)
        raw = (num * (1 << 64) + scale // 2) // scale
        if raw >= FIXED129_MAX:
            raise DomainError("fraction too large for fixed-point range")
        return cls(raw)

    def to_hex(self) -> str:
        """33 hex digits, MSB first (129 bits fit in 33 nibbles)."""
        return f"{self.raw:033x}"

    @classmethod
    def from_hex(cls, text: str) -> "Fixed129":
        if not re.fullmatch("[0-9a-fA-F]{33}", text):
            raise DomainError("x0 must be exactly 33 hex digits")
        return cls(int(text, 16))


def legal_alpha_beta_pairs() -> list[tuple[int, int]]:
    """All 21 (alpha, beta) pairs with 1 <= alpha, beta >= 1, alpha+beta <= 7."""
    return [(a, b) for a in range(1, 8) for b in range(1, 8) if a + b <= 7]


LEGAL_ALPHA_BETA = frozenset(legal_alpha_beta_pairs())


@dataclass(frozen=True)
class SecretKey:
    alpha1: int
    beta1: int
    alpha2: int
    beta2: int
    secret: int
    x0: Fixed129

    def __post_init__(self):
        for a, b in ((self.alpha1, self.beta1), (self.alpha2, self.beta2)):
            if (a, b) not in LEGAL_ALPHA_BETA:
                raise DomainError(f"illegal rotation parameters ({a}, {b})")
        if not 0 <= self.secret <= 255:
            raise DomainError(f"secret must be a byte, got {self.secret}")

