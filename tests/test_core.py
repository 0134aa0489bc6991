import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.errors import DomainError
from reference import block_weight


def test_hamming_weight_examples():
    # the per-byte weights block_weight sums, on one-byte blocks
    assert block_weight(bytes([0x00])) == 0
    assert block_weight(bytes([0xFF])) == 8
    # independent bit-loop oracle
    assert block_weight(bytes([0xA5])) == sum((0xA5 >> i) & 1 for i in range(8)) == 4


def test_block_weight_examples():
    assert block_weight(bytes(16)) == 0
    assert block_weight(bytes([0xFF] * 16)) == 128
    assert block_weight(bytes([0x01, 0x03] + [0] * 14)) == 3


def test_secret_key_validation():
    x0 = Fixed129(1)
    SecretKey(1, 6, 3, 4, 255, x0)
    with pytest.raises(DomainError):
        SecretKey(0, 1, 1, 1, 0, x0)
    with pytest.raises(DomainError):
        SecretKey(4, 4, 1, 1, 0, x0)
    with pytest.raises(DomainError):
        SecretKey(1, 1, 1, 1, 256, x0)


def test_fixed129_bounds_and_hex():
    with pytest.raises(DomainError):
        Fixed129(1 << 129)
    v = Fixed129((1 << 129) - 1)
    assert Fixed129.from_hex(v.to_hex()) == v
    assert Fixed129.from_decimal_string("1.0").raw == 1 << 64
    # 0.251 rounds to the nearest multiple of 2**-64
    raw = Fixed129.from_decimal_string("0.251").raw
    assert raw == (251 * (1 << 64) + 500) // 1000


def _decimal(numerator: int, digits: int) -> str:
    """numerator / 10**digits written with exactly ``digits`` fraction digits."""
    text = str(numerator).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


@given(st.integers(0, 1 << 66), st.text("0123456789", max_size=70), st.booleans())
def test_decimal_string_rounds_half_up_like_fraction(whole, frac, bare_whole):
    text = f"{whole}.{frac}" if frac or not bare_whole else str(whole)
    raw = math.floor(Fraction(text) * (1 << 64) + Fraction(1, 2))
    if raw >= 1 << 129:
        with pytest.raises(DomainError, match="^fraction too large for fixed-point range$"):
            Fixed129.from_decimal_string(text)
    else:
        assert Fixed129.from_decimal_string(text).raw == raw


def test_decimal_string_rounding_edges():
    # a value halfway between two multiples of 2**-64 rounds up: 2**-65 and 5 * 2**-65
    assert Fixed129.from_decimal_string(_decimal(5 ** 65, 65)).raw == 1
    assert Fixed129.from_decimal_string(_decimal(5 * 5 ** 65, 65)).raw == 3
    with pytest.raises(DomainError, match="^fraction too large for fixed-point range$"):
        Fixed129.from_decimal_string(str(1 << 65))
    # 2**65 - 2**-65 is the tie that rounds out of range; one digit below it,
    # the largest accepted value rounds to the largest raw value
    tie = ((1 << 130) - 1) * 5 ** 65
    assert Fixed129.from_decimal_string(_decimal(tie - 1, 65)).raw == (1 << 129) - 1
    with pytest.raises(DomainError, match="^fraction too large for fixed-point range$"):
        Fixed129.from_decimal_string(_decimal(tie, 65))


@pytest.mark.parametrize("text", ["\u0663.5", "0.\u0665", "\u00b2", "1_0.5", ""])
def test_decimal_string_takes_ascii_digits_only(text):
    # str.isdigit and int() also take other scripts' digits (U+0663 is an
    # Arabic-Indic three), and int() takes underscores
    with pytest.raises(DomainError, match="^decimal value is not a decimal integer: "):
        Fixed129.from_decimal_string(text)


@pytest.mark.parametrize("text", ["-0.0", "-.5", ".-0", "-1.5"])
def test_decimal_string_takes_no_sign(text):
    # the digits on both sides of the point, joined, must not pass as a
    # negative integer: '.-0' joins to '-0'
    with pytest.raises(DomainError, match="^decimal value has a sign: "):
        Fixed129.from_decimal_string(text)


def test_legal_pairs():
    pairs = legal_alpha_beta_pairs()
    assert len(pairs) == 21
    assert all(1 <= a and b >= 1 and a + b <= 7 for a, b in pairs)


@given(st.integers(0, 255), st.integers(0, 255))
def test_weight_xor_symmetry(a, b):
    assert block_weight(bytes([a ^ b])) == block_weight(bytes([b ^ a])) == \
        bin(a ^ b).count("1")


@given(st.permutations(range(16)), st.binary(min_size=16, max_size=16))
def test_block_weight_permutation_invariant(perm, data):
    shuffled = bytes(data[i] for i in perm)
    assert block_weight(shuffled) == block_weight(data)
