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
