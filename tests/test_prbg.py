import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcs.core import Fixed129
from mcs.prbg import generate_prbs
from reference import ref_bits

MASK = (1 << 129) - 1


def big_int_oracle(raw):
    """Direct evaluation of the state update on arbitrary-precision ints."""
    parity = bin(raw & ((1 << 64) - 1)).count("1") % 2
    h = MASK if parity else 0
    return ((raw ^ h) * 419 >> 8) & MASK


def bits_of(raw):
    """The 129 controlling bits of one state, MSB first."""
    return [(raw >> (128 - t)) & 1 for t in range(129)]


def next_state(raw):
    """One generator step, read back from the stream's second block."""
    return int("".join(map(str, generate_prbs(Fixed129(raw), 2).bits[1])), 2)


def test_next_examples():
    assert next_state(0) == 0
    assert next_state(1 << 64) == 419 << 56
    assert next_state(1) == ((419 * ((1 << 129) - 2)) >> 8) & MASK


def test_extract_bits_examples():
    assert not generate_prbs(Fixed129(0), 1).bits.any()
    v = generate_prbs(Fixed129(1 << 128), 1).bits[0]
    assert v[0] == 1 and not v[1:].any()
    v = generate_prbs(Fixed129(1), 1).bits[0]
    assert v[128] == 1 and not v[:128].any()


@given(st.integers(0, MASK), st.integers(1, 64))
@settings(max_examples=60)
def test_stream_matches_big_int_oracle(raw, blocks):
    stream = generate_prbs(Fixed129(raw), blocks)
    assert stream.bits.reshape(-1).tolist() == ref_bits(raw, blocks)


@given(st.integers(0, MASK), st.integers(1, 64))
@settings(max_examples=40)
def test_rows_are_the_packed_bits(raw, blocks):
    stream = generate_prbs(Fixed129(raw), blocks)
    assert stream.rows.dtype == np.uint8 and stream.rows.shape == (blocks, 17)
    # bits 0..128 MSB first, then 7 zero pad bits
    assert (stream.rows == np.packbits(stream.bits, axis=1)).all()
    assert stream.bits is stream.bits  # unpacked once
    for arr in (stream.rows, stream.bits):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_zero_fixed_point():
    stream = generate_prbs(Fixed129(0), 2)
    assert stream.bits.shape == (2, 129)
    assert not stream.bits.any()


def test_single_block_is_initial_state():
    x0 = Fixed129(0x1234567890ABCDEF << 40)
    stream = generate_prbs(x0, 1)
    assert stream.bits[0].tolist() == bits_of(x0.raw)


@given(st.integers(0, MASK), st.integers(1, 6))
@settings(max_examples=40)
def test_prefix_property(raw, blocks):
    x0 = Fixed129(raw)
    short = generate_prbs(x0, blocks)
    long = generate_prbs(x0, blocks + 1)
    assert (long.bits[:blocks] == short.bits).all()


@given(st.integers(0, MASK))
@settings(max_examples=60)
def test_next_stays_in_range_and_matches_oracle(raw):
    out = next_state(raw)
    assert 0 <= out < (1 << 129)
    assert out == big_int_oracle(raw)


def test_determinism():
    x0 = Fixed129(0xDEADBEEF)
    a = generate_prbs(x0, 5)
    b = generate_prbs(x0, 5)
    assert (a.bits == b.bits).all()
