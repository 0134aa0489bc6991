import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import memo_blocks, random_key, random_plain
from crafted import encrypt_with_stream
from mcs import prbg
from mcs.cipher import decrypt, encrypt
from mcs.core import Fixed129
from mcs.errors import DomainError
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


@pytest.mark.parametrize("blocks", [0, -1])
def test_stream_needs_a_block(blocks):
    with pytest.raises(DomainError, match="^need at least one block$"):
        generate_prbs(Fixed129(1), blocks)


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


# --- the memo of kept streams -------------------------------------------

# the longest stream the memo keeps
BOUND = memo_blocks(prbg._memo)
# Seeds in pairs that agree in all but their low fractional bits, so a memo
# keyed on too few bits would serve one seed's stream for the other.
POOL = [0x1D_5A3C_0F2E_9B71_4C86_D0E3_A5F7_1B29, 0x1D_5A3C_0F2E_9B71_4C86_D0E3_A5F7_1B28,
        0x0_8E21_74C9_3A06_F5D8_0B6E_1F2C_93A4, 0x0_8E21_74C9_3A06_F5D8_8B6E_1F2C_93A4]


def oracle_rows(raw, blocks):
    """Packed state rows stepped with the big-int oracle; fast at the bound."""
    rows = []
    for _ in range(blocks):
        rows.append((raw << 7).to_bytes(17, "big"))
        raw = big_int_oracle(raw)
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(blocks, 17)


@functools.cache
def pool_rows(i):
    return oracle_rows(POOL[i], BOUND + 1)


def held_bytes():
    held = sum(prbg._memo.charge(len(rows)) for rows in prbg._memo.values())
    assert held == prbg._memo.held
    return held


def check_stream(rows, expected):
    assert rows.shape == expected.shape and (rows == expected).all()
    with pytest.raises(ValueError):
        rows.setflags(write=True)
    assert held_bytes() <= prbg._memo.bound


def test_oracle_rows_are_the_reference_bits():
    for i in range(len(POOL)):
        bits = np.array(ref_bits(POOL[i], 64), dtype=np.uint8).reshape(64, 129)
        assert (pool_rows(i)[:64] == np.packbits(bits, axis=1)).all()


@given(st.lists(st.tuples(st.integers(0, len(POOL) - 1),
                          st.integers(1, 64) | st.sampled_from([BOUND - 1, BOUND, BOUND + 1])),
                min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_memo_serves_the_reference_stream(requests):
    for i, blocks in requests:
        others = prbg._memo.keys() - {POOL[i]}
        check_stream(generate_prbs(Fixed129(POOL[i]), blocks).rows, pool_rows(i)[:blocks])
        assert (POOL[i] in prbg._memo) == (blocks <= BOUND)
        if blocks > BOUND:
            assert others <= prbg._memo.keys()  # nothing evicted for a stream not kept


def fresh_seed(tag):
    """A seed that no other test asks for, so its first stream is cold."""
    raw = random.Random(f"prbg-memo-{tag}").getrandbits(129)
    assert raw not in prbg._memo
    return Fixed129(raw)


def test_stream_past_the_bound_is_not_kept():
    x0, short = fresh_seed("past-bound"), fresh_seed("past-bound-short")
    generate_prbs(short, 5)
    first = generate_prbs(x0, BOUND + 1).rows
    assert x0.raw not in prbg._memo and short.raw in prbg._memo
    again = generate_prbs(x0, BOUND + 1).rows
    assert not np.shares_memory(first, again)
    check_stream(again, first)


def test_stream_of_the_readme_image_is_kept():
    x0 = fresh_seed("image")  # 512x512 bytes cut to 17,476 blocks
    generate_prbs(x0, 17_476)
    assert len(prbg._memo[x0.raw]) == 17_476


def test_shorter_request_is_a_prefix_and_longer_replaces():
    x0 = fresh_seed("prefix")
    long = generate_prbs(x0, 300).rows
    short = generate_prbs(x0, 120).rows
    assert np.shares_memory(short, long)
    check_stream(short, long[:120])
    longer = generate_prbs(x0, 301).rows
    assert not np.shares_memory(longer, long) and len(prbg._memo[x0.raw]) == 301
    check_stream(longer[:300], long)


def test_least_recently_used_seed_is_evicted_first():
    a, b, c = (fresh_seed(f"lru-{n}") for n in "abc")
    memo, half = prbg._memo, memo_blocks(prbg._memo, 2)
    generate_prbs(a, half)
    generate_prbs(b, half)
    assert held_bytes() == 2 * memo.charge(half)  # full: one more block does not fit
    assert held_bytes() + memo.charge(1) > memo.bound
    generate_prbs(a, 1)  # a hit, which makes b the least recently used
    generate_prbs(c, 1)
    assert a.raw in prbg._memo and b.raw not in prbg._memo and c.raw in prbg._memo
    assert held_bytes() == memo.charge(half) + memo.charge(1)


def test_memo_hit_keeps_the_charge_and_moves_the_key_last():
    # a hit hands out the kept value without building or recharging it, and
    # makes its key the most recently used
    memo = prbg.BlockMemo(10_000, 10, 100)
    for key, blocks in (("a", 30), ("b", 20), ("c", 10)):
        memo.fetch(key, blocks, lambda blocks=blocks: bytes(blocks))
    held = memo.held
    assert held == sum(memo.charge(n) for n in (30, 20, 10))
    kept = memo["a"]
    for blocks in (30, 1):
        assert memo.fetch("a", blocks, lambda: pytest.fail("a hit must not build")) is kept
        assert memo.held == held and list(memo) == ["b", "c", "a"]
    memo.fetch("b", 20, lambda: pytest.fail("a hit must not build"))
    assert memo.held == held and list(memo) == ["c", "a", "b"]


@pytest.mark.parametrize("first", ["encrypt", "decrypt", "longer-encrypt"])
def test_cipher_gives_the_same_bytes_cold_and_warm(first):
    rng = random.Random(f"prbg-memo-cipher-{first}")
    key = random_key(rng)
    assert key.x0.raw not in prbg._memo
    plain = random_plain(rng, 40)
    bits = np.array(ref_bits(key.x0.raw, 40), dtype=np.uint8).reshape(40, 129)
    expected = encrypt_with_stream(plain, bits, (key.alpha1, key.beta1),
                                   (key.alpha2, key.beta2), key.secret)
    if first == "encrypt":
        assert encrypt(plain, key) == expected  # cold
    elif first == "decrypt":
        assert decrypt(expected, key) == plain  # cold
    else:
        encrypt(random_plain(rng, 41), key)  # keeps 41 rows, served as a prefix below
    assert encrypt(plain, key) == expected and decrypt(expected, key) == plain  # warm
