import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_KEY, memo_blocks, random_key, random_plain
from crafted import encrypt_with_stream
import mcs.cipher as cipher_module
from mcs import prbg
from mcs.attack import run_attack
from mcs.cipher import (
    SWAP_TABLE,
    _encrypt_parts,
    _rotate_columns,
    _rotate_rows,
    column_keeps,
    cross_swap,
    decrypt,
    ees_decrypt,
    encrypt,
    expansion_chain,
    frame_rows,
    key_parts,
    last_dropped,
    pack_rows,
    plane_words,
)
from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.errors import NonDivisibleLength
from mcs.prbg import generate_prbs
from reference import (
    SWAPS,
    block_weight,
    ref_chain,
    ref_decrypt,
    ref_encrypt,
    ref_expand,
    ref_l,
    ref_mask,
    ref_rotate_columns,
    ref_rotate_rows,
    ref_swap,
    ref_to_frame,
    ref_unexpand,
)

GOLDEN_PLAIN = bytes(range(45))
GOLDEN_CIPHER = bytes.fromhex(
    "ca0be55ea5f310b185fbb3c4ae63d3f912bbf0ad13b6d36c"
    "2691b0c9f978425cae0715493cd6c0a6105295b2411e2041"
)


def test_swap_table_shape():
    assert len(SWAP_TABLE) == 32
    assert SWAP_TABLE[0] == (0, 8, 4)
    assert SWAP_TABLE[-1] == (14, 15, 35)
    controls = [l for _, _, l in SWAP_TABLE]
    assert sorted(controls) == list(range(4, 36))
    assert list(SWAP_TABLE) == SWAPS


def test_expand_block():
    plain = bytes(range(1, 16))
    block, temp = ref_expand(plain, 20, 0)
    assert block == list(plain) + [20]
    assert temp == 1
    block, temp = ref_expand(bytes(15), 0, 9)
    assert block == [0] * 16 and temp == 0
    _, temp = ref_expand(plain, 20, 15)
    assert temp == 20


def test_swap_bytes_examples():
    block = list(range(16))
    assert ref_swap(block, [0] * 129) == block
    bits = [0] * 129
    bits[4] = 1  # table entry (0, 8, 4)
    out = ref_swap(block, bits)
    assert out[0] == 8 and out[8] == 0 and out[1:8] == block[1:8]


def test_swap_bytes_matches_sequential_replay(rng):
    # the parts form: cross-half swap bits, then one permutation per half
    for _ in range(50):
        bits = np.array([[rng.randrange(2) for _ in range(129)]], dtype=np.uint8)
        parts = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))[0]
        b = bits[0].tolist()
        assert_perms_match(parts.perms[0], b)
        block = [rng.randrange(256) for _ in range(16)]
        assert ref_swap(ref_swap(block, b), b, inverse=True) == block


def test_mask_all_zero_bits_complements():
    bits = [0] * 129
    block = list(range(16))
    assert ref_mask(block, bits) == [b ^ 0xFF for b in block]
    parts = key_parts(np.zeros((1, 17), dtype=np.uint8), (2, 5), (3, 4))[0]
    assert (parts.seed_star == 0xFF).all()


def test_mask_identity_when_first_seed_selected_and_zero():
    # selector bits 36..51 all 1 pick the first seed; make its quads cancel
    bits = [0] * 129
    for t in range(36, 52):
        bits[t] = 1
    block = list(range(16))
    assert ref_mask(block, bits) == block
    parts = key_parts(np.packbits([bits], axis=1), (2, 5), (3, 4))[0]
    assert (parts.seed_star == 0).all()


def test_mask_involution(rng):
    for _ in range(30):
        bits = [rng.randrange(2) for _ in range(129)]
        block = [rng.randrange(256) for _ in range(16)]
        assert ref_mask(ref_mask(block, bits), bits) == block


def test_mask_matches_bit_plane_form(rng):
    # the byte-wise mask of the parts equals the reference's per-plane masking
    for _ in range(30):
        bits = [rng.randrange(2) for _ in range(129)]
        block = [rng.randrange(256) for _ in range(16)]
        seed_star = key_parts(np.packbits([bits], axis=1), (2, 5), (3, 4))[0].seed_star
        assert [x ^ int(m) for x, m in zip(block, seed_star[0])] == ref_mask(block, bits)


def test_rotate_row():
    # direction 0 rotates by alpha (+ beta with the magnitude bit), direction
    # 1 by 8 minus that; bit c of the row moves to column (c + amount) % 8
    for p, mag, amount in ((0, 0, 2), (0, 1, 7), (1, 0, 6), (1, 1, 1)):
        bits = [0] * 129
        bits[65], bits[66] = p, mag
        for r in range(256):
            out = ref_rotate_rows([r] + [0] * 15, bits, (2, 5), (3, 4))[0]
            assert out == sum(((r >> c) & 1) << ((c + amount) % 8) for c in range(8))
            back = ref_rotate_rows([out] + [0] * 15, bits, (2, 5), (3, 4), inverse=True)
            assert back[0] == r


def test_rotate_horizontal_examples():
    bits = [0] * 129
    block = [0x01] + [0] * 15
    out = ref_rotate_rows(block, bits, (2, 5), (3, 4))
    assert out[0] == 0x04  # amount alpha1 = 2
    bits[65] = 1  # direction bit of row 0
    bits[66] = 1  # magnitude bit of row 0: amount 8 - 7 = 1
    out = ref_rotate_rows(block, bits, (2, 5), (3, 4))
    assert out[0] == 0x02
    assert ref_rotate_rows([0x80] + [0] * 15, bits, (2, 5), (3, 4))[0] == 0x01
    assert ref_rotate_rows([0xFF] * 16, bits, (2, 5), (3, 4)) == [0xFF] * 16


def test_rotate_vertical_examples():
    bits = [0] * 129
    # alpha = 2, magnitude bits 0 -> every column shifts down by 2
    block = [0xFF] + [0] * 15
    out = ref_rotate_columns(block, bits, (2, 5), (2, 4))
    assert out[:8] == [0, 0, 0xFF, 0, 0, 0, 0, 0]
    uniform = [0x5A] * 16
    assert ref_rotate_columns(uniform, bits, (2, 5), (2, 4)) == uniform


def test_rotate_vertical_inverse(rng):
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(129)]
        block = [rng.randrange(256) for _ in range(16)]
        once = ref_rotate_columns(block, bits, (2, 5), (3, 4))
        assert ref_rotate_columns(once, bits, (2, 5), (3, 4), inverse=True) == block
        # applying the complementary shifts undoes it too
        inv_bits = list(bits)
        for base in (81, 113):
            for j in range(8):
                inv_bits[base + 2 * j] ^= 1  # flip direction: s -> 8 - s
        assert ref_rotate_columns(once, inv_bits, (2, 5), (3, 4)) == block


def ref_cross_swap(block, b):
    """The first eight transpositions of the reference, one byte pair at a time."""
    block = list(block)
    for i, j, c in SWAPS[:8]:
        if b[c]:
            block[i], block[j] = block[j], block[i]
    return block


@pytest.mark.parametrize("dtype", [np.uint8, bool])
def test_cross_swap_matches_per_byte_swaps(nprng, dtype):
    bits = nprng.integers(0, 2, size=(300, 129), dtype=np.uint8)
    wide = nprng.integers(0, 256 if dtype is np.uint8 else 2, size=(300, 32)).astype(dtype)
    handed = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))[0].swap_bits
    assert handed.shape == (300, 8) and handed.flags.c_contiguous  # a copy of bits 4..11
    assert (handed == bits[:, 4:12]).all()
    for swap_bits in (handed, bits[:, 4:12]):  # contiguous and a strided view
        for blocks in (wide[:, :16].copy(), wide[:, 8:24]):  # contiguous and strided
            before = blocks.copy()
            got = cross_swap(blocks, swap_bits)
            assert got.dtype == blocks.dtype and got.shape == (300, 16)
            assert (blocks == before).all()  # the input is left as it was
            want = [ref_cross_swap(block, b) for block, b in zip(blocks.tolist(), bits.tolist())]
            assert got.tolist() == want
            assert (cross_swap(got, swap_bits) == blocks).all()  # its own inverse


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.permutations(range(8)), st.permutations(range(8)),
                          st.lists(st.integers(0, 1), min_size=8, max_size=8)),
                min_size=1, max_size=5))
def test_frame_rows_match_per_byte_swaps_and_permutations(blocks):
    # each expanded byte lands on the row the reference's eight cross-half swaps
    # and then its within-half permutations move it to
    perms = np.array([halves for *halves, _ in blocks], dtype=np.uint8)
    swap_bits = np.array([bits for *_, bits in blocks], dtype=np.uint8)
    rows = frame_rows(perms, swap_bits)
    assert rows.dtype == np.uint8 and rows.shape == (len(blocks), 16)
    crossed = [ref_cross_swap(range(16), [0] * 4 + bits) for *_, bits in blocks]
    for frame, block_rows in zip(ref_to_frame(crossed, perms.tolist()), rows.tolist()):
        assert [frame[row] for row in block_rows] == list(range(16))


def test_rotations_match_definition_and_reference(nprng):
    # every (amount, byte) pair: bit c of the byte moved to column (c + a) % 8
    amounts, values = np.divmod(np.arange(8 * 256), 256)
    amounts = amounts.astype(np.uint8)
    got = _rotate_rows(values.astype(np.uint8), amounts, -amounts & 7)
    assert got.dtype == np.uint8
    for a, b, out in zip(amounts.tolist(), values.tolist(), got.tolist()):
        assert out == sum(((b >> c) & 1) << ((c + a) % 8) for c in range(8))
    for ab1, ab2 in (((2, 5), (3, 4)), ((1, 1), (6, 1)), ((4, 3), (2, 2))):
        bits = nprng.integers(0, 2, size=(200, 129), dtype=np.uint8)
        blocks = nprng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        schedule = key_parts(np.packbits(bits, axis=1), ab1, ab2)
        parts = schedule.parts
        rows = [ref_rotate_rows(x, b, ab1, ab2) for x, b in zip(blocks.tolist(), bits.tolist())]
        assert _rotate_rows(blocks, parts.rot_x, schedule.back_x).tolist() == rows
        cols = [ref_rotate_columns(x, b, ab1, ab2) for x, b in zip(rows, bits.tolist())]
        assert _rotate_columns(np.array(rows, dtype=np.uint8), schedule.keeps).tolist() == cols
        cipher = np.array(cols, dtype=np.uint8)
        unrotated = _rotate_columns(cipher, schedule.keeps, inverse=True)
        assert unrotated.tolist() == rows
        assert (_rotate_rows(unrotated, schedule.back_x, parts.rot_x) == blocks).all()


def test_inverse_column_rotation_undoes_the_forward_one(nprng):
    # with a key's held keep masks, on stacked (S, B, 16) blocks and one slab
    # at a time; the masks built from a strided copy of rot_y are the held ones
    for blocks in (1, 7, 300):
        bits = nprng.integers(0, 2, size=(blocks, 129), dtype=np.uint8)
        schedule = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))
        rot_y = np.concatenate([schedule.parts.rot_x, schedule.parts.rot_y], axis=1)[:, 16:]
        assert not rot_y.flags.c_contiguous or blocks == 1
        keeps = column_keeps(rot_y)
        assert keeps.dtype == np.uint64 and keeps.shape == (3, blocks, 2)
        assert np.array_equal(keeps, schedule.keeps)
        stack = nprng.integers(0, 256, size=(4, blocks, 16), dtype=np.uint8)
        forward = _rotate_columns(stack, schedule.keeps)
        for slab, out in zip(stack, forward):
            assert np.array_equal(_rotate_columns(slab, keeps), out)
        back = _rotate_columns(forward, schedule.keeps, inverse=True)
        assert np.array_equal(back, stack)
        assert np.array_equal(_rotate_columns(_rotate_columns(stack, keeps, inverse=True), keeps),
                              stack)
        # the inverse equals the forward rotation by -rot_y & 7
        assert np.array_equal(back, _rotate_columns(forward, column_keeps(-rot_y & 7)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.lists(st.integers(0, 7), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_spread_keeps_rotate_columns_as_the_reference(blocks, ab, seed):
    # random column amounts: the keep mask of level k has bit j of every byte
    # set where column j's amount has bit k, and the rotation both ways is the
    # reference's
    nprng = np.random.default_rng(seed)
    bits = nprng.integers(0, 2, size=(blocks, 129), dtype=np.uint8)
    ab1, ab2 = ab[:2], ab[2:]
    # each column's (direction, magnitude) pair: bits 81..96 in half 0, 113..128 in half 1
    pairs = np.stack([bits[:, 81:97], bits[:, 113:]], axis=1).reshape(blocks, 2, 8, 2)
    r = np.array([ab1[0], ab2[0]])[:, None] + np.array([ab1[1], ab2[1]])[:, None] * pairs[..., 1]
    amounts = (np.where(pairs[..., 0] == 1, 8 - r, r) % 8).astype(np.uint8)
    level_bits = amounts[None] >> np.arange(3, dtype=np.uint8)[:, None, None, None] & 1
    masks = (level_bits << np.arange(8, dtype=np.uint8)).sum(axis=-1, dtype=np.uint8)
    keeps = column_keeps(amounts.reshape(blocks, 16))
    assert keeps.dtype == np.uint64
    assert np.array_equal(keeps, masks.astype(np.uint64) * np.uint64(0x0101010101010101))
    x = nprng.integers(0, 256, size=(blocks, 16), dtype=np.uint8)
    forward, back = _rotate_columns(x, keeps), _rotate_columns(x, keeps, inverse=True)
    for k, b in enumerate(bits.tolist()):
        assert forward[k].tolist() == ref_rotate_columns(x[k].tolist(), b, ab1, ab2)
        assert back[k].tolist() == ref_rotate_columns(x[k].tolist(), b, ab1, ab2, inverse=True)


def assert_perms_match(perms, b):
    """Each half's permutation moves byte q where the reference swaps move it."""
    labels = ref_swap(list(range(16)), b)
    for q in range(16):
        crossed = q ^ 8 if b[4 + q % 8] else q
        m, s = divmod(q, 8)
        assert labels[8 * m + int(perms[m, s])] == crossed


def assert_rotations_match(rot_x, rot_y, b, ab1, ab2):
    for p in range(16):
        # a lone bit at column 0 of row p / row 0 of column p % 8
        row = ref_rotate_rows([1 if i == p else 0 for i in range(16)], b, ab1, ab2)
        assert row[p] == 1 << int(rot_x[p])
        col = [1 << (p % 8) if i == 8 * (p // 8) else 0 for i in range(16)]
        col = ref_rotate_columns(col, b, ab1, ab2)
        assert col[8 * (p // 8) + int(rot_y[p])] == 1 << (p % 8)


def assert_parts_match_reference(parts, bits, blocks, ab1, ab2):
    assert parts.l_candidates == {} and not parts.unreliable_blocks
    for k in blocks:
        b = bits[k].tolist()
        assert int(parts.l_values[k]) == ref_l(b)
        assert parts.swap_bits[k].tolist() == b[4:12]
        assert_perms_match(parts.perms[k], b)
        assert parts.seed_star[k].tolist() == ref_mask([0] * 16, b)
        assert_rotations_match(parts.rot_x[k], parts.rot_y[k], b, ab1, ab2)
    for known in (parts.swap_known, parts.seed_known, parts.rotx_known):
        assert known.all() and not known.flags.writeable


def test_key_parts_match_reference_steps(rng, nprng):
    for _ in range(10):
        key = random_key(rng)
        ab1, ab2 = (key.alpha1, key.beta1), (key.alpha2, key.beta2)
        bits = generate_prbs(key.x0, 6).bits
        parts = key_parts(np.packbits(bits, axis=1), ab1, ab2)[0]
        assert_parts_match_reference(parts, bits, range(6), ab1, ab2)
    # random packed rows, pad bits too, so that every byte of the first and
    # the last rows is read where a row ends
    pairs = legal_alpha_beta_pairs()
    for num in (1, 2, 3, 4097):
        for _ in range(4):
            ab1, ab2 = rng.choice(pairs), rng.choice(pairs)
            rows = nprng.integers(0, 256, size=(num, 17), dtype=np.uint8)
            bits = np.unpackbits(rows, axis=1)[:, :129]
            parts = key_parts(rows, ab1, ab2)[0]
            edges = sorted({0, 1, 2, num // 2, num - 3, num - 2, num - 1} & set(range(num)))
            assert_parts_match_reference(parts, bits, edges, ab1, ab2)


# SHA-256 over every array a schedule holds (name, dtype, shape, flags and
# bytes) for SAMPLE_KEY's x0 at 16,384 blocks, under the four golden pair classes
SCHEDULE_DIGESTS = [
    ((2, 4), (1, 3), "6515a278560082030984c66db6ade8315ebf3cc89385f02c027f200194f99f66"),
    ((1, 3), (1, 1), "ba5e335d23da95b545c44eeb750accf62efa15f8f59a8f1865a30837c0511212"),
    ((1, 1), (3, 2), "cd96fdbba39c74100c75992eb80cebd84e304176ad96bf52f85a0014cdd9596d"),
    ((3, 2), (2, 4), "92f933b2a8db5119b44806ac78aa8b9ecc0e990b11a0e1474ef4de93afcf9cf4"),
]


@pytest.mark.parametrize("ab1, ab2, digest", SCHEDULE_DIGESTS,
                         ids=["symmetric", "two-way", "four-way", "unique"])
def test_key_schedule_pinned(ab1, ab2, digest):
    schedule = key_parts(generate_prbs(SAMPLE_KEY.x0, 16384).rows, ab1, ab2)
    held = [(n, a) for n, a in vars(schedule.parts).items() if isinstance(a, np.ndarray)]
    held += list(zip(schedule._fields[1:], schedule[1:]))
    assert len(held) == 14
    h = hashlib.sha256()
    for name, a in held:
        h.update(f"{name} {a.dtype.str} {a.shape} {a.flags.writeable}".encode())
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_key_parts_every_swap_code(nprng):
    # all 4096 settings of each half's 12 within-half swap bits, the other
    # bits random; the second half runs through its codes in another order
    bits = nprng.integers(0, 2, size=(4096, 129), dtype=np.uint8)
    codes = np.arange(4096)
    for half, order in ((0, codes), (1, (codes * 2731 + 1000) % 4096)):
        columns = [c for i, _, c in SWAPS[8:] if i // 8 == half]
        bits[:, columns] = (order[:, None] >> np.arange(12)) & 1
    parts = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))[0]
    for k in range(4096):
        assert_perms_match(parts.perms[k], bits[k].tolist())


def test_within_sources_invert_within_perms():
    # for all 8,192 codes, frame row r of half h takes source row sources[r] - 8h,
    # which the permutation moves to frame row r
    perms = cipher_module._WITHIN_PERMS.view(np.uint8).reshape(2, 4096, 8)
    sources = cipher_module._WITHIN_SOURCES.view(np.uint8).reshape(2, 4096, 8)
    for half in range(2):
        rows = sources[half].astype(int) - 8 * half
        assert ((rows >= 0) & (rows < 8)).all()
        assert (np.take_along_axis(perms[half], rows, axis=1) == np.arange(8)).all()


def test_gather_every_swap_code(nprng):
    # the gather takes each expanded byte where the eight cross swaps and the
    # within-half permutations move it, for all 4096 codes of each half
    bits = nprng.integers(0, 2, size=(4096, 129), dtype=np.uint8)
    codes = np.arange(4096)
    for half, order in ((0, codes), (1, (codes * 2731 + 1000) % 4096)):
        columns = [c for i, _, c in SWAPS[8:] if i // 8 == half]
        bits[:, columns] = (order[:, None] >> np.arange(12)) & 1
    parts, gather = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))[:2]
    assert not gather.flags.writeable
    assert (gather // 16 == np.arange(4096)[:, None]).all()  # each block reads its own bytes
    assert_gather_moves_to_frame(parts, gather, nprng)


def ref_amounts(ab):
    """The reference's row and column amounts for codes 2 p + mag = 0..3."""
    rows, cols = [], []
    for code in range(4):
        b = [0] * 129
        b[65], b[66] = b[81], b[82] = divmod(code, 2)
        rows.append(ref_rotate_rows([1] + [0] * 15, b, ab, ab)[0].bit_length() - 1)
        cols.append(ref_rotate_columns([1] + [0] * 15, b, ab, ab).index(1))
    return np.array(rows), np.array(cols)


def test_key_parts_every_rotation_code(nprng):
    # every byte value of (direction, magnitude) codes in each of the eight
    # bytes of bits 65..128, under each of the 21 legal (alpha, beta) pairs
    # in both halves
    pairs = legal_alpha_beta_pairs()
    byte = (np.arange(256)[:, None] + 41 * np.arange(8)) % 256  # [block, byte]
    codes = (byte[:, :, None] >> np.array([6, 4, 2, 0]) & 3).reshape(256, 32)
    for i, ab1 in enumerate(pairs):
        ab2 = pairs[(i + 8) % len(pairs)]
        bits = nprng.integers(0, 2, size=(256, 129), dtype=np.uint8)
        bits[:, 65::2], bits[:, 66::2] = codes >> 1, codes & 1
        parts = key_parts(np.packbits(bits, axis=1), ab1, ab2)[0]
        (rows1, cols1), (rows2, cols2) = ref_amounts(ab1), ref_amounts(ab2)
        assert (parts.rot_x[:, :8] == rows1[codes[:, 0:8]]).all()
        assert (parts.rot_y[:, :8] == cols1[codes[:, 8:16]]).all()
        assert (parts.rot_x[:, 8:] == rows2[codes[:, 16:24]]).all()
        assert (parts.rot_y[:, 8:] == cols2[codes[:, 24:32]]).all()
        for k in (0, 255):
            assert_rotations_match(parts.rot_x[k], parts.rot_y[k], bits[k].tolist(), ab1, ab2)


def test_key_parts_every_mask_byte(nprng):
    # every value of each byte of bits 0..127, which hold the plane seeds,
    # then every value of bits 36..43 and of bits 44..51, the seed selectors
    seeds = (np.arange(256)[:, None] + 97 * np.arange(16)) % 256
    selectors = np.stack([np.arange(256), (73 * np.arange(256) + 5) % 256], axis=1)
    bits = nprng.integers(0, 2, size=(512, 129), dtype=np.uint8)
    bits[:256, :128] = np.unpackbits(seeds.astype(np.uint8), axis=1)
    bits[256:, 36:52] = np.unpackbits(selectors.astype(np.uint8), axis=1)
    parts = key_parts(np.packbits(bits, axis=1), (2, 5), (3, 4))[0]
    for k in range(512):
        assert parts.seed_star[k].tolist() == ref_mask([0] * 16, bits[k].tolist())


def test_scalar_pipeline_matches_bulk(rng):
    # one-block encryption assembled from the reference step functions
    for _ in range(25):
        key = random_key(rng)
        ab1, ab2 = (key.alpha1, key.beta1), (key.alpha2, key.beta2)
        plain = random_plain(rng, 1)
        bits = generate_prbs(key.x0, 1).bits[0].tolist()
        block, _ = ref_expand(plain, key.secret, ref_l(bits))
        block = ref_swap(block, bits)
        block = ref_mask(block, bits)
        block = ref_rotate_rows(block, bits, ab1, ab2)
        block = ref_rotate_columns(block, bits, ab1, ab2)
        assert bytes(block) == encrypt(plain, key)


def test_golden_vector_sample_key():
    assert encrypt(GOLDEN_PLAIN, SAMPLE_KEY) == GOLDEN_CIPHER
    assert decrypt(GOLDEN_CIPHER, SAMPLE_KEY) == GOLDEN_PLAIN


def test_matches_naive_reference(rng):
    for _ in range(10):
        key = random_key(rng)
        plain = random_plain(rng, rng.choice([1, 2, 5]))
        cipher = encrypt(plain, key)
        assert cipher == ref_encrypt(plain, key)
        assert decrypt(cipher, key) == ref_decrypt(cipher, key) == plain


def test_length_contracts():
    key = SAMPLE_KEY
    assert len(encrypt(bytes(15), key)) == 16
    assert encrypt(b"", key) == b""
    assert decrypt(b"", key) == b""
    with pytest.raises(NonDivisibleLength):
        encrypt(bytes(16), key)
    with pytest.raises(NonDivisibleLength):
        decrypt(bytes(15), key)


def test_decrypt_ignores_secret(rng):
    for _ in range(10):
        key = random_key(rng)
        other = SecretKey(key.alpha1, key.beta1, key.alpha2, key.beta2,
                          (key.secret + 1) % 256, key.x0)
        plain = random_plain(rng, 4)
        assert decrypt(encrypt(plain, key), other) == plain


def test_zero_prbs_decrypt_oracle():
    # 16 zero bytes under an all-zero stream, inverted step by step by hand
    key = SecretKey(2, 5, 3, 4, 20, Fixed129(0))
    bits = [0] * 129
    cipher = [0] * 16
    block = ref_rotate_columns(cipher, [0] * 81 + [1, 0] * 8 + [0] * 16 + [1, 0] * 8,
                               (2, 5), (3, 4))  # undo down-shifts via direction flips
    block = ref_rotate_rows(block, [0] * 65 + [1, 0] * 8 + [0] * 16 + [1, 0] * 8,
                            (2, 5), (3, 4))
    block = ref_mask(block, bits)
    block = ref_swap(block, bits, inverse=True)
    assert decrypt(bytes(cipher), key) == bytes(block[:15])


@given(st.integers(0, (1 << 129) - 1), st.binary(min_size=15, max_size=15),
       st.binary(min_size=15, max_size=15))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(raw, p1, p2):
    key = SecretKey(1, 1, 5, 2, 77, Fixed129(raw))
    plain = p1 + p2
    assert decrypt(encrypt(plain, key), key) == plain


legal_pairs = st.sampled_from(legal_alpha_beta_pairs())


@given(st.integers(0, (1 << 129) - 1), legal_pairs, legal_pairs, st.integers(0, 255),
       st.integers(1, 64).flatmap(lambda n: st.binary(min_size=15 * n, max_size=15 * n)))
@settings(max_examples=40, deadline=None)
def test_encrypt_matches_encrypt_with_stream(raw, ab1, ab2, secret, plain):
    # encrypt reads the generator's packed rows, encrypt_with_stream packs the bit matrix
    key = SecretKey(*ab1, *ab2, secret, Fixed129(raw))
    bits = generate_prbs(key.x0, len(plain) // 15).bits
    assert encrypt(plain, key) == encrypt_with_stream(plain, bits, ab1, ab2, secret)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_cipher_path_peak_memory():
    # a cold call at 16,384 blocks (245,760 B), under a key that neither memo
    # holds, builds no temporary of 8 bytes per plaintext byte, so its traced
    # peak stays below 5 MiB
    nprng = np.random.default_rng(1)
    plain, cipher = nprng.bytes(15 * 16384), nprng.bytes(16 * 16384)
    for tag, call in (("encrypt", lambda key: encrypt(plain, key)),
                      ("decrypt", lambda key: decrypt(cipher, key))):
        key = fresh_key(f"cold-peak-{tag}")
        assert traced_peak(lambda: call(key)) < 5 * 2**20


def test_warm_cipher_path_peak_memory():
    # with the key's parts kept, an encrypt and a decrypt after it build only
    # the pipeline's own arrays
    plain = np.random.default_rng(2).bytes(15 * 16384)
    key = fresh_key("warm-peak")
    cipher = encrypt(plain, key)
    assert traced_peak(lambda: encrypt(plain, key)) < 3 * 2**20
    assert traced_peak(lambda: decrypt(cipher, key)) < 3 * 2**20


# --- the memo of each key's parts ---------------------------------------

PARTS = cipher_module._parts_memo


def memo_key(key):
    return key.x0.raw, key.alpha1, key.beta1, key.alpha2, key.beta2


def fresh_key(tag):
    """A random key that no other test asks for, so neither memo holds it."""
    key = random_key(random.Random(f"parts-memo-{tag}"))
    assert key.x0.raw not in prbg._memo and memo_key(key) not in PARTS
    return key


def held_parts():
    held = sum(PARTS.charge(PARTS.blocks(kept)) for kept in PARTS.values())
    assert held == PARTS.held <= PARTS.bound
    return held


def direct_parts(key, blocks):
    """The schedule that key_parts builds directly."""
    return key_parts(generate_prbs(key.x0, blocks).rows, (key.alpha1, key.beta1),
                     (key.alpha2, key.beta2))


def assert_gather_moves_to_frame(parts, gather, nprng):
    """The gather takes expanded bytes where the cross swaps and the within-half
    permutations move them."""
    assert gather.dtype == np.int32 and gather.shape == (parts.num_blocks, 16)
    blocks = nprng.integers(0, 256, size=(parts.num_blocks, 16), dtype=np.uint8)
    assert np.take(blocks, gather).tolist() == ref_to_frame(
        cross_swap(blocks, parts.swap_bits).tolist(), parts.perms.tolist())


def check_round_trip(key, plain):
    """encrypt and decrypt give the bytes of parts that key_parts builds directly."""
    schedule = direct_parts(key, len(plain) // 15)
    cipher = encrypt(plain, key)
    assert cipher == _encrypt_parts(plain, schedule, key.secret)
    assert decrypt(cipher, key) == ees_decrypt(cipher, schedule.parts) == plain
    held_parts()
    return cipher


@pytest.mark.parametrize("longer_first", [True, False])
def test_parts_memo_gives_the_bytes_of_direct_parts(longer_first, nprng):
    rng = random.Random(f"parts-memo-order-{longer_first}")
    for n in range(40):
        key = fresh_key(f"order-{longer_first}-{n}")
        lengths = sorted(rng.sample(range(1, 300), 2), reverse=longer_first)
        for blocks in lengths:
            check_round_trip(key, random_plain(rng, blocks))
            assert_gather_moves_to_frame(*cipher_module._secret_key_parts(key, blocks)[:2], nprng)
        kept = PARTS[memo_key(key)]
        parts, gather = kept[:2]
        assert parts.num_blocks == len(gather) == max(lengths)  # the longest stream wins
        for blocks in lengths:
            assert cipher_module._secret_key_parts(key, blocks) is kept  # no copy
            want = direct_parts(key, blocks)
            for name, want_array in zip(want._fields[1:], want[1:]):
                got = getattr(kept, name)
                got = got[:, :blocks] if name == "keeps" else got[:blocks]
                assert np.array_equal(got, want_array) and got.dtype == want_array.dtype, name
            for name, want_part in vars(want.parts).items():
                got = getattr(parts, name)
                assert (np.array_equal(got[:blocks], want_part) and got.dtype == want_part.dtype
                        if isinstance(want_part, np.ndarray) else got == want_part), name


def test_held_schedule_decrypts_as_ees_decrypt_of_direct_parts():
    # decrypt scatters through the held gather; ees_decrypt gathers with the
    # parts alone: the same bytes for any ciphertext, also when the held
    # schedule is a longer key's and decrypt reads a prefix of it
    rng = random.Random("held-schedule-decrypt")
    for n in range(60):
        key = fresh_key(f"held-decrypt-{n}")
        longer, blocks = sorted(rng.sample(range(1, 301), 2), reverse=True)
        lengths = (longer, blocks) if n % 2 else (blocks,)
        for num in lengths:
            cipher, parts = rng.randbytes(16 * num), direct_parts(key, num).parts
            got = decrypt(cipher, key)
            assert got == ees_decrypt(cipher, parts)
            assert ees_decrypt(encrypt(got, key), parts) == got
        assert PARTS[memo_key(key)].parts.num_blocks == lengths[0]


@pytest.mark.parametrize("blocks", [4095, 4096, 4097, 8193])
def test_ees_decrypt_across_gather_slices(blocks):
    # ees_decrypt gathers in 4,096-block slices: below, at and past a slice
    # edge it gives decrypt's bytes under a key's own parts, and the plaintext
    # under the parts the attack recovers
    assert cipher_module._FRAME_SLICE == 4096
    rng = random.Random(f"ees-slices-{blocks}")
    key = random_key(rng)
    cipher = rng.randbytes(16 * blocks)
    assert ees_decrypt(cipher, direct_parts(key, blocks).parts) == decrypt(cipher, key)
    plain = rng.randbytes(15 * blocks)
    ek = run_attack(lambda p: encrypt(p, key), rng.randbytes(15 * blocks))
    assert ees_decrypt(encrypt(plain, key), ek) == plain


def test_encrypt_and_decrypt_at_gather_slice_edges():
    # below, at and past the 4,096-block slice of the gather and the scatter,
    # encrypt and decrypt give the reference's bytes; a block's bytes depend on
    # no later block, so each length is a prefix of one reference call
    assert cipher_module._FRAME_SLICE == 4096
    rng = random.Random("slice-edges")
    key = random_key(rng)
    plain, cipher = rng.randbytes(15 * 4097), rng.randbytes(16 * 4097)
    want_cipher, want_plain = ref_encrypt(plain, key), ref_decrypt(cipher, key)
    for blocks in (4095, 4096, 4097):  # each a longer stream: a new schedule
        assert encrypt(plain[:15 * blocks], key) == want_cipher[:16 * blocks]
    for blocks in (4095, 4096, 4097):  # prefixes of the kept schedule
        assert decrypt(cipher[:16 * blocks], key) == want_plain[:15 * blocks]


def test_ees_decrypt_peak_memory():
    # at 16,384 blocks ees_decrypt builds its index one slice at a time, so no
    # (B, 15) int32 index exists: the traced peak, the 245,760 output bytes
    # included, stays at or below the 1,641,728 B of a full-index gather
    rng = random.Random("ees-peak")
    parts = direct_parts(random_key(rng), 16384).parts
    cipher = rng.randbytes(16 * 16384)
    assert traced_peak(lambda: ees_decrypt(cipher, parts)) <= 1_641_728


def kept_arrays(kept):
    parts, *rest = kept
    return [a for a in vars(parts).values() if isinstance(a, np.ndarray)] + rest


def test_parts_memo_keys_on_every_rotation_pair():
    rng = random.Random("parts-memo-pairs")
    base = fresh_key("pairs")
    pairs = legal_alpha_beta_pairs()
    keys = [base] + [SecretKey(*rng.choice(pairs), *rng.choice(pairs), base.secret, base.x0)
                     for _ in range(6)]
    keys = list({memo_key(k): k for k in keys}.values())
    assert len(keys) > 1
    plain = random_plain(rng, 50)
    for key in keys + keys:  # each cold, then each warm
        check_round_trip(key, plain)
    kept = [PARTS[memo_key(key)] for key in keys]
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not any(np.shares_memory(x, y) for x in kept_arrays(a) for y in kept_arrays(b))
    # the secret enters only the expansion chain: another secret shares the parts
    other = SecretKey(base.alpha1, base.beta1, base.alpha2, base.beta2,
                      (base.secret + 1) % 256, base.x0)
    check_round_trip(other, plain)
    assert PARTS[memo_key(other)] is kept[0]


def test_parts_memo_hands_out_read_only_arrays():
    key = fresh_key("read-only")
    for blocks in (20, 20, 7):  # a miss, a hit, a shorter request
        held = cipher_module._secret_key_parts(key, blocks)
        assert held is PARTS[memo_key(key)]  # the held schedule itself
        parts, gather = held[:2]
        assert parts.l_candidates == {} and parts.num_blocks == len(gather) == 20
        for name in vars(parts):  # no caller can rebind a field of the held parts
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(parts, name, getattr(parts, name))
        with pytest.raises(AttributeError):  # nor a field of the schedule
            held.gather = gather
        arrays = kept_arrays(held)
        assert len(arrays) == 14  # the 9 arrays of the parts, the gather and 4 more
        for a in arrays:
            with pytest.raises(ValueError):
                a[...] = a


def test_parts_memo_evicts_the_least_recently_used_key():
    half = memo_blocks(PARTS, 2)
    plain = bytes(15 * half)
    a, b, c = (fresh_key(f"lru-{n}") for n in "abc")
    encrypt(plain, a)
    encrypt(plain, b)
    assert held_parts() == 2 * PARTS.charge(half)  # full: one more block does not fit
    assert held_parts() + PARTS.charge(1) > PARTS.bound
    encrypt(bytes(15), a)  # a hit, which makes b the least recently used
    encrypt(bytes(15), c)
    assert memo_key(a) in PARTS and memo_key(b) not in PARTS and memo_key(c) in PARTS
    assert held_parts() == PARTS.charge(half) + PARTS.charge(1)


def test_parts_past_the_bound_are_not_kept():
    # one key of README's 512x512-byte image (17,476 blocks) fits; past the
    # most blocks the bytes allow, a key is neither kept nor evicts anything
    most = memo_blocks(PARTS)
    assert PARTS.charge(17_476) <= PARTS.bound < PARTS.charge(most + 1)
    nprng = np.random.default_rng(4)
    for blocks in (17_476, most):
        key = fresh_key(f"past-bound-fits-{blocks}")
        check_round_trip(key, nprng.bytes(15 * blocks))
        assert memo_key(key) in PARTS
    assert list(PARTS) == [memo_key(key)]  # the most blocks leave no room for another key
    kept = fresh_key("past-bound-kept")
    check_round_trip(kept, random_plain(random.Random(3), 5))
    before, held = set(PARTS), held_parts()
    key = fresh_key("past-bound")
    check_round_trip(key, nprng.bytes(15 * (most + 1)))
    assert set(PARTS) == before and held_parts() == held
    assert memo_key(kept) in before and memo_key(key) not in before


def test_short_keys_stay_within_the_byte_ceilings():
    # the charge per kept value covers its objects, so 4,096 one-block keys
    # hold no more than the two ceilings (within 10 %), with both memos full;
    # neither memo has room for 2,048 such keys, so the traced last 2,048
    # are all that is held
    rng = random.Random("byte-ceilings")
    keys = [random_key(rng) for _ in range(4096)]
    plain = bytes(15)
    for key in keys[:2048]:
        encrypt(plain, key)
    tracemalloc.start()
    try:
        for key in keys[2048:]:
            encrypt(plain, key)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ceilings = prbg._memo.bound + PARTS.bound
    assert held <= 1.1 * ceilings
    for memo in (prbg._memo, PARTS):
        assert memo.held + memo.charge(1) > memo.bound and len(memo) < 2048


# ---------------------------------------------------------------------------
# Differential properties the attack relies on
# ---------------------------------------------------------------------------

def expanded_blocks(plain, key):
    """The expanded 16-byte blocks an encryption of ``plain`` would process."""
    bits = generate_prbs(key.x0, len(plain) // 15).bits
    temp = key.secret
    out = []
    for k in range(len(plain) // 15):
        block, temp = ref_expand(plain[15 * k:15 * k + 15], temp, ref_l(bits[k].tolist()))
        out.append(bytes(block))
    return out


def test_property_masking_preserves_differential(rng):
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(129)]
        b1 = [rng.randrange(256) for _ in range(16)]
        b2 = [rng.randrange(256) for _ in range(16)]
        m1, m2 = ref_mask(b1, bits), ref_mask(b2, bits)
        assert [x ^ y for x, y in zip(m1, m2)] == [x ^ y for x, y in zip(b1, b2)]


def test_property_expansion_independent_of_secret(rng):
    for _ in range(10):
        key = random_key(rng)
        other = SecretKey(key.alpha1, key.beta1, key.alpha2, key.beta2,
                          (key.secret + 123) % 256, key.x0)
        p1, p2 = random_plain(rng, 4), random_plain(rng, 4)
        d_a = [bytes(x ^ y for x, y in zip(a, b))
               for a, b in zip(expanded_blocks(p1, key), expanded_blocks(p2, key))]
        d_b = [bytes(x ^ y for x, y in zip(a, b))
               for a, b in zip(expanded_blocks(p1, other), expanded_blocks(p2, other))]
        assert d_a == d_b


def test_property_swaps_permute_differential(rng):
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(129)]
        b1 = [rng.randrange(256) for _ in range(16)]
        b2 = [rng.randrange(256) for _ in range(16)]
        swapped_diff = [x ^ y for x, y in zip(ref_swap(b1, bits), ref_swap(b2, bits))]
        diff_swapped = ref_swap([x ^ y for x, y in zip(b1, b2)], bits)
        assert swapped_diff == diff_swapped


def test_property_rotations_preserve_half_bit_multisets(rng):
    for _ in range(20):
        bits = [rng.randrange(2) for _ in range(129)]
        b1 = [rng.randrange(256) for _ in range(16)]
        b2 = [rng.randrange(256) for _ in range(16)]
        d_before = bytes(x ^ y for x, y in zip(b1, b2))
        r1 = ref_rotate_columns(ref_rotate_rows(b1, bits, (2, 5), (3, 4)),
                                bits, (2, 5), (3, 4))
        r2 = ref_rotate_columns(ref_rotate_rows(b2, bits, (2, 5), (3, 4)),
                                bits, (2, 5), (3, 4))
        d_after = bytes(x ^ y for x, y in zip(r1, r2))
        for half in (0, 1):
            assert block_weight(d_before[8 * half:8 * half + 8]) == \
                block_weight(d_after[8 * half:8 * half + 8])


def test_weight_conservation_expansion_to_cipher(rng):
    for _ in range(10):
        key = random_key(rng)
        p1, p2 = random_plain(rng, 6), random_plain(rng, 6)
        c_diff = bytes(x ^ y for x, y in zip(encrypt(p1, key), encrypt(p2, key)))
        e_diff = [bytes(x ^ y for x, y in zip(a, b))
                  for a, b in zip(expanded_blocks(p1, key), expanded_blocks(p2, key))]
        for k in range(6):
            assert block_weight(c_diff[16 * k:16 * k + 16]) == block_weight(e_diff[k])


def test_chain_diagnostics(rng):
    # undoing every step but the expansion shows the temp chain: each
    # block's byte 15 is the previous expanded block's byte at its l
    key = random_key(rng)
    ab1, ab2 = (key.alpha1, key.beta1), (key.alpha2, key.beta2)
    plain = random_plain(rng, 8)
    cipher = encrypt(plain, key)
    bits = generate_prbs(key.x0, 8).bits.tolist()
    blocks = [ref_unexpand(cipher[16 * k:16 * k + 16], bits[k], ab1, ab2)
              for k in range(8)]
    assert blocks[0][15] == key.secret
    for k in range(1, 8):
        assert blocks[k][:15] == list(plain[15 * k:15 * k + 15])
        assert blocks[k][15] == blocks[k - 1][ref_l(bits[k - 1])]


# expansion indices in runs: payload positions, 15 (inherit) and -1 (ambiguous)
l_arrays = st.lists(st.tuples(st.sampled_from(list(range(16)) + [-1]), st.integers(1, 20)),
                    min_size=1, max_size=60).map(
    lambda runs: np.array([v for v, n in runs for _ in range(n)][:300], dtype=np.int16))


@given(l_arrays, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_expansion_chain_matches_reference(l_values, seed):
    nprng = np.random.default_rng(seed)
    num = len(l_values)
    rows = nprng.integers(0, 256, size=(num, 15), dtype=np.uint8)
    src = np.where(l_values < 15, l_values, -1)
    takes = lambda k: 0 <= l_values[k] < 15
    handed_on = lambda r: np.where(src >= 0, r[np.arange(num), src], 0)  # payload byte or 0
    start = int(nprng.integers(0, 256))

    # forward fill: a payload source hands on its byte, anything else its own
    got = expansion_chain(start, handed_on(rows), last_dropped(src < 0))
    want = ref_chain(start, num, lambda k, v: int(rows[k, l_values[k]]) if takes(k) else v)
    assert got.tolist() == want

    # XOR: the row is a {0, 255} pattern complemented by the inherited byte
    pattern = np.where(rows >= 128, 255, 0).astype(np.uint8)
    got = expansion_chain(0, handed_on(pattern), last_dropped(np.ones(num, bool)))
    want = ref_chain(0, num, lambda k, v: int(pattern[k, l_values[k]]) ^ v if takes(k) else v)
    assert got.tolist() == want

    # 9-state table: a payload source hands on a state set by the one it inherits
    table = np.where((src >= 0)[:, None],
                     nprng.integers(0, 9, size=(num, 9), dtype=np.uint8),
                     np.arange(9, dtype=np.uint8))
    s0 = int(nprng.integers(0, 9))
    got = expansion_chain(s0, table)
    assert got.tolist() == ref_chain(s0, num, lambda k, v: int(table[k, v]))


@given(st.sampled_from([(8,), (16,), (8, 16)]), st.integers(1, 300), st.sampled_from([bool, np.uint8]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_flat_packs_match_per_row_packbits(row_shape, n, dtype, seed):
    # the MEK1 writer's (n, 8) and (n, 16) flags and the mask's (n, 8, 16)
    # bit planes, packed in one flat pass, as numpy packs them row by row
    nprng = np.random.default_rng(seed)
    bits = nprng.integers(0, 2, size=(n, *row_shape)).astype(dtype)
    want = np.packbits(bits, axis=-1, bitorder="little")
    got = pack_rows(bits)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)
    if row_shape == (16,):
        # plane_words: bit p of plane word j is bit j of mask byte p, where known
        seed_star = nprng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        planes = (seed_star[:, None, :] >> np.arange(8, dtype=np.uint8)[:, None]) & 1
        words, known = plane_words(seed_star, bits.astype(bool))
        assert np.array_equal(words, np.packbits(planes & bits[:, None, :].astype(bool), axis=-1,
                                                 bitorder="little").view("<u2")[..., 0])
        assert np.array_equal(known, want.view("<u2")[:, 0])
