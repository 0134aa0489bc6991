import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_KEY, random_key, random_plain
from mcs.cipher import (
    SWAP_TABLE,
    _ROT,
    _rotate_columns,
    cross_swap,
    decrypt,
    encrypt,
    expansion_chain,
    inverse_rotations,
    key_parts,
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
        parts = key_parts(bits, (2, 5), (3, 4))
        b = bits[0].tolist()
        assert_perms_match(parts.perms[0], b)
        block = [rng.randrange(256) for _ in range(16)]
        assert ref_swap(ref_swap(block, b), b, inverse=True) == block


def test_mask_all_zero_bits_complements():
    bits = [0] * 129
    block = list(range(16))
    assert ref_mask(block, bits) == [b ^ 0xFF for b in block]
    parts = key_parts(np.zeros((1, 129), dtype=np.uint8), (2, 5), (3, 4))
    assert (parts.seed_star == 0xFF).all()


def test_mask_identity_when_first_seed_selected_and_zero():
    # selector bits 36..51 all 1 pick the first seed; make its quads cancel
    bits = [0] * 129
    for t in range(36, 52):
        bits[t] = 1
    block = list(range(16))
    assert ref_mask(block, bits) == block
    parts = key_parts(np.array([bits], dtype=np.uint8), (2, 5), (3, 4))
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
        seed_star = key_parts(np.array([bits], dtype=np.uint8), (2, 5), (3, 4)).seed_star
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
    swap_bits = bits[:, 4:12]  # a strided view, as key_parts hands it on
    for blocks in (wide[:, :16].copy(), wide[:, 8:24]):  # contiguous and strided
        before = blocks.copy()
        got = cross_swap(blocks, swap_bits)
        assert got.dtype == blocks.dtype and got.shape == (300, 16)
        assert (blocks == before).all()  # the input is left as it was
        want = [ref_cross_swap(block, b) for block, b in zip(blocks.tolist(), bits.tolist())]
        assert got.tolist() == want
        assert (cross_swap(got, swap_bits) == blocks).all()  # its own inverse


def test_rotations_match_rot_table_and_reference(nprng):
    # _ROT[a << 8 | b]: bit c of byte b moved to column (c + a) % 8
    for a in range(8):
        for b in range(256):
            want = sum(((b >> c) & 1) << ((c + a) % 8) for c in range(8))
            assert _ROT[a << 8 | b] == want
    for ab1, ab2 in (((2, 5), (3, 4)), ((1, 1), (6, 1)), ((4, 3), (2, 2))):
        bits = nprng.integers(0, 2, size=(200, 129), dtype=np.uint8)
        blocks = nprng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        parts = key_parts(bits, ab1, ab2)  # rot_x and rot_y are strided views
        rows = [ref_rotate_rows(x, b, ab1, ab2) for x, b in zip(blocks.tolist(), bits.tolist())]
        cols = [ref_rotate_columns(x, b, ab1, ab2) for x, b in zip(rows, bits.tolist())]
        assert _rotate_columns(np.array(rows, dtype=np.uint8), parts.rot_y).tolist() == cols
        cipher = np.array(cols, dtype=np.uint8)
        assert inverse_rotations(cipher, parts.rot_y).tolist() == rows
        assert (inverse_rotations(cipher, parts.rot_y, parts.rot_x) == blocks).all()


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


def test_key_parts_match_reference_steps(rng):
    for _ in range(10):
        key = random_key(rng)
        ab1, ab2 = (key.alpha1, key.beta1), (key.alpha2, key.beta2)
        bits = generate_prbs(key.x0, 6).bits
        parts = key_parts(bits, ab1, ab2)
        assert parts.l_candidates == {} and not parts.unreliable_blocks
        for k in range(6):
            b = bits[k].tolist()
            assert int(parts.l_values[k]) == ref_l(b)
            assert parts.swap_bits[k].tolist() == b[4:12]
            assert_perms_match(parts.perms[k], b)
            assert parts.seed_star[k].tolist() == ref_mask([0] * 16, b)
            assert_rotations_match(parts.rot_x[k], parts.rot_y[k], b, ab1, ab2)
        for known in (parts.swap_known, parts.seed_known, parts.rotx_known):
            assert known.all() and not known.flags.writeable


def test_key_parts_every_swap_code(nprng):
    # all 4096 settings of each half's 12 within-half swap bits, the other
    # bits random; the second half runs through its codes in another order
    bits = nprng.integers(0, 2, size=(4096, 129), dtype=np.uint8)
    codes = np.arange(4096)
    for half, order in ((0, codes), (1, (codes * 2731 + 1000) % 4096)):
        columns = [c for i, _, c in SWAPS[8:] if i // 8 == half]
        bits[:, columns] = (order[:, None] >> np.arange(12)) & 1
    parts = key_parts(bits, (2, 5), (3, 4))
    for k in range(4096):
        assert_perms_match(parts.perms[k], bits[k].tolist())


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
        parts = key_parts(bits, ab1, ab2)
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
    parts = key_parts(bits, (2, 5), (3, 4))
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
    got = expansion_chain(start, handed_on(rows), keep=src < 0)
    want = ref_chain(start, num, lambda k, v: int(rows[k, l_values[k]]) if takes(k) else v)
    assert got.tolist() == want

    # XOR: the row is a {0, 255} pattern complemented by the inherited byte
    pattern = np.where(rows >= 128, 255, 0).astype(np.uint8)
    got = expansion_chain(0, handed_on(pattern), keep=np.ones(num, bool))
    want = ref_chain(0, num, lambda k, v: int(pattern[k, l_values[k]]) ^ v if takes(k) else v)
    assert got.tolist() == want

    # 9-state table: a payload source hands on a state set by the one it inherits
    table = np.where((src >= 0)[:, None],
                     nprng.integers(0, 9, size=(num, 9), dtype=np.uint8),
                     np.arange(9, dtype=np.uint8))
    s0 = int(nprng.integers(0, 9))
    got = expansion_chain(s0, table)
    assert got.tolist() == ref_chain(s0, num, lambda k, v: int(table[k, v]))
