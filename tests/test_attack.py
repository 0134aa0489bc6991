import hashlib
import random
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_key, random_plain
from crafted import (
    craft_ambiguous_stream,
    encrypt_with_stream,
    random_run_stream,
    random_run_streams,
)
from mcs.attack import (
    decode_pair_deltas,
    expansion_probe_weights,
    expansion_weight_tables,
    gen_expansion_differentials,
    match_expansion_weights,
    run_attack,
    _chain_positions,
    _horizontal_stage,
    _sorted_lanes,
    _swap_bits_stage,
    _vertical_stage,
    recover_byteswap_part,
)
from mcs.cipher import SWAP_TABLE, ees_decrypt, encrypt, expansion_l_values
from mcs.errors import AttackFailed, CiphertextTooLong, NonDivisibleLength
from mcs.formats import equivalent_key_to_bytes
from mcs.prbg import generate_prbs
from mcs.simulate import expansion_candidates
from reference import block_weight, ref_match_half


def xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def oracle_for(key):
    return lambda p: encrypt(p, key)


def blocks_of(data, width):
    return np.frombuffer(data, np.uint8).reshape(-1, width)


def cipher_diffs(oracle, base, diffs):
    """The base's ciphertext and the ciphertext differential of each (B, 15)
    plaintext differential, as (B, 16) arrays."""
    c0 = blocks_of(oracle(base), 16)
    plain = blocks_of(base, 15)
    return c0, [blocks_of(oracle((plain ^ d).tobytes()), 16) ^ c0 for d in diffs]


def run_stages(oracle, base):
    """Stages 1-4 of the attack on ``oracle``, through a probe that keeps the
    (stage, plaintext differential, ciphertext differential) of every probe
    it sends, in ``sent``."""
    plain, c0 = blocks_of(base, 15), blocks_of(oracle(base), 16)
    sent = []

    def probe(stage, diff):
        sent.append((stage, diff, blocks_of(oracle((plain ^ diff).tobytes()), 16) ^ c0))
        return sent[-1][2]

    c1, c2 = (probe("expansion", d) for d in gen_expansion_differentials(len(c0)))
    src, amb = _chain_positions(*match_expansion_weights(expansion_probe_weights(c1, c2)))
    swap_bits, swap_known = _swap_bits_stage(probe, src, amb)
    rot_y = _vertical_stage(probe, src, amb)
    _, rotx_known, *_ = _horizontal_stage(probe, src, amb, swap_bits, rot_y, c1, c2, c0)
    return SimpleNamespace(sent=sent, swap_bits=swap_bits, swap_known=swap_known,
                           rotx_known=rotx_known)


def probes_of(run, stage):
    """The (plaintext differential, ciphertext differential) of each probe of ``stage``."""
    return [(diff, answer) for s, diff, answer in run.sent if s == stage]


# ---------------------------------------------------------------------------
# Expansion stage
# ---------------------------------------------------------------------------

def test_expansion_weight_display():
    w1, w2 = expansion_weight_tables(16)
    assert list(w1[0, 1:9]) == [0] * 8
    assert list(w2[0, 1:9]) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_expansion_pairs_distinct_and_nonzero():
    # three periods of the tables' 216 blocks: in every block the 15 payload
    # weight pairs are distinct and none is (0, 0)
    w1, w2 = expansion_weight_tables(700)
    for k in range(648):
        block = list(zip(w1[k, :15].tolist(), w2[k, :15].tolist()))
        assert len(set(block)) == 15
        assert (0, 0) not in block


# block counts at the edges of the tables' 216-block period, and the image scale
PERIOD_EDGE_BLOCKS = [1, 215, 216, 217, 2 ** 14]


@pytest.mark.parametrize("blocks", PERIOD_EDGE_BLOCKS)
def test_expansion_weight_tables_match_closed_form(blocks):
    # the tables are tiled from one period, and the expanded byte 15 reads 0
    # until an answer is read into it
    idx = np.arange(15 * blocks).reshape(blocks, 15)
    weights = expansion_weight_tables(blocks)
    assert weights.shape == (2, blocks, 16) and weights.dtype == np.uint8
    assert np.array_equal(weights[1, :, :15], idx % 9)
    assert np.array_equal(weights[0, :, :15],
                          np.where(idx % 9 == 0, (idx // 9) % 8 + 1, (idx % 81) // 9))
    assert not weights[..., 15].any()


# the key dtypes _sorted_lanes takes, and the bits a key may use in each: the
# attack passes uint8 keys, and the lanes are uint16
_SORT_KEY_BITS = {np.uint8: 8, np.uint16: 13}


def _sort_rows(keys):
    """The sorted keys of each row of eight and their rows, read from _sorted_lanes."""
    lanes = _sorted_lanes(keys).T.reshape(keys.shape)
    return lanes >> 3, lanes & 7


def test_sort_rows_orders_ties_like_a_stable_argsort(nprng):
    # few distinct keys, so most rows hold ties
    for (dtype, bits), high in product(_SORT_KEY_BITS.items(), (2, 4, 1 << 16)):
        keys = nprng.integers(0, min(high, 1 << bits), size=(500, 2, 8)).astype(dtype)
        got_keys, got_rows = _sort_rows(keys)
        order = np.argsort(keys, axis=2, kind="stable")
        assert np.array_equal(got_rows, order)
        assert np.array_equal(got_keys, np.take_along_axis(keys, order, axis=2))


def test_sort_rows_sorts_every_zero_one_row():
    # a comparator network that sorts all 256 rows of 0s and 1s sorts every row
    for dtype in _SORT_KEY_BITS:
        keys = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(dtype).reshape(128, 2, 8)
        got_keys, got_rows = _sort_rows(keys)
        assert np.array_equal(got_keys, np.sort(keys, axis=2))
        assert np.array_equal(got_rows, np.argsort(keys, axis=2, kind="stable"))


@given(st.integers(1, 300), st.sampled_from([1, 2, 3, 5, 1 << 8, 1 << 13, 1 << 28]),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(list(_SORT_KEY_BITS)))
@settings(max_examples=60, deadline=None)
def test_sort_rows_matches_a_stable_argsort(n, high, seed, dtype):
    high = min(high, 1 << _SORT_KEY_BITS[dtype])
    keys = np.random.default_rng(seed).integers(0, high, size=(n, 2, 8)).astype(dtype)
    before = keys.copy()
    got_keys, got_rows = _sort_rows(keys)
    order = np.argsort(keys, axis=2, kind="stable")
    assert np.array_equal(got_rows, order)
    assert np.array_equal(got_keys, np.take_along_axis(keys, order, axis=2))
    assert np.array_equal(keys, before)


@st.composite
def byteswap_answers(draw):
    """Synthetic stage-1 answers with their rotations undone, and what made them.

    Block 0 is dark: its expanded byte inherits the weights (0, 0) and lands
    on the row that the horizontal stage cannot see.  Block 1's expanded byte
    repeats the weights of a payload byte that lands in its half.  Each later
    block draws one of those two or weights that no payload byte of it has.
    """
    num, start = draw(st.integers(2, 10)), draw(st.integers(0, 300))
    weights = expansion_weight_tables(start + num)[:, start:]
    w1, w2 = weights[..., :15]
    swap_bits = np.array([draw(st.lists(st.integers(0, 1), min_size=8, max_size=8))
                          for _ in range(num)], dtype=np.uint8)
    perms = np.array([[draw(st.permutations(range(8))) for _ in range(2)] for _ in range(num)],
                     dtype=np.uint8).reshape(num, 16)
    # where each source byte sits after the cross-half swaps, and its frame row
    pos = np.where(swap_bits[:, np.arange(16) % 8] == 1, np.arange(16) ^ 8, np.arange(16))
    rows = pos & 8 | np.take_along_axis(perms, pos, axis=1)
    e = weights[..., 15].T
    for k in range(1, num):
        pairs = list(zip(w1[k].tolist(), w2[k].tolist()))
        kind = "equal" if k == 1 else draw(st.sampled_from(["dark", "equal", "other"]))
        if kind == "equal":
            e[k] = pairs[draw(st.sampled_from([c for c in range(15)
                                               if pos[k, c] // 8 == pos[k, 15] // 8]))]
        elif kind == "other":
            e[k] = draw(st.sampled_from([(a, b) for a, b in product(range(9), repeat=2)
                                         if (a, b) != (0, 0) and (a, b) not in pairs]))
    obs = [np.zeros((num, 16), dtype=np.uint8) for _ in range(2)]
    for o, w in zip(obs, weights):
        np.put_along_axis(o, rows, ((1 << w.astype(np.int16)) - 1).astype(np.uint8), axis=1)
    row_ok = np.ones((num, 16), dtype=bool)
    dark = np.flatnonzero((e == 0).all(axis=1))
    row_ok[dark, rows[dark, 15]] = False
    return weights, swap_bits, pos, obs, row_ok


@given(byteswap_answers())
@settings(max_examples=60, deadline=None)
def test_byteswap_part_follows_the_reference_rules(case):
    # the sort-based match gives every half the permutation and the choices
    # of the per-half rules, also a half with an unknown row or equal keys
    weights, swap_bits, pos, (obs1, obs2), row_ok = case
    perms, choices = recover_byteswap_part(obs1, obs2, weights, swap_bits)
    want = set()
    for k in range(weights.shape[1]):
        exp = [None] * 16
        keys = zip(weights[0, k].tolist(), weights[1, k].tolist())
        for i, key in enumerate(keys):
            exp[pos[k, i]] = key
        obs = [(bin(a).count("1"), bin(b).count("1")) for a, b in zip(obs1[k], obs2[k])]
        for h in (0, 1):
            half = slice(8 * h, 8 * h + 8)
            perm, pairs = ref_match_half(exp[half], obs[half], row_ok[k, half])
            assert perms[k, h].tolist() == perm
            want |= {(k, (h, s), (h, t)) for s, t in pairs}
    assert len(choices) == len(want) and set(choices) == want


def test_expansion_values_are_canonical():
    for blocks in PERIOD_EDGE_BLOCKS:
        d1, d2 = gen_expansion_differentials(blocks)
        w1, w2 = expansion_weight_tables(blocks)[..., :15].astype(np.int64)
        assert d1.shape == d2.shape == (blocks, 15) and d1.dtype == d2.dtype == np.uint8
        assert np.array_equal(d1, (1 << w1) - 1) and np.array_equal(d2, (1 << w2) - 1)


def test_recover_expansion_indices_ground_truth(rng):
    key = random_key(rng)
    nblocks = 10_000
    base = random_plain(rng, nblocks)
    d1, d2 = gen_expansion_differentials(nblocks)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    l_values, l_candidates = match_expansion_weights(expansion_probe_weights(c1, c2))
    truth = expansion_l_values(generate_prbs(key.x0, nblocks).rows)
    assert len(l_values) == nblocks and l_values[-1] == -1  # the last l is never seen
    assert not l_candidates
    assert (l_values[:-1] == truth[:-1]).all()


def test_recover_expansion_block0_check():
    bogus = np.full((2, 16), 0xFF, dtype=np.uint8)
    with pytest.raises(AttackFailed) as exc:
        expansion_probe_weights(bogus, bogus)
    assert exc.value.stage == "expansion"


@pytest.mark.parametrize("probe", [0, 1])
@pytest.mark.parametrize("excess", [-1, 9])
def test_expansion_range_error_names_the_block(probe, excess):
    # synthetic answers whose block 2 shows one weight too few or too many past
    # its payload under one probe; block 3 is out of range under the other
    expanded = np.array([[0, 3, 4, 5], [0, 2, 6, 8]])
    expanded[probe, 2], expanded[1 - probe, 3] = excess, 9
    totals = expansion_weight_tables(4).sum(axis=2) + expanded
    answers = np.packbits(np.arange(128) < totals[..., None], axis=-1)
    with pytest.raises(AttackFailed, match=r"^\[expansion\] block 2: "
                                           r"expanded-byte weight outside 0\.\.8$"):
        expansion_probe_weights(*answers)


def test_expansion_failures_carry_the_stage(rng):
    # both used to escape run_attack's wrapping without a stage tag
    key = random_key(rng)
    base = random_plain(rng, 4)
    d1, d2 = gen_expansion_differentials(4)
    _, (c1, c2) = cipher_diffs(oracle_for(key), base, [d1, d2])
    l_values, _ = match_expansion_weights(expansion_probe_weights(c1, c2))
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
    l_values, l_candidates = match_expansion_weights(expansion_probe_weights(c1, c2))
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


def half_weight_delta(block):
    """The weight of a 16-byte block's first half minus that of its second."""
    return block_weight(block[:8]) - block_weight(block[8:])


def test_swap_differential_delta_sums(rng):
    key = random_key(rng)
    nblocks = 64
    run = run_stages(oracle_for(key), random_plain(rng, nblocks))
    (diff_a, c3), (diff_b, c4) = probes_of(run, "swap-bits")
    # the first probe always uses the canonical deltas (4, 5, 6, 8)
    allowed = {23, 15, 13, 11, 7, 5, 3, 1, -1, -3, -5, -7, -11, -13, -15, -23}
    assert all(half_weight_delta(c3[k].tolist()) in allowed for k in range(nblocks))
    # the second adapts its deltas to the inherited weight but stays
    # decodable: its four pair deltas, from the expanded probe, give 16
    # distinct signed sums, among them the observed one
    for k, row in enumerate(expanded_diff_blocks(diff_b, key, nblocks)):
        deltas = [block_weight([row[p]]) - block_weight([row[p + 8]]) for p in range(4, 8)]
        sums = {sum(s * d for s, d in zip(signs, deltas))
                for signs in product((1, -1), repeat=4)}
        assert len(sums) == 16 and half_weight_delta(c4[k].tolist()) in sums


def test_recovered_swap_bits_match_prbs(rng):
    for _ in range(5):
        key = random_key(rng)
        nblocks = 48
        run = run_stages(oracle_for(key), random_plain(rng, nblocks))
        truth = generate_prbs(key.x0, nblocks).bits[:, 4:12]
        assert len(probes_of(run, "swap-bits")) == 2
        assert run.swap_known.all()
        assert (run.swap_bits == truth).all()


# ---------------------------------------------------------------------------
# Probe construction invariants
# ---------------------------------------------------------------------------

def expanded_diff_blocks(diff, key, nblocks):
    """Expanded differential blocks of (base, base ^ diff) for any base; ``diff``
    is (B, 15)."""
    bits = generate_prbs(key.x0, nblocks).bits
    l_vals = expansion_l_values(generate_prbs(key.x0, nblocks).rows)
    out = []
    inherited = 0
    for k in range(nblocks):
        row = diff[k].tolist() + [inherited]
        out.append(row)
        if l_vals[k] < 15:
            inherited = row[l_vals[k]]
    return out


def test_vertical_differential_shape(rng):
    key = random_key(rng)
    nblocks = 32
    (d5, _), = probes_of(run_stages(oracle_for(key), random_plain(rng, nblocks)), "vertical")
    assert set(d5.ravel()) <= {0, 255}
    bits = generate_prbs(key.x0, nblocks).bits
    for k, block in enumerate(expanded_diff_blocks(d5, key, nblocks)):
        post = list(block)
        for (i, j, l) in SWAP_TABLE[:8]:
            if bits[k, l]:
                post[i], post[j] = post[j], post[i]
        # one 255 among 0s or one 0 among 255s, at one row (0 or 1) of both halves
        probe = 255 if post.count(255) == 2 else 0
        assert post.count(probe) == 2
        row = post.index(probe)
        assert row in (0, 1) and post[8 + row] == probe


def test_horizontal_differential_uniform(rng):
    key = random_key(rng)
    nblocks = 32
    run = run_stages(oracle_for(key), random_plain(rng, nblocks))
    (d6, _), = probes_of(run, "horizontal")
    assert set(d6.ravel()) <= {0, 1}
    # block 0 inherits the zero differential: it is dark, with one unknown row
    assert (~run.rotx_known[0]).sum() == 1


def with_indices(bits, l_values):
    """``bits`` with its blocks' expansion indices set to ``l_values``."""
    bits = bits.copy()
    bits[:, :4] = (np.asarray(l_values)[:, None] >> np.arange(4)) & 1
    return bits


def check_dark_blocks(bits, nprng):
    """A block is dark exactly while every earlier block has l = 15, a dark
    block is never ambiguous, and the attack stays exact."""
    l_true = expansion_l_values(np.packbits(bits, axis=1))
    nblocks = bits.shape[0]
    oracle = lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20)
    ek = run_attack(oracle, nprng.bytes(15 * nblocks))
    # a dark block has one unknown row, any other block none
    unknown = (~ek.rotx_known).sum(axis=1)
    assert unknown.tolist() == [int((l_true[:k] == 15).all()) for k in range(nblocks)]
    assert not set(np.flatnonzero(unknown).tolist()) & set(ek.l_candidates)
    fresh = nprng.bytes(15 * nblocks)
    assert ees_decrypt(oracle(fresh), ek) == fresh
    return ek.l_candidates


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
        l_values = expansion_l_values(np.packbits(bits, axis=1))
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
    truth_l = expansion_l_values(generate_prbs(key.x0, nblocks).rows)
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
    # A dark block's expanded byte inherits a zero differential, which leaves
    # exactly its row unrecoverable: byte 15's row in half 1, or in half 0 when
    # swap bit 7 moved it across.  No other row may be unknown, since the
    # byte-swap stage matches an unknown row only by the key 0 it reads.
    cases = []
    for blocks in (1, 6, 40) * 10:
        key = random_key(rng)
        cases.append((oracle_for(key), random_plain(rng, blocks),
                      expansion_l_values(generate_prbs(key.x0, blocks).rows)))
    for i in range(50):
        bits, base, _ = random_run_stream(i)
        cases.append((lambda p, bits=bits: encrypt_with_stream(p, bits, (2, 5), (3, 4), 20),
                      base, bits[:, :4] @ np.array([1, 2, 4, 8])))
    dark_blocks = 0
    for oracle, base, l in cases:
        ek = run_attack(oracle, base)
        k = np.flatnonzero(np.logical_and.accumulate(np.r_[True, l[:-1] == 15]))
        h = 1 - ek.swap_bits[k, 7].astype(np.intp)
        unknown = np.zeros_like(ek.rotx_known)
        unknown[k, 8 * h + ek.perms[k, h, 7]] = True
        assert np.array_equal(~ek.rotx_known, unknown)
        dark_blocks += len(k)
    assert dark_blocks > len(cases)  # some blocks past block 0 are dark


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


# per crafted (candidate, dup) stream, the sha256 of the seven joined
# plaintexts and of the recovered key's MEK1 bytes
_CRAFTED_DIGESTS = {
    (0, False): ("a37233ee0a46d92afab622f8828ac140e7c24f65cf66b224c91a75da1150e345",
                 "0201edbe24bedf8ddd990c8f590705bbcc0504f968f6380af80d48c1bd72d040"),
    (0, True): ("00c37c0664ebd6e0b4258420475871a80dbdbccc179eb00eb3ad25d756f4fde4",
                "9e8c7badcfd1e3bfb83e8172182c71c8dac3f970f84654da3a87def7446935db"),
    (1, False): ("6ea3e3251cfb3a1f64e2fe18f8915f5e3dd99dfada96f83245d83cbbc56e1f56",
                 "e4cbb85bc184db3adb397f16ce55f2abe4fd1b241cf3dd070fab26dfcad20a1c"),
    (1, True): ("0bd9e36c2c69d7bb35169e0221e194446d32eb18c897f89d89ff3d2e93553146",
                "c09ada4ffc39ec54ceb0eaf32f98b99c486ed9bc34e6cc8d9e0306c4713869a5"),
    (4, False): ("bcfcb92a0b4df2e4691d7815f1b9167c75deb367c7e163832c0dbd032171546b",
                 "b2a70cf709e4752fe26e3090412e2d5a1a37d7992007634099fbfdb57cfb5acc"),
    (4, True): ("0ff02cce1158986fd4e9f7c9df442cf0bbac2ecddac9f0d0448b256d9dcd5912",
                "d1e70cf4aab375ccf065f97ef94790c498a8b05c3ae970c3f602bbc20cf65f8a"),
    (7, False): ("2eb73a661bfc7e9c289d6187967f63a35909ceb029ca51b6fb4ba535e89bdbdb",
                 "2ed1a5b7e13f6b2d7c8f8909984b0576e0f39fc07c703746b20c3d691f6595b6"),
    (7, True): ("e67b37ef93c28e9badc183c2611df7164d5cc0623fff4f795f5460a0e66f2297",
                "567a114740b0785261f968a1786f601c8ca8d0c19d7d6a8017b8c44205b4290a"),
    (9, False): ("e1f551b157dff03e7e0cad09eb8af626fe7b9284e6a7a7a44144429fe5e3912d",
                 "1b31753badc38f3a193de6acf5836240f9090bea5082d305b92890d5c4c35c07"),
    (9, True): ("4c2c6940de70c2f4b7d59f35c465840d10628d7cc696fc813095cb49ad1efded",
                "6ca80b6dc2c7a63dadfc902d79d7d3463dd55e622ae10298a07b6800d65e8ca5"),
    (13, False): ("7ed1b34a0f07533edaa8883def94a13dc47092747bb43dc2fc48ed7d328c1aa4",
                  "787926f0c868780a07e6635586ee4bbc8b45fcaca9893ab9b6197af886257697"),
    (13, True): ("de736be9675503991147d9a5c6a554a580e3df7f9b2a1d6671599c665236f192",
                 "e3400132d66f36f8d040c13b5a3563fa63a9e222433690378c0684a73140ce49"),
}


@pytest.mark.parametrize("case, digest, key_digest", [
    ((random_key_case, 31, 1),
     "3242c093bb73a916dd06873c76284e022625f2bb3e54d3ce9ded90fd28cdd040",
     "99bac35fe1ba8730fa513f70531419790286be6264138bb657a1a4b1e3803704"),
    ((random_key_case, 32, 16),
     "901f4f8f76630fc7bb15bf6eb00f589bd7eca98f90411ac2cc5ae9d80b44a57c",
     "49ed93040b9e448f3e1c610dca099b9da9e761d40fa89a72bde375439748da0c"),
    ((random_key_case, 33, 300),
     "0526db9d82eb94417aad74eb9886c2f33527eff62b74aa5860b65524fd5f06cf",
     "ad7e6850ac5fefc5392276b91405a91384344d25c4e42bd73902f686d5cfd52d"),
    ((random_key_case, 34, 4096),
     "7ef9e8e14112d2dfe8dec27bb75348fa94fbe36fcc61a82aa0a587daceead1f1",
     "f148cb01336a89907bc3af0d94ca7669b5375eb5895ae21f431038762adb2223"),
] + [((crafted_case, c, dup), *d) for (c, dup), d in _CRAFTED_DIGESTS.items()],
    ids=["1-block", "16-blocks", "300-blocks", "4096-blocks"]
        + [f"ambiguous-{c}{'-dup' if dup else ''}" for c, dup in _CRAFTED_DIGESTS])
def test_chosen_plaintexts_pinned(case, digest, key_digest):
    # the seven plaintexts the attack sends, byte for byte, and every field
    # of the key it recovers; the crafted streams make one expansion
    # decision ambiguous
    make, *args = case
    encrypt_case, base = make(*args)
    sent = []

    def oracle(p):
        sent.append(p)
        return encrypt_case(p)

    ek = run_attack(oracle, base)
    assert len(sent) == 7
    assert sent[0] == base
    assert all(len(p) == len(base) for p in sent)
    assert len(set(sent)) == 7
    assert hashlib.sha256(b"".join(sent)).hexdigest() == digest
    assert hashlib.sha256(equivalent_key_to_bytes(ek)).hexdigest() == key_digest


@pytest.mark.parametrize("blocks, key_digest", [
    (4096, "aff1221e3a4fe07d88c554df82618f1fe64591f9207efb0620bcd73fa7aaded3"),
    (4097, "93ee1cbf09a5526f06fcfc5a478d35319ebf86e1b62ccd3fdc84a0a17e26599a"),
])
def test_masking_stage_across_its_scatter_slice(blocks, key_digest):
    # stage 6 scatters the base's bytes in 4,096-block slices; at 4,097 blocks
    # the last slice holds one block
    rng = random.Random(blocks)
    key = random_key(rng)
    base = rng.randbytes(15 * blocks)
    ek = run_attack(oracle_for(key), base)
    assert hashlib.sha256(equivalent_key_to_bytes(ek)).hexdigest() == key_digest
    plain = rng.randbytes(15 * blocks)
    assert ees_decrypt(encrypt(plain, key), ek) == plain


def test_attack_outputs_pinned():
    # One digest over the keys the attack recovers from the 60 crafted
    # streams and the first 400 random-run streams (MEK1 bytes, candidate
    # sets, unreliable blocks), and one over 200 seeded runs with one flipped
    # answer bit (the outcome, the number of queries and their bytes).
    keys = hashlib.sha256()

    def add(ek):
        keys.update(equivalent_key_to_bytes(ek))
        keys.update(repr(sorted((k, sorted(c)) for k, c in ek.l_candidates.items())).encode())
        keys.update(repr(sorted(ek.unreliable_blocks)).encode())

    for candidate, dup, decision_15 in product(range(15), (False, True), (False, True)):
        nprng = np.random.default_rng([candidate, int(dup), int(decision_15)])
        bits, _ = craft_ambiguous_stream(nprng, candidate, dup, decision_15=decision_15)
        add(run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20),
                       nprng.bytes(15 * bits.shape[0])))
    for bits, base, _ in random_run_streams(400):
        add(run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 20), base))
    assert keys.hexdigest() == "8500b7d0c2b7877505375f35290eaa2768f3afb3c74d725322acac86250a27df"

    outcomes = hashlib.sha256()
    for trial in range(200):
        rng = random.Random(trial)
        key = random_key(rng)
        blocks = rng.randrange(1, 40)
        base = random_plain(rng, blocks)
        answer, bit = rng.randrange(7), rng.randrange(128 * blocks)
        sent = []

        def oracle(p):
            out = bytearray(encrypt(p, key))
            if len(sent) == answer:
                out[bit // 8] ^= 1 << bit % 8
            sent.append(p)
            return bytes(out)

        try:
            outcome = equivalent_key_to_bytes(run_attack(oracle, base)).hex()
        except AttackFailed as exc:
            outcome = str(exc)
        outcomes.update(repr((outcome, len(sent))).encode() + b"".join(sent))
    assert outcomes.hexdigest() == \
        "12e7ecba4c484467929ab2665ef34906341c70e7cbd376dbe88804b6e6c3c79d"


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
        flagged = expansion_candidates(expansion_l_values(np.packbits(bits, axis=1)))
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


# the four golden (alpha, beta) pair classes of the recovery report tests
_PAIR_CLASSES = [((2, 4), (1, 3)), ((1, 3), (1, 1)), ((1, 1), (3, 2)), ((3, 2), (2, 4))]


def test_flipped_answer_bit_never_gives_a_wrong_key():
    # One flipped bit in one of the seven answers must end in AttackFailed or
    # in a key that decrypts a fresh ciphertext exactly, never in a wrong key.
    # A flip in a stage-1 answer leaves a byte that is no weight byte: the
    # byte-swap stage must not match it against any probe byte.
    from mcs.core import Fixed129, SecretKey

    blocks = 300
    for trial in range(40):
        rng = random.Random(trial)
        (a1, b1), (a2, b2) = _PAIR_CLASSES[trial % 4]
        key = SecretKey(a1, b1, a2, b2, rng.randrange(256), Fixed129(rng.getrandbits(129)))
        base, fresh = random_plain(rng, blocks), random_plain(rng, blocks)
        answer, bit = rng.randrange(7), rng.randrange(128 * blocks)
        sent = []

        def oracle(p):
            out = bytearray(encrypt(p, key))
            if len(sent) == answer:
                out[bit // 8] ^= 1 << bit % 8
            sent.append(p)
            return bytes(out)

        try:
            ek = run_attack(oracle, base)
        except AttackFailed:
            continue
        assert ees_decrypt(encrypt(fresh, key), ek) == fresh, (trial, answer, bit)


# the stage each of the seven queries belongs to, in query order
_QUERY_STAGES = ("oracle", "expansion", "expansion", "swap-bits", "swap-bits", "vertical",
                 "horizontal")


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("answer", range(7))
def test_wrong_answer_length_fails_at_its_query(rng, answer, extra):
    # an answer one byte off fails the attack at that query's stage, and no
    # later query is made
    key = random_key(rng)
    base = random_plain(rng, 12)
    sent = []

    def oracle(p):
        out = encrypt(p, key)
        if len(sent) == answer:
            out = out[:extra] if extra < 0 else out + b"\x00"
        sent.append(p)
        return out

    with pytest.raises(AttackFailed) as exc:
        run_attack(oracle, base)
    assert exc.value.stage == _QUERY_STAGES[answer]
    assert str(exc.value) == \
        f"[{_QUERY_STAGES[answer]}] oracle returned {16 * 12 + extra} bytes, expected {16 * 12}"
    assert len(sent) == answer + 1


@pytest.mark.parametrize("length, message", [
    (16, "base plaintext length 16 not divisible by 15"),
    (0, "base plaintext must contain at least one block"),
])
def test_attack_rejects_a_base_before_any_query(length, message):
    sent = []
    with pytest.raises(NonDivisibleLength, match=f"^{message}$"):
        run_attack(sent.append, bytes(length))
    assert sent == []


def test_oracle_takes_bytes_and_may_answer_a_bytearray(rng):
    # the oracle contract: every query is bytes of 15 B bytes, and any
    # bytes-like answer of 16 B bytes is read the same way
    key = random_key(rng)
    base = random_plain(rng, 40)
    sent = []

    def oracle(p):
        assert type(p) is bytes and len(p) == len(base)
        sent.append(p)
        return bytearray(encrypt(p, key))

    ek = run_attack(oracle, base)
    assert len(sent) == 7
    assert equivalent_key_to_bytes(ek) == equivalent_key_to_bytes(run_attack(oracle_for(key), base))


@pytest.mark.parametrize("dark", [False, True], ids=["last-block", "block-0-dark-half"])
def test_byte_swap_stage_rejects_a_weight_byte_out_of_shape(rng, dark):
    # A stage-1 answer whose frame byte 2^w - 1 reads rotated by one bit keeps
    # every half weight, so stages 1-4 accept it; the byte-swap stage must
    # not match a byte that is no weight byte against a probe byte.  With
    # ``dark`` the byte sits in block 0's half with the unrecoverable row, in
    # the second probe's answer, which has such bytes there for every key.
    from mcs.cipher import _rotate_columns, _rotate_rows, key_parts

    key = random_key(rng)
    blocks = 16
    base = random_plain(rng, blocks)
    schedule = key_parts(generate_prbs(key.x0, blocks).rows, (key.alpha1, key.beta1),
                         (key.alpha2, key.beta2))
    parts = schedule.parts
    probe = int(dark)
    _, (cdiff,) = cipher_diffs(oracle_for(key), base,
                               [gen_expansion_differentials(blocks)[probe]])
    frame = _rotate_rows(_rotate_columns(cdiff, schedule.keeps, inverse=True),
                         schedule.back_x, parts.rot_x)
    usable = (frame > 0) & (frame < 255)
    if dark:
        h = 1 - int(parts.swap_bits[0, 7])
        usable[1:], usable[0, :8 * h], usable[0, 8 * h + 8:] = False, False, False
    k, r = np.argwhere(usable)[-1]
    b = int(frame[k, r])
    delta = np.zeros((blocks, 16), dtype=np.uint8)
    delta[k, r] = b ^ (b << 1 | b >> 7) & 0xFF
    fault = _rotate_columns(_rotate_rows(delta, parts.rot_x, schedule.back_x),
                            schedule.keeps).tobytes()
    sent = []

    def oracle(p):
        sent.append(p)
        return xor(encrypt(p, key), fault) if len(sent) == 2 + probe else encrypt(p, key)

    with pytest.raises(AttackFailed, match=r"^\[byte-swap\] "):
        run_attack(oracle, base)


def test_analysis_peak_memory():
    # tracemalloc over the attack with its seven answers replayed: at 16,384
    # blocks 48.1 B per plaintext byte with int32 byte-swap keys, 34.1 B with
    # weight-index keys and the answers freed before that stage, 28.8 B (also
    # at 65,536) with each probe's arrays freed by the stage that sends it
    import tracemalloc

    for blocks in (16384, 65536):
        rng = random.Random(8)
        key = random_key(rng)
        base = rng.randbytes(15 * blocks)
        answers = []
        run_attack(lambda p: answers.append(encrypt(p, key)) or answers[-1], base)
        replay = iter(answers)
        tracemalloc.start()
        try:
            run_attack(lambda p: next(replay), base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 31 * len(base), blocks


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
