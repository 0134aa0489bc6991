import dataclasses
import hashlib
import random
from collections.abc import MutableMapping
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_key, random_plain
from crafted import craft_ambiguous_stream, encrypt_with_stream
from mcs.attack import run_attack
from mcs.cipher import ROTATION_BITS, SWAP_TABLE, encrypt, key_parts
from mcs.cli import main
from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.errors import DomainError
from mcs.formats import equivalent_key_from_bytes, equivalent_key_to_bytes, write_equivalent_key
from mcs.keyrecovery import (
    _CANDIDATES,
    MASKING_STATUS,
    constrain_rotation_bits,
    determine_s_offsets,
    grade,
    recover_report,
    recover_rotation_sets,
    recover_swap_bits_9to35,
    rotation_set,
    to_true_frame,
)
from mcs.prbg import generate_prbs
from mcs.simulate import prop1_montecarlo, prop1_probability
from reference import (
    ref_code_pairs,
    ref_constrained,
    ref_known_bits,
    ref_pair_sets,
    ref_swap,
)


def oracle_for(key):
    return lambda p: encrypt(p, key)


def entries(listing):
    """A report listing's (key, value) pairs, in bit order."""
    return zip(listing.keys(), listing.values())


def test_rotation_set_examples():
    assert rotation_set(2, 5) == {1, 2, 6, 7}
    assert rotation_set(2, 4) == {2, 6}


def test_candidate_lists_match_classification():
    assert _CANDIDATES[frozenset({1, 7})] == {(1, 6)}
    assert _CANDIDATES[frozenset({4, 2, 6})] == {(4, 2), (2, 2)}
    assert _CANDIDATES[frozenset({1, 3, 5, 7})] == {(1, 2), (1, 4), (3, 4), (5, 2)}
    assert frozenset({1, 2}) not in _CANDIDATES
    assert len(_CANDIDATES) == 9


def test_classification_split_3_6_12():
    sizes = {1: 0, 2: 0, 4: 0}
    for pair in legal_alpha_beta_pairs():
        cands = _CANDIDATES[rotation_set(*pair)]
        assert pair in cands
        sizes[len(cands)] += 1
    assert sizes == {1: 3, 2: 6, 4: 12}


def test_prop1_probability():
    assert prop1_probability(2, 4, 0.3, 5) == 0.0
    assert prop1_probability(1, 1, 0.9, 1) == 1.0
    assert prop1_probability(1, 1, 0.5, 8) == pytest.approx(2 * 0.5 ** 8)
    with pytest.raises(DomainError):
        prop1_probability(4, 4, 0.5, 2)
    with pytest.raises(DomainError):
        prop1_probability(1, 1, 1.5, 2)


def test_prop1_montecarlo_edge_cases():
    assert prop1_montecarlo(2, 4, 0.5, 4, 2000, seed=1) == 0.0
    assert prop1_montecarlo(1, 1, 0.25, 1, 2000, seed=2) == 1.0
    exact = prop1_probability(1, 1, 0.5, 2)
    emp = prop1_montecarlo(1, 1, 0.5, 2, 100_000, seed=3)
    sigma = (exact * (1 - exact) / 100_000) ** 0.5
    assert abs(emp - exact) <= 3 * sigma
    with pytest.raises(DomainError, match="^need at least one trial$"):
        prop1_montecarlo(1, 1, 0.5, 2, 0)
    with pytest.raises(DomainError, match=r"^illegal \(alpha, beta\) = \(4, 4\)$"):
        prop1_montecarlo(4, 4, 0.5, 2, 100)


def attack_ek(key, blocks, seed=1234):
    rng = random.Random(seed)
    return run_attack(oracle_for(key), random_plain(rng, blocks))


def test_recovered_sets_all_21_pairs():
    rng = random.Random(5)
    for pair in legal_alpha_beta_pairs():
        key = SecretKey(*pair, *pair, rng.randrange(256),
                        Fixed129(rng.getrandbits(129)))
        ek = attack_ek(key, 192, seed=rng.randrange(1 << 30))
        r1, r2 = recover_rotation_sets(ek)
        assert r1 == rotation_set(*pair)
        assert r2 == rotation_set(*pair)


def true_half_perm(bits_k, half):
    pos = list(range(8))
    perm = list(range(8))
    for (i, j, l) in SWAP_TABLE[8:]:
        if (i < 8) == (half == 0) and bits_k[l]:
            a, b = i % 8, j % 8
            sa, sb = pos[a], pos[b]
            pos[a], pos[b] = sb, sa
            perm[sa], perm[sb] = b, a
    return perm


def test_offsets_and_bits_against_truth(rng):
    wrong_bits = 0
    for _ in range(6):
        key = random_key(rng)
        nblocks = 40
        base = random_plain(rng, nblocks)
        ek = run_attack(oracle_for(key), base)
        r1, r2 = recover_rotation_sets(ek)
        masks = determine_s_offsets(ek, r1, r2)
        bits = generate_prbs(key.x0, nblocks).bits
        report = recover_report(ek)
        flat = bits.reshape(-1)
        known = report.bits >= 0
        wrong_bits += int(np.count_nonzero(report.bits[known] != bits[known]))
        for (lo, hi), pairs in entries(report.constrained):
            assert (int(flat[lo]), int(flat[hi])) in pairs
        # unique offsets must equal the true frame offset of the block
        for k in range(nblocks):
            for m in (0, 1):
                tp = true_half_perm(bits[k], m)
                true_t = (tp[0] - int(ek.perms[k, m, 0])) % 8
                assert masks[k, m] >> true_t & 1
    assert wrong_bits == 0


def test_offset_symmetry_classes(rng):
    # {2, 6} pins the offset modulo 4; {1, 3, 5, 7} modulo 2
    key24 = SecretKey(2, 4, 1, 2, 9, Fixed129(random.Random(8).getrandbits(129)))
    ek = attack_ek(key24, 48)
    r1, r2 = recover_rotation_sets(ek)
    masks = determine_s_offsets(ek, r1, r2)
    for k in range(48):
        t1, t2 = ([t for t in range(8) if c >> t & 1] for c in masks[k].tolist())
        assert len(t1) == 2
        a, b = t1
        assert b - a == 4
        assert len(t2) == 4
        assert {x % 2 for x in t2} in ({0}, {1})


def constrained_pairs(r, amounts):
    """The pair sets ``constrain_rotation_bits`` gives up to eight amounts of
    the set ``r``, as the vertical amounts of half 0 of one crafted block whose
    offsets are 0 and -1, decoded by the reference."""
    ek = key_parts(np.zeros((1, 17), dtype=np.uint8), (1, 1), (1, 1))[0]
    rot_y = np.zeros((1, 16), dtype=np.uint8)
    rot_y[0, :len(amounts)] = amounts
    codes = constrain_rotation_bits(dataclasses.replace(ek, rot_y=rot_y), r, r,
                                    np.array([[0, -1]]))
    # code columns follow the rotation bits in ascending order; column j of
    # half 0's vertical amounts is bit 81 + 2j
    by_bit = dict(zip(np.sort(ROTATION_BITS).tolist(), codes[0].tolist()))
    return [ref_code_pairs(by_bit[81 + 2 * j]) for j in range(len(amounts))]


def test_rotation_pair_constraint_tables():
    all_four = {(0, 0), (0, 1), (1, 0), (1, 1)}
    # two-element set: value classes {1,2,3} vs {5,6,7}
    assert constrained_pairs(frozenset({1, 7}), [1, 7]) == [{(0, 0), (1, 1)}, {(0, 1), (1, 0)}]
    # three-element set: the shared value 4 admits all four pairs
    assert constrained_pairs(frozenset({4, 2, 6}), [4, 2, 6]) == \
        [all_four, {(0, 0), (1, 1)}, {(0, 1), (1, 0)}]
    # four-element sets: only the extreme values stay two-way
    assert constrained_pairs(frozenset({1, 2, 6, 7}), [1, 7, 2]) == \
        [{(0, 0), (1, 1)}, {(0, 1), (1, 0)}, all_four]
    assert constrained_pairs(frozenset({1, 3, 5, 7}), [3]) == [all_four]
    assert constrained_pairs(frozenset({2, 3, 5, 6}), [2, 6, 5]) == \
        [{(0, 0), (1, 1)}, {(0, 1), (1, 0)}, all_four]


def test_rotation_pair_constraints_every_pair_and_value():
    # every value 0..7 under every legal set: the bit pairs that some
    # candidate (alpha, beta) of the set rotates by that value, by brute force
    # over the reference's row rotation; code 0 for a value outside the set
    for r in {rotation_set(*pair) for pair in legal_alpha_beta_pairs()}:
        got = constrained_pairs(r, range(8))
        assert got == ref_pair_sets(r), sorted(r)
        assert [value for value in range(8) if not got[value]] == \
            [value for value in range(8) if value not in r]


def test_one_illegal_half_constrains_no_rotation(tmp_path, capsys):
    # half 0 reads the legal set {1, 7} with a unique offset; half 1's known
    # row amounts {1, 2, 3} give the illegal set {1, 2, 3, 5, 6, 7}
    ek = key_parts(np.zeros((2, 17), dtype=np.uint8), (1, 6), (1, 6))[0]
    rot_x, rot_y = ek.rot_x.copy(), ek.rot_y.copy()
    rot_x[:, 8:] = [1, 2, 3, 1, 2, 3, 1, 2]
    rot_y[:, :8] = [1, 7] * 4
    ek = dataclasses.replace(ek, rot_x=rot_x, rot_y=rot_y)
    rep = recover_report(ek)
    assert (rep.r1, rep.r2) == ({1, 7}, {1, 2, 3, 5, 6, 7})
    assert rep.ab_candidates1 == {(1, 6)} and rep.ab_candidates2 == frozenset()
    assert (rep.offset_masks[:, 0] == 1).all()
    # half 0 alone would be constrained; the report constrains nothing
    offsets = np.array([[0, -1]] * 2)
    assert constrain_rotation_bits(to_true_frame(ek, offsets), rep.r1, rep.r2, offsets).any()
    assert not rep.constraints.any()
    path = str(tmp_path / "ek.bin")
    write_equivalent_key(path, ek)
    assert main(["recover-subkeys", path]) == 0
    assert "\nrotation-bit pair constraints: 0\n" in capsys.readouterr().out


def reference_swap_codes(half):
    """Each permutation (source row -> row) that the reference swaps of one
    half produce, mapped to the half's bits 12..35 (0 in the other half's)."""
    columns = [c for i, _, c in SWAP_TABLE[8:] if i // 8 == half]
    codes = {}
    for setting in product((0, 1), repeat=12):
        b = [0] * 129
        for c, bit in zip(columns, setting):
            b[c] = bit
        labels = ref_swap(list(range(16)), b)[8 * half:8 * half + 8]
        perm = [0] * 8
        for row, source in enumerate(labels):
            perm[source - 8 * half] = row
        codes[tuple(perm)] = b[12:36]
    return codes


def test_swap_bits_every_permutation():
    # all 8! permutations in each half (the second half in reverse order); the
    # 4,096 reachable ones per half read back as the bits that built them
    every = np.array(list(permutations(range(8))), dtype=np.uint8)
    perms = np.stack([every, every[::-1]], axis=1)
    num = len(perms)
    expected = np.zeros((num, 24), dtype=np.int8)
    reachable = np.zeros((num, 2), dtype=bool)
    half_of = np.array([i // 8 for i, _, _ in SWAP_TABLE[8:]])
    for m in (0, 1):
        codes = reference_swap_codes(m)
        assert len(codes) == 4096
        for k, perm in enumerate(map(tuple, perms[:, m].tolist())):
            if perm in codes:
                reachable[k, m] = True
                expected[k] += np.array(codes[perm], dtype=np.int8)
        expected[np.ix_(~reachable[:, m], half_of == m)] = -1
    assert reachable.sum(axis=0).tolist() == [4096, 4096]
    ek = dataclasses.replace(key_parts(np.zeros((num, 17), dtype=np.uint8), (1, 6), (1, 6))[0],
                             perms=perms)
    zeros = np.zeros((num, 2), dtype=np.int64)
    # in an unreliable block an unreachable half reads -1
    unreliable = frozenset(np.flatnonzero(~reachable.all(axis=1)).tolist())
    got = recover_swap_bits_9to35(dataclasses.replace(ek, unreliable_blocks=unreliable), zeros)
    assert (got == expected).all()
    # so does a half whose offset is not unique, reachable or not
    got = recover_swap_bits_9to35(ek, np.where(reachable, 0, -1))
    assert (got == expected).all()
    # in a reliable block it is a malformed key
    k, m = np.argwhere(~reachable)[0]
    with pytest.raises(DomainError, match=f"block {k} half {m}: permutation is not "):
        recover_swap_bits_9to35(ek, zeros)
    # and every 97th unreachable half raises on its own, the other half the identity
    for k, m in np.argwhere(~reachable)[::97]:
        alone = np.tile(np.arange(8, dtype=np.uint8), (1, 2, 1))
        alone[0, m] = perms[k, m]
        one = dataclasses.replace(ek, l_values=ek.l_values[:1], perms=alone)
        with pytest.raises(DomainError, match=f"block 0 half {m}: "):
            recover_swap_bits_9to35(one, zeros[:1])


def test_masking_bits_recovered_and_sound(rng):
    key = SecretKey(1, 6, 3, 2, 50, Fixed129(rng.getrandbits(129)))
    nblocks = 64
    base = random_plain(rng, nblocks)
    ek = run_attack(oracle_for(key), base)
    report = recover_report(ek)
    truth = generate_prbs(key.x0, nblocks).bits
    masked = report.masking_status == MASKING_STATUS.index("ok")
    assert masked.any(), "no block yielded masking bits"
    known = report.bits >= 0
    assert (report.bits[known] == truth[known]).all()
    # every ok block assigns all eight selector bits
    assert (report.bits[masked, 36:52:2] >= 0).all()


def test_singleton_rotation_subset(nprng):
    bits = nprng.integers(0, 2, size=(1, 129), dtype=np.uint8)
    bits[0, 65:81] = 0  # every first-half row rotates by alpha1
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 9),
                    bytes(nprng.bytes(15)))
    r1, _ = recover_rotation_sets(ek)
    assert r1 == frozenset({2, 6})  # proper subset {alpha, 8 - alpha}


def test_identity_permutation_bits_zero(nprng):
    bits = nprng.integers(0, 2, size=(2, 129), dtype=np.uint8)
    bits[:, 12:36] = 0  # no within-half swaps
    bits[:, :4] = 0
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (1, 6), (1, 6), 9),
                    bytes(nprng.bytes(30)))
    rep = recover_report(ek)
    assert (rep.bits[:, 12:36] == 0).all()


def test_attack_bits_always_marked(rng):
    # everything the attack itself recovers appears as a known bit
    key = random_key(rng)
    nblocks = 12
    ek = run_attack(oracle_for(key), random_plain(rng, nblocks))
    rep = recover_report(ek)
    assert (rep.bits[:nblocks - 1, :12] >= 0).all()  # the last block's expansion index is unseen


def test_masking_collision_rate(rng):
    # seeds collide on their nine compared bits for about 1 in 2^8 blocks;
    # single-family blocks withhold at about 1 in 2^7
    statuses = {"ok": 0, "collision": 0, "single-family": 0, "gated": 0}
    blocks = 0
    for _ in range(10):
        key = SecretKey(1, 6, 3, 2, rng.randrange(256),
                        Fixed129(rng.getrandbits(129)))  # both offsets determinable
        ek = attack_ek(key, 320, seed=rng.randrange(1 << 30))
        rep = recover_report(ek)
        for code in rep.masking_status.tolist():
            statuses[MASKING_STATUS[code]] = statuses.get(MASKING_STATUS[code], 0) + 1
            blocks += 1
    eligible = blocks - statuses["gated"]
    assert eligible >= 2500
    collision_rate = statuses["collision"] / eligible
    withheld_rate = (statuses["collision"] + statuses["single-family"]) / eligible
    # 1/2^8 = 0.0039 and 1/2^7 + 1/2^8 = 0.0117, with generous binomial slack
    assert collision_rate <= 0.02, statuses
    assert withheld_rate <= 0.04, statuses
    assert statuses["ok"] / eligible >= 0.95, statuses


def is_unknown(report, index):
    """Bit ``index`` is neither recovered nor in a constrained pair."""
    pairs = {(index, index + 1), (index - 1, index)}
    return report.bits.flat[index] < 0 and pairs.isdisjoint(report.constrained.keys())


def test_report_bit_states(rng):
    key = SecretKey(1, 6, 1, 6, 0, Fixed129(rng.getrandbits(129)))
    ek = attack_ek(key, 16)
    report = recover_report(ek)
    assert (report.bits == 0).any() and (report.bits == 1).any()
    assert is_unknown(report, 129 * 0 + 64)  # never derivable


def _report_digest(rep):
    def canon(t):
        return sorted(t) if isinstance(t, frozenset) else t
    blocks, index = np.nonzero(rep.bits >= 0)
    # per block: masking status and its bits 36..51 as (index, bit)
    masking = [(MASKING_STATUS[code],
                [(i, b) for i, b in enumerate(row[36:52].tolist(), 36) if b >= 0])
               for code, row in zip(rep.masking_status.tolist(), rep.bits)]
    parts = [list(zip((129 * blocks + index).tolist(), rep.bits[blocks, index].tolist())),
             [(k, sorted(v)) for k, v in entries(rep.constrained)],
             [tuple(canon(t) for t in off) for off in rep.s_offsets],
             masking]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# One first-half pair per rotation class: symmetric {2,6}, two-way {1,4,7},
# four-way {1,2,6,7} and unique {3,5}; the second half takes the next class.
@pytest.mark.parametrize("pair1, pair2, digest", [
    ((2, 4), (1, 3), "12b42d6bad379d488636242f71dceeeb697c7bfcf7c32dd0848a39bbc737c5da"),
    ((1, 3), (1, 1), "df5ab262942806cfa6eaaf4991bdb5ba652033b92f273a2934552436b2bd8c4a"),
    ((1, 1), (3, 2), "2d83baf6bb869a4386c8d2e299586462973a1ffc4f4ba404e21cede6b265e285"),
    ((3, 2), (2, 4), "b203cc34955eaad6b3beb61fe7bcef0cc67bddf01dcab3c38da2e2468bbc9a82"),
], ids=["symmetric", "two-way", "four-way", "unique"])  # a re-pinned digest keeps its test id
def test_report_golden_digest(pair1, pair2, digest):
    rng = random.Random(10 * pair1[0] + pair1[1])
    key = SecretKey(*pair1, *pair2, rng.randrange(256), Fixed129(rng.getrandbits(129)))
    ek = run_attack(oracle_for(key), random_plain(rng, 256))
    assert _report_digest(recover_report(ek)) == digest


def test_swap_bits_reject_non_decomposable_permutation():
    key = SecretKey(1, 6, 3, 2, 50, Fixed129(random.Random(3).getrandbits(129)))
    ek = attack_ek(key, 5)
    perms = np.tile(np.arange(8, dtype=np.uint8), (5, 2, 1))
    # phase 2 leaves rows 0 and 1 holding 1 and 3, which no phase-3 swap fixes
    perms[2, 1] = perms[4, 0] = [1, 2, 0, 3, 4, 5, 6, 7]
    ek = dataclasses.replace(ek, perms=perms)
    with pytest.raises(DomainError, match="block 2 half 1"):
        recover_swap_bits_9to35(ek, np.zeros((5, 2), dtype=np.int64))
    # a half whose offset is ambiguous (-1) is never decomposed
    offsets = np.array([(0, -1)] * 3 + [(0, 0)] * 2)
    with pytest.raises(DomainError, match="block 4 half 0"):
        recover_swap_bits_9to35(ek, offsets)


@pytest.mark.parametrize("amount, message", [
    (0, "known horizontal rotation is 0"),
    (9, "horizontal rotation is not below 8"),
])
def test_report_rejects_a_horizontal_rotation_no_file_holds(amount, message):
    # no MEK1 file holds these amounts; a known 0 would put both 0 and 8 in the
    # rotation set, whose offset bits coincide
    key = SecretKey(2, 5, 1, 3, 20, Fixed129(random.Random(4).getrandbits(129)))
    ek = attack_ek(key, 6)
    rot_x, rotx_known = ek.rot_x.copy(), ek.rotx_known.copy()
    rot_x[3, 2], rotx_known[3, 2] = amount, True
    ek = dataclasses.replace(ek, rot_x=rot_x, rotx_known=rotx_known)
    with pytest.raises(DomainError, match=f"^equivalent-key block 3: {message}$"):
        recover_report(ek)


@pytest.mark.parametrize("amount", [8, 9, 255])
def test_report_rejects_a_vertical_rotation_no_file_holds(amount):
    # a shift by 1 << 8 or more reads 0 in uint8, so the amount would drop out
    # of the block's value set; the MEK1 reader rejects it with the same error
    key = SecretKey(2, 5, 1, 3, 20, Fixed129(random.Random(4).getrandbits(129)))
    ek = attack_ek(key, 6)
    rot_y = ek.rot_y.copy()
    rot_y[3, 2] = amount
    ek = dataclasses.replace(ek, rot_y=rot_y)
    message = "^equivalent-key block 3: vertical rotation is not below 8$"
    with pytest.raises(DomainError, match=message):
        recover_report(ek)
    with pytest.raises(DomainError, match=message):
        equivalent_key_from_bytes(equivalent_key_to_bytes(ek))


def test_unreliable_block_does_not_stop_the_report():
    # the crafted stream leaves block 6 with a two-way byte-swap choice open,
    # and the permutation the attack kept there is not phase-decomposable
    nprng = np.random.default_rng([2, 0, 1, 9])
    bits, _ = craft_ambiguous_stream(nprng, 2, False, decision_15=True)
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20),
                    nprng.bytes(15 * bits.shape[0]))
    assert ek.unreliable_blocks == {6}
    rep = recover_report(ek)
    known = rep.bits >= 0
    assert known.any()
    assert (rep.bits[known] == bits[known]).all()
    for t in (12, 16, 20):
        assert is_unknown(rep, 129 * 6 + t)
    assert MASKING_STATUS[rep.masking_status[6]] == "gated"
    # the same permutation in a block the attack trusts is a malformed key
    with pytest.raises(DomainError, match="block 6 half 0"):
        recover_report(dataclasses.replace(ek, unreliable_blocks=frozenset()))


def test_grade_counts_each_fault(rng):
    key = SecretKey(1, 6, 3, 2, 50, Fixed129(rng.getrandbits(129)))
    rep = recover_report(attack_ek(key, 16))
    assert grade(rep, key) == (0, 0, True, True) and grade(rep, key).ok
    # one flipped bit, one constraint set that excludes the truth, one wrong sub-key
    bits = rep.bits.copy()
    k, i = np.argwhere(bits >= 0)[5]
    bits[k, i] ^= 1
    block, column = np.argwhere(rep.constraints)[0]
    lo, hi = rep.constrained.keys()[0]  # the same rotation, named by its bits
    assert lo // 129 == block
    flat = generate_prbs(key.x0, 16).bits.reshape(-1)
    codes = rep.constraints.copy()
    codes[block, column] = 15 ^ (1 << (2 * int(flat[lo]) + int(flat[hi])))  # all but the truth
    bad = dataclasses.replace(rep, bits=bits, constraints=codes)
    assert grade(bad, key) == (1, 1, True, True) and not grade(bad, key).ok
    other = dataclasses.replace(key, alpha2=2, beta2=2)
    assert grade(rep, other)[2:] == (True, False)


_GOLDEN_CLASSES = [((2, 4), (1, 3)), ((1, 3), (1, 1)), ((1, 1), (3, 2)), ((3, 2), (2, 4))]


@given(st.sampled_from(_GOLDEN_CLASSES), st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
       st.data())
@settings(max_examples=40, deadline=None)
def test_grade_counts_several_faults(pairs, blocks, seed, data):
    """k flipped bits and m constraint codes without the truth grade as (k, m),
    the counts that a loop over the two listings makes too."""
    rng = random.Random(seed)
    key = SecretKey(*pairs[0], *pairs[1], rng.randrange(256), Fixed129(rng.getrandbits(129)))
    rep = recover_report(run_attack(oracle_for(key), random_plain(rng, blocks)))
    assume(grade(rep, key).ok)  # a few blocks may not show a half's whole rotation set
    flat = generate_prbs(key.x0, blocks).bits.reshape(-1)
    bits = rep.bits.copy()
    known = np.flatnonzero(bits >= 0)
    k = data.draw(st.integers(0, len(known)), label="k")
    bits.reshape(-1)[rng.sample(known.tolist(), k)] ^= 1
    codes = rep.constraints.copy()
    present = np.flatnonzero(codes)  # in the order the constrained listing lists them
    lows = [lo for lo, _ in rep.constrained.keys()]
    m = data.draw(st.integers(0, len(present)), label="m")
    for j in rng.sample(range(len(present)), m):
        true_pair = 2 * int(flat[lows[j]]) + int(flat[lows[j] + 1])
        codes.reshape(-1)[present[j]] &= 15 ^ (1 << true_pair)
    bad = dataclasses.replace(rep, bits=bits, constraints=codes)
    assert grade(bad, key) == (k, m, True, True)
    wrong = sum(int(flat[i]) != b for i, b in entries(bad.known_bits))
    missed = sum((int(flat[lo]), int(flat[hi])) not in admissible
                 for (lo, hi), admissible in entries(bad.constrained))
    assert (wrong, missed) == (k, m)


def _check_listing(listing, ref):
    assert len(listing) == len(ref)
    assert listing.keys() == list(ref.keys())
    assert listing.values() == list(ref.values())
    assert not isinstance(listing, MutableMapping)
    key = next(iter(ref), 65)
    with pytest.raises(TypeError):
        listing[key] = 0
    with pytest.raises(TypeError):
        del listing[key]


@given(st.sampled_from(_GOLDEN_CLASSES), st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_report_views_match_the_dict_reference(pairs, blocks, seed):
    """known_bits and constrained are read-only listings of the report's arrays
    whose keys and values equal the dicts the report used to build, in order."""
    rng = random.Random(seed)
    key = SecretKey(*pairs[0], *pairs[1], rng.randrange(256), Fixed129(rng.getrandbits(129)))
    ek = run_attack(oracle_for(key), random_plain(rng, blocks))
    rep = recover_report(ek)
    offsets = np.array([[-1 if isinstance(t, frozenset) else t for t in off]
                        for off in rep.s_offsets], dtype=np.int8)
    pair_sets = [ref_pair_sets(r) for r in (rep.r1, rep.r2)]
    pair_set = lambda half, amount: pair_sets[half][amount]
    constrained = (ref_constrained(to_true_frame(ek, offsets), offsets, pair_set)
                   if rep.ab_candidates1 and rep.ab_candidates2 else {})
    _check_listing(rep.known_bits, ref_known_bits(rep.bits))
    _check_listing(rep.constrained, constrained)
    # known_bits follows ``bits``, also through dataclasses.replace
    bits = rep.bits.copy()
    bits[0, 0] = 1 - bits[0, 0] if bits[0, 0] >= 0 else 0
    listing = dataclasses.replace(rep, bits=bits).known_bits
    assert (listing.keys()[0], listing.values()[0]) == (0, bits[0, 0])


_RECORDED_SETS = sorted({rotation_set(a, b) for a, b in legal_alpha_beta_pairs()}, key=sorted)


@given(st.integers(1, 300), st.sampled_from(_RECORDED_SETS), st.sampled_from(_RECORDED_SETS),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_offset_masks_match_per_row_reference(n, r1, r2, seed):
    # bit t of a half's mask: every vertical amount lies in its set shifted by t
    rot_y = np.random.default_rng(seed).integers(0, 8, size=(n, 16)).astype(np.uint8)
    ek = key_parts(np.zeros((n, 17), dtype=np.uint8), (1, 1), (1, 1))[0]
    got = determine_s_offsets(dataclasses.replace(ek, rot_y=rot_y), r1, r2)
    want = np.zeros((n, 2), dtype=int)
    for m, r in enumerate((r1, r2)):
        observed = np.bitwise_or.reduce(1 << rot_y[:, 8 * m:8 * m + 8].astype(int), axis=1)
        for t in range(8):
            shifted = sum(1 << (x + t) % 8 for x in r)
            want[:, m] |= ((observed & ~shifted) == 0) << t
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
