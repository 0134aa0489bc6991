import dataclasses
import hashlib
import random
from itertools import permutations, product

import numpy as np
import pytest

from conftest import random_key, random_plain
from crafted import craft_ambiguous_stream
from mcs.attack import run_attack
from mcs.cipher import SWAP_TABLE, encrypt, encrypt_with_stream, key_parts
from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.errors import DomainError, IllegalSet
from mcs.keyrecovery import (
    MASKING_STATUS,
    candidate_alpha_beta,
    determine_s_offsets,
    grade,
    recover_report,
    recover_rotation_sets,
    recover_swap_bits_9to35,
    rotation_pair_constraints,
    rotation_set,
)
from mcs.prbg import generate_prbs
from mcs.simulate import prop1_montecarlo, prop1_probability
from reference import ref_rotate_rows, ref_swap


def oracle_for(key):
    return lambda p: encrypt(p, key)


def test_rotation_set_examples():
    assert rotation_set(2, 5) == {1, 2, 6, 7}
    assert rotation_set(2, 4) == {2, 6}


def test_candidate_lists_match_classification():
    assert candidate_alpha_beta(frozenset({1, 7})) == {(1, 6)}
    assert candidate_alpha_beta(frozenset({4, 2, 6})) == {(4, 2), (2, 2)}
    assert candidate_alpha_beta(frozenset({1, 3, 5, 7})) == \
        {(1, 2), (1, 4), (3, 4), (5, 2)}
    with pytest.raises(IllegalSet):
        candidate_alpha_beta(frozenset({1, 2}))


def test_classification_split_3_6_12():
    sizes = {1: 0, 2: 0, 4: 0}
    for pair in legal_alpha_beta_pairs():
        cands = candidate_alpha_beta(rotation_set(*pair))
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
        for idx, b in report.known_bits.items():
            if int(flat[idx]) != b:
                wrong_bits += 1
        for (lo, hi), pairs in report.constrained.items():
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


def test_rotation_pair_constraint_tables():
    # two-element set: value classes {1,2,3} vs {5,6,7}
    r = frozenset({1, 7})
    assert rotation_pair_constraints(r, 1) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 7) == {(0, 1), (1, 0)}
    # three-element set: the shared value 4 admits all four pairs
    r = frozenset({4, 2, 6})
    assert rotation_pair_constraints(r, 4) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert rotation_pair_constraints(r, 2) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 6) == {(0, 1), (1, 0)}
    # four-element sets: only the extreme values stay two-way
    r = frozenset({1, 2, 6, 7})
    assert rotation_pair_constraints(r, 1) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 7) == {(0, 1), (1, 0)}
    assert rotation_pair_constraints(r, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r = frozenset({1, 3, 5, 7})
    assert rotation_pair_constraints(r, 3) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r = frozenset({2, 3, 5, 6})
    assert rotation_pair_constraints(r, 2) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 6) == {(0, 1), (1, 0)}
    assert rotation_pair_constraints(r, 5) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def ref_row_amount(ab, direction, magnitude):
    """The amount the reference rotates row 0 by for one bit pair."""
    b = [0] * 129
    b[65], b[66] = direction, magnitude
    return ref_rotate_rows([1] + [0] * 15, b, ab, ab)[0].bit_length() - 1


def test_rotation_pair_constraints_every_pair_and_value():
    # every value 0..7 under every legal pair's set: the bit pairs that some
    # candidate (alpha, beta) of the set rotates by that value
    for pair in legal_alpha_beta_pairs():
        r = rotation_set(*pair)
        for value in range(8):
            fits = {(d, m) for ab in candidate_alpha_beta(r) for d, m in product((0, 1), (0, 1))
                    if ref_row_amount(ab, d, m) == value}
            if fits:
                assert rotation_pair_constraints(r, value) == fits, (pair, value)
            else:
                with pytest.raises(IllegalSet):
                    rotation_pair_constraints(r, value)


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
    ek = dataclasses.replace(key_parts(np.zeros((num, 129), dtype=np.uint8), (1, 6), (1, 6)),
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
        one = dataclasses.replace(ek, num_blocks=1, perms=alone)
        with pytest.raises(DomainError, match=f"block 0 half {m}: "):
            recover_swap_bits_9to35(one, zeros[:1])


def test_masking_bits_recovered_and_sound(rng):
    key = SecretKey(1, 6, 3, 2, 50, Fixed129(rng.getrandbits(129)))
    nblocks = 64
    base = random_plain(rng, nblocks)
    ek = run_attack(oracle_for(key), base)
    report = recover_report(ek)
    flat = generate_prbs(key.x0, nblocks).bits.reshape(-1)
    masked = report.masking_status == MASKING_STATUS.index("ok")
    assert masked.any(), "no block yielded masking bits"
    for idx, b in report.known_bits.items():
        assert int(flat[idx]) == b
    # every ok block assigns all eight selector bits
    assert (report.bits[masked, 36:52:2] >= 0).all()


def test_singleton_rotation_subset(nprng):
    from mcs.cipher import encrypt_with_stream

    bits = nprng.integers(0, 2, size=(1, 129), dtype=np.uint8)
    bits[0, 65:81] = 0  # every first-half row rotates by alpha1
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 9),
                    bytes(nprng.bytes(15)))
    r1, _ = recover_rotation_sets(ek)
    assert r1 == frozenset({2, 6})  # proper subset {alpha, 8 - alpha}


def test_identity_permutation_bits_zero(nprng):
    from mcs.cipher import encrypt_with_stream

    bits = nprng.integers(0, 2, size=(2, 129), dtype=np.uint8)
    bits[:, 12:36] = 0  # no within-half swaps
    bits[:, :4] = 0
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (1, 6), (1, 6), 9),
                    bytes(nprng.bytes(30)))
    rep = recover_report(ek)
    for k in range(2):
        for t in range(12, 36):
            assert rep.known_bits.get(129 * k + t) == 0


def test_attack_bits_always_marked(rng):
    # everything the attack itself recovers appears as a known bit
    key = random_key(rng)
    nblocks = 12
    ek = run_attack(oracle_for(key), random_plain(rng, nblocks))
    rep = recover_report(ek)
    for k in range(nblocks - 1):  # the last block's expansion index is unseen
        for t in range(12):
            assert 129 * k + t in rep.known_bits


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
    return report.bits.flat[index] < 0 and not pairs & report.constrained.keys()


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
    # per block: masking status, its bits 36..51 as (index, bit), first seed
    masking = [(MASKING_STATUS[code],
                [(i, b) for i, b in enumerate(row[36:52].tolist(), 36) if b >= 0],
                None if seed < 0 else seed)
               for code, row, seed in zip(rep.masking_status.tolist(), rep.bits,
                                          rep.seed1.tolist())]
    parts = [list(zip((129 * blocks + index).tolist(), rep.bits[blocks, index].tolist())),
             [(k, sorted(v)) for k, v in rep.constrained.items()],
             [tuple(canon(t) for t in off) for off in rep.s_offsets],
             masking]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# One first-half pair per rotation class: symmetric {2,6}, two-way {1,4,7},
# four-way {1,2,6,7} and unique {3,5}; the second half takes the next class.
@pytest.mark.parametrize("pair1, pair2, digest", [
    ((2, 4), (1, 3), "6b17039165b9b25ec4224526b418f468cad99436c4d92c3b637edf364c43ae4a"),
    ((1, 3), (1, 1), "1bc628caa8c22ca81e0f814f64ad881fc4787f4c0a521d041aeca2e6d1be0341"),
    ((1, 1), (3, 2), "1d2cfd40d6bf16854e7db48bb2ec2b021ab0d4e2a8b0c814d724fa1e1e6e753b"),
    ((3, 2), (2, 4), "fe7d3e569c3550d54dad32c8b93a3ae551f174050ef8915503cd7c234b408500"),
])
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


def test_unreliable_block_does_not_stop_the_report():
    # the crafted stream leaves block 6 with a two-way byte-swap choice open,
    # and the permutation the attack kept there is not phase-decomposable
    nprng = np.random.default_rng([2, 0, 1, 9])
    bits, _ = craft_ambiguous_stream(nprng, 2, False, decision_15=True)
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (1, 4), 20),
                    nprng.bytes(15 * bits.shape[0]))
    assert ek.unreliable_blocks == {6}
    rep = recover_report(ek)
    flat = bits.reshape(-1)
    assert rep.known_bits
    assert sum(int(flat[i]) != b for i, b in rep.known_bits.items()) == 0
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
    pair = next(iter(rep.constrained))
    flat = generate_prbs(key.x0, 16).bits.reshape(-1)
    truth = (int(flat[pair[0]]), int(flat[pair[1]]))
    others = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)} - {truth})
    constrained = {**rep.constrained, pair: others}
    bad = dataclasses.replace(rep, bits=bits, constrained=constrained)
    assert grade(bad, key) == (1, 1, True, True) and not grade(bad, key).ok
    other = dataclasses.replace(key, alpha2=2, beta2=2)
    assert grade(rep, other)[2:] == (True, False)
