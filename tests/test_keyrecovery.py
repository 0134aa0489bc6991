import dataclasses
import hashlib
import random

import numpy as np
import pytest

from conftest import random_key, random_plain
from mcs.attack import run_attack
from mcs.cipher import SWAP_TABLE, encrypt
from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.errors import DomainError, IllegalSet
from mcs.keyrecovery import (
    RotationSet,
    candidate_alpha_beta,
    determine_s_offsets,
    prop1_montecarlo,
    prop1_probability,
    recover_report,
    recover_rotation_sets,
    recover_swap_bits_9to35,
    rotation_pair_constraints,
    rotation_set,
)
from mcs.prbg import generate_prbs


def oracle_for(key):
    return lambda p: encrypt(p, key)


def test_rotation_set_examples():
    assert rotation_set(2, 5) == {1, 2, 6, 7}
    assert rotation_set(2, 4) == {2, 6}


def test_candidate_lists_match_classification():
    assert candidate_alpha_beta(RotationSet(frozenset({1, 7}))) == {(1, 6)}
    assert candidate_alpha_beta(RotationSet(frozenset({4, 2, 6}))) == {(4, 2), (2, 2)}
    assert candidate_alpha_beta(RotationSet(frozenset({1, 3, 5, 7}))) == \
        {(1, 2), (1, 4), (3, 4), (5, 2)}
    with pytest.raises(IllegalSet):
        candidate_alpha_beta(RotationSet(frozenset({1, 2})))


def test_classification_split_3_6_12():
    sizes = {1: 0, 2: 0, 4: 0}
    for pair in legal_alpha_beta_pairs():
        cands = candidate_alpha_beta(RotationSet(frozenset(rotation_set(*pair))))
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
        assert r1.members == rotation_set(*pair)
        assert r2.members == rotation_set(*pair)


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
        offsets = determine_s_offsets(ek, r1, r2)
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
                t = offsets[k][m]
                if isinstance(t, frozenset):
                    assert true_t in t
                else:
                    assert t == true_t
    assert wrong_bits == 0


def test_offset_symmetry_classes(rng):
    # {2, 6} pins the offset modulo 4; {1, 3, 5, 7} modulo 2
    key24 = SecretKey(2, 4, 1, 2, 9, Fixed129(random.Random(8).getrandbits(129)))
    ek = attack_ek(key24, 48)
    r1, r2 = recover_rotation_sets(ek)
    offsets = determine_s_offsets(ek, r1, r2)
    for k in range(48):
        t1, t2 = offsets[k]
        assert isinstance(t1, frozenset) and len(t1) == 2
        a, b = sorted(t1)
        assert b - a == 4
        assert isinstance(t2, frozenset) and len(t2) == 4
        assert {x % 2 for x in t2} in ({0}, {1})


def test_rotation_pair_constraint_tables():
    # two-element set: value classes {1,2,3} vs {5,6,7}
    r = RotationSet(frozenset({1, 7}))
    assert rotation_pair_constraints(r, 1) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 7) == {(0, 1), (1, 0)}
    # three-element set: the shared value 4 admits all four pairs
    r = RotationSet(frozenset({4, 2, 6}))
    assert rotation_pair_constraints(r, 4) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert rotation_pair_constraints(r, 2) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 6) == {(0, 1), (1, 0)}
    # four-element sets: only the extreme values stay two-way
    r = RotationSet(frozenset({1, 2, 6, 7}))
    assert rotation_pair_constraints(r, 1) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 7) == {(0, 1), (1, 0)}
    assert rotation_pair_constraints(r, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r = RotationSet(frozenset({1, 3, 5, 7}))
    assert rotation_pair_constraints(r, 3) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    r = RotationSet(frozenset({2, 3, 5, 6}))
    assert rotation_pair_constraints(r, 2) == {(0, 0), (1, 1)}
    assert rotation_pair_constraints(r, 6) == {(0, 1), (1, 0)}
    assert rotation_pair_constraints(r, 5) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_masking_bits_recovered_and_sound(rng):
    key = SecretKey(1, 6, 3, 2, 50, Fixed129(rng.getrandbits(129)))
    nblocks = 64
    base = random_plain(rng, nblocks)
    ek = run_attack(oracle_for(key), base)
    report = recover_report(ek)
    flat = generate_prbs(key.x0, nblocks).bits.reshape(-1)
    masked = [rec for rec in report.masking if rec.status == "ok"]
    assert masked, "no block yielded masking bits"
    for idx, b in report.known_bits.items():
        assert int(flat[idx]) == b
    # every ok block assigns all eight selector bits
    for k, rec in enumerate(report.masking):
        if rec.status == "ok":
            assert all(36 + 2 * j in rec.bits for j in range(8))


def test_singleton_rotation_subset(nprng):
    from mcs.cipher import encrypt_with_stream

    bits = nprng.integers(0, 2, size=(1, 129), dtype=np.uint8)
    bits[0, 65:81] = 0  # every first-half row rotates by alpha1
    ek = run_attack(lambda p: encrypt_with_stream(p, bits, (2, 5), (3, 4), 9),
                    bytes(nprng.bytes(15)))
    r1, _ = recover_rotation_sets(ek)
    assert r1.members == frozenset({2, 6})  # proper subset {alpha, 8 - alpha}


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
        for rec in rep.masking:
            statuses[rec.status] = statuses.get(rec.status, 0) + 1
            blocks += 1
    eligible = blocks - statuses["gated"]
    assert eligible >= 2500
    collision_rate = statuses["collision"] / eligible
    withheld_rate = (statuses["collision"] + statuses["single-family"]) / eligible
    # 1/2^8 = 0.0039 and 1/2^7 + 1/2^8 = 0.0117, with generous binomial slack
    assert collision_rate <= 0.02, statuses
    assert withheld_rate <= 0.04, statuses
    assert statuses["ok"] / eligible >= 0.95, statuses


def test_report_bit_state_api(rng):
    key = SecretKey(1, 6, 1, 6, 0, Fixed129(rng.getrandbits(129)))
    ek = attack_ek(key, 16)
    report = recover_report(ek)
    states = {report.bit_state(i) for i in range(129 * 16)}
    assert "zero" in states and "one" in states
    assert report.bit_state(129 * 0 + 64) == "unknown"  # never derivable


def _report_digest(rep):
    def canon(t):
        return sorted(t) if isinstance(t, frozenset) else t
    parts = [sorted(rep.known_bits.items()),
             [(k, sorted(v)) for k, v in rep.constrained.items()],
             [tuple(canon(t) for t in off) for off in rep.s_offsets],
             [(m.status, sorted(m.bits.items()), m.seed1) for m in rep.masking]]
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
        recover_swap_bits_9to35(ek, [(0, 0)] * 5)
    # a half whose offset is ambiguous is never decomposed
    offsets = [(0, frozenset({0, 4}))] * 3 + [(0, 0)] * 2
    with pytest.raises(DomainError, match="block 4 half 0"):
        recover_swap_bits_9to35(ek, offsets)
