"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import random
import time
from itertools import product

import numpy as np

from conftest import random_key, random_plain
from crafted import craft_ambiguous_stream, encrypt_with_stream
from mcs.attack import decode_pair_deltas, run_attack
from mcs.cipher import encrypt, decrypt, ees_decrypt
from mcs.core import Fixed129, SecretKey, legal_alpha_beta_pairs
from mcs.keyrecovery import (
    grade,
    recover_report,
    recover_rotation_sets,
    rotation_set,
)
from mcs.prbg import generate_prbs
from mcs.simulate import AMBIGUITY_BOUND, OFFSET_MODEL_RATE, ambiguity_simulation, \
    offset_ambiguity_model, prop1_montecarlo, prop1_probability
from reference import block_weight, ref_mask, ref_swap
from test_cipher import expanded_blocks


def report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_round_trip():
    rng = random.Random(101)
    sizes = [1, 10, 1024]
    t0 = time.perf_counter()
    for i in range(1000):
        key = random_key(rng)
        plain = random_plain(rng, sizes[i % 3])
        assert decrypt(encrypt(plain, key), key) == plain
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 30.0,
           f"1000 round trips over N in (15, 150, 15360) in {elapsed:.1f} s (< 30 s)")


def test_criterion_02_differential_properties():
    rng = random.Random(202)
    violations = 0
    for _ in range(200):
        key = random_key(rng)
        p1, p2 = random_plain(rng, 3), random_plain(rng, 3)
        bits = generate_prbs(key.x0, 3).bits
        # (a) masking preserves block differentials exactly
        for k in range(3):
            b1 = [rng.randrange(256) for _ in range(16)]
            b2 = [rng.randrange(256) for _ in range(16)]
            row = bits[k].tolist()
            if [x ^ y for x, y in zip(ref_mask(b1, row), ref_mask(b2, row))] \
                    != [x ^ y for x, y in zip(b1, b2)]:
                violations += 1
        # (b) expanded differentials identical under two secret bytes
        other = SecretKey(key.alpha1, key.beta1, key.alpha2, key.beta2,
                          (key.secret + 1) % 256, key.x0)
        d_a = [bytes(x ^ y for x, y in zip(a, b))
               for a, b in zip(expanded_blocks(p1, key), expanded_blocks(p2, key))]
        d_b = [bytes(x ^ y for x, y in zip(a, b))
               for a, b in zip(expanded_blocks(p1, other), expanded_blocks(p2, other))]
        if d_a != d_b:
            violations += 1
        # (c) the swap step permutes differential bytes
        swap_ctl = [0] * 4 + [rng.randrange(2) for _ in range(32)]  # bits 4..35
        b1 = [rng.randrange(256) for _ in range(16)]
        b2 = [rng.randrange(256) for _ in range(16)]
        if [x ^ y for x, y in zip(ref_swap(b1, swap_ctl), ref_swap(b2, swap_ctl))] \
                != ref_swap([x ^ y for x, y in zip(b1, b2)], swap_ctl):
            violations += 1
        # (d) per-block differential weight conserved into the ciphertext
        c_diff = bytes(x ^ y for x, y in zip(encrypt(p1, key), encrypt(p2, key)))
        for k, (ea, eb) in enumerate(zip(expanded_blocks(p1, key),
                                         expanded_blocks(p2, key))):
            if block_weight(c_diff[16 * k:16 * k + 16]) != \
                    block_weight(bytes(x ^ y for x, y in zip(ea, eb))):
                violations += 1
    report(2, violations == 0,
           f"properties over 200 keys: {violations} violations (require 0)")


def test_criterion_03_end_to_end_attack():
    rng = random.Random(303)
    t0 = time.perf_counter()
    wrong = 0
    for _ in range(50):
        key = random_key(rng)
        base = random_plain(rng, 1024)
        queries = [0]

        def oracle(p, key=key, queries=queries):
            queries[0] += 1
            return encrypt(p, key)

        ek = run_attack(oracle, base)
        assert queries[0] == 7
        for _ in range(5):
            fresh = random_plain(rng, 1024)
            got = ees_decrypt(encrypt(fresh, key), ek)
            wrong += sum(a != b for a, b in zip(got, fresh))
    elapsed = time.perf_counter() - t0
    report(3, wrong == 0 and elapsed < 60.0,
           f"50 keys x 7 queries x 5 fresh ciphertexts: {wrong} wrong payload "
           f"bytes in {elapsed:.1f} s (< 60 s)")


def test_criterion_04_decode_table():
    sums = {sum(s * d for s, d in zip(signs, (4, 5, 6, 8)))
            for signs in product((1, -1), repeat=4)}
    expected = {23, 15, 13, 11, 7, 5, 3, 1, -1, -3, -5, -7, -11, -13, -15, -23}
    # the attack's own decoder, on 16 blocks probed with (4, 5, 6, 8)
    patterns = np.array(list(product((0, 1), repeat=4)))
    observed = ((1 - 2 * patterns) * (4, 5, 6, 8)).sum(axis=1)
    bits, known = decode_pair_deltas(np.tile((4, 5, 6, 8), (16, 1)), observed)
    inverts = known.all() and (bits == patterns).all()
    report(4, sums == expected and inverts,
           f"signed sums {sorted(sums)} and all 16 patterns decoded")


def test_criterion_05_ambiguity_rate():
    ambiguous, total, instances = ambiguity_simulation(220 * 9_999, seed=505)
    rate = ambiguous / total
    ok_rate = rate <= 3 * AMBIGUITY_BOUND and total >= 2_000_000
    # natural instances are vanishingly rare, so also force the handling
    # paths with crafted streams whose decisions are ambiguous
    nprng = np.random.default_rng(505)
    handled = 0
    for candidate, dup in ((2, False), (7, False), (5, True), (12, False)):
        bits, tb = craft_ambiguous_stream(nprng, candidate, dup)
        oracle = lambda p, b=bits: encrypt_with_stream(p, b, (2, 5), (1, 4), 20)
        base = nprng.bytes(15 * bits.shape[0])
        ek = run_attack(oracle, base)
        assert ek.l_candidates, "ambiguity not observed"
        fresh = nprng.bytes(15 * bits.shape[0])
        handled += ees_decrypt(oracle(fresh), ek) == fresh
    for raw, _ in instances[:3]:
        key = SecretKey(2, 5, 3, 4, 20, Fixed129(raw))
        base = bytes(np.random.default_rng(raw & 0xFFFF).bytes(15 * 10_000))
        ek = run_attack(lambda p: encrypt(p, key), base)
        fresh = bytes(np.random.default_rng(raw & 0xFFF0).bytes(15 * 10_000))
        handled += ees_decrypt(encrypt(fresh, key), ek) == fresh
    expected_handled = 4 + min(3, len(instances))
    report(5, ok_rate and handled == expected_handled,
           f"{total} decisions, rate {rate:.2e} <= {3 * AMBIGUITY_BOUND:.2e}; "
           f"{handled}/{expected_handled} ambiguous instances decrypted exactly")


def test_criterion_06_coverage_probability():
    bad = []
    seed = 606
    for alpha, beta in legal_alpha_beta_pairs():
        for p in (0.25, 0.5, 0.75):
            for n in (1, 2, 4, 8):
                seed += 1
                exact = prop1_probability(alpha, beta, p, n)
                emp = prop1_montecarlo(alpha, beta, p, n, 100_000, seed=seed)
                if 2 * alpha + beta == 8 and emp != 0.0:
                    bad.append((alpha, beta, p, n, "degenerate row not exactly 0"))
                    continue
                sigma = math.sqrt(exact * (1 - exact) / 100_000)
                if abs(emp - exact) > 3 * sigma + 1e-12:
                    bad.append((alpha, beta, p, n, exact, emp))
    report(6, not bad, f"252 cells at 1e5 trials, {len(bad)} outside 3 sigma")


def test_criterion_07_subkey_classification():
    rng = random.Random(707)
    sizes = {1: 0, 2: 0, 4: 0}
    printed = {
        frozenset({1, 7}): {(1, 6)},
        frozenset({2, 6}): {(2, 4)},
        frozenset({3, 5}): {(3, 2)},
        frozenset({4, 1, 7}): {(4, 3), (1, 3)},
        frozenset({4, 2, 6}): {(4, 2), (2, 2)},
        frozenset({4, 3, 5}): {(4, 1), (3, 1)},
        frozenset({1, 2, 6, 7}): {(1, 1), (1, 5), (2, 5), (6, 1)},
        frozenset({1, 3, 5, 7}): {(1, 2), (1, 4), (3, 4), (5, 2)},
        frozenset({2, 3, 5, 6}): {(2, 1), (2, 3), (3, 3), (5, 1)},
    }
    ok = True
    for pair in legal_alpha_beta_pairs():
        key = SecretKey(*pair, *pair, rng.randrange(256),
                        Fixed129(rng.getrandbits(129)))
        ek = run_attack(lambda p: encrypt(p, key), random_plain(rng, 192))
        r1, r2 = recover_rotation_sets(ek)
        true_r = rotation_set(*pair)
        cands = recover_report(ek).ab_candidates1
        ok &= r1 == true_r == r2
        ok &= set(cands) == printed[frozenset(true_r)]
        sizes[len(cands)] += 1
    report(7, ok and sizes == {1: 3, 2: 6, 4: 12},
           f"all 21 pairs recover the true set; split {sizes}")


def test_criterion_08_offset_ambiguity():
    res = offset_ambiguity_model(100_000, seed=808)
    delta = abs(res["rate"] - OFFSET_MODEL_RATE)
    ok = delta <= 3 * res["sigma"]
    report(8, ok,
           f"non-unique offset rate {res['rate']:.4f} vs model "
           f"{OFFSET_MODEL_RATE:.4f} (|delta| = {delta:.4f} <= "
           f"{3 * res['sigma']:.4f}); lower bound {res['lower_bound']:.4f} "
           f"reported, not asserted")


def test_criterion_09_bit_recovery_soundness():
    rng = random.Random(909)
    wrong_bits = 0
    missing_truth = 0
    disagree = 0
    total_bits = 0
    total_constraints = 0
    for _ in range(50):
        key = random_key(rng)
        nblocks = 48
        ek = run_attack(lambda p: encrypt(p, key), random_plain(rng, nblocks))
        rep = recover_report(ek)
        flat = generate_prbs(key.x0, nblocks).bits.reshape(-1)
        bits, constrained = rep.known_bits, rep.constrained
        wrong = sum(int(flat[idx]) != b for idx, b in zip(bits.keys(), bits.values()))
        missing = sum((int(flat[lo]), int(flat[hi])) not in pairs
                      for (lo, hi), pairs in zip(constrained.keys(), constrained.values()))
        total_bits += len(rep.known_bits)
        total_constraints += len(rep.constrained)
        wrong_bits += wrong
        missing_truth += missing
        # the library's grade must count exactly what this loop counts
        disagree += grade(rep, key)[:2] != (wrong, missing)
    report(9, wrong_bits == 0 and missing_truth == 0 and disagree == 0,
           f"50 keys: {total_bits} bits all correct ({wrong_bits} wrong), "
           f"{total_constraints} constraints all contain the truth "
           f"({missing_truth} missing); grade disagrees on {disagree} keys")


def test_criterion_10_linearity():
    rng = random.Random(1010)
    cases = [(random_key(rng), random_plain(rng, 2 ** e)) for e in range(10, 15)]
    # the sizes in turn, five rounds, so that host drift falls on every size alike
    times = [[] for _ in cases]
    for _ in range(5):
        for (key, base), size_times in zip(cases, times):
            t0 = time.perf_counter()
            run_attack(lambda p: encrypt(p, key), base)
            size_times.append(time.perf_counter() - t0)
    points = [(len(base), sorted(t)[2]) for (_, base), t in zip(cases, times)]
    xs = [math.log2(n) for n, _ in points]
    ys = [math.log2(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    ratio = 2 ** slope
    detail = ", ".join(f"{n}: {t * 1e3:.0f} ms" for n, t in points)
    report(10, 1.6 <= ratio <= 2.6,
           f"fitted per-doubling ratio {ratio:.2f} in [1.6, 2.6] ({detail})")
