"""Differential chosen-plaintext attack: seven queries to an encryption
oracle yield an equivalent key that decrypts any ciphertext under the same
hidden key.

Stage order (each stage chooses its plaintext differentials adaptively from
what earlier stages recovered):

  1. expansion indices l(k) from Hamming-weight bookkeeping over two
     differentials with per-byte weights arranged so that every block's
     (w1, w2) pairs are distinct and never (0, 0);
  2. the eight cross-half swap bits per block, from half-block weight
     differences decoded against a dissociated set of pair deltas;
  3. the vertical-rotation part, probing with one 255 (or one 0) byte per
     half so horizontal rotations act trivially;
  4. the horizontal-rotation part, probing with uniform single-bit bytes so
     within-half byte swaps act trivially;
  5. the within-half byte-swap part, by value-matching the stage-1
     differentials after undoing both rotation parts;
  6. the masking part, by XORing the known base plaintext against its
     ciphertext after undoing everything else.

All recovered rotation/permutation/mask items live in a per-block "EES
frame" that is a cyclic re-indexing of the true one by an unknowable
per-half offset; the offsets cancel when the parts are composed, so
decryption of payload bytes is exact.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

# EquivalentKey and ees_decrypt live with the cipher; mcs.attack re-exports them.
from .cipher import (  # noqa: F401
    EquivalentKey,
    _transpose_halves,
    complement_classes,
    cross_swap,
    ees_decrypt,
    expansion_chain,
    inverse_rotations,
    plane_words,
    to_frame,
)
from .errors import AttackFailed, NonDivisibleLength

EncryptionOracle = Callable[[bytes], bytes]

_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_SINGLE = np.full(256, -1, dtype=np.int8)
for _i in range(8):
    _SINGLE[1 << _i] = _i

# Sign patterns of four pair deltas: row p holds bit_i(p), and its signs
# are (1 - 2*bit_i(p)).
_PATTERN_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1
_SIGNS = (1 - 2 * _PATTERN_BITS).astype(np.int16)

# Dissociated companion triples: {d} | COMPANIONS[d] has 16 distinct signed sums.
_COMPANIONS = {1: (4, 6, 8), 2: (4, 7, 8), 3: (6, 7, 8), 4: (6, 7, 8),
               5: (4, 6, 8), 6: (4, 7, 8), 7: (4, 6, 8), 8: (4, 5, 6)}

_CANONICAL_DELTAS = (4, 5, 6, 8)


def _weight_byte(w: int) -> int:
    """Canonical byte of Hamming weight w."""
    return (1 << w) - 1


# ---------------------------------------------------------------------------
# Stage 1: expansion indices
# ---------------------------------------------------------------------------

def expansion_weight_tables(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-byte weights of the two expansion-probing differentials.

    The second sequence cycles 0..8 with period 9.  The first runs nine of
    each weight 0..8 (period 81) except on the positions where the second
    sequence is 0: those take a period-8 ramp over weights 1..8 instead, so
    no position carries the pair (0, 0).  Within any 15-byte window all 15
    weight pairs are distinct, and equal pairs are at least 72 positions
    apart, so only an expansion chain at least four blocks deep can make the
    inherited pair collide with a payload pair.
    """
    idx = np.arange(length, dtype=np.int64)
    w1 = (idx % 81) // 9
    mult9 = idx % 9 == 0
    w1[mult9] = (idx[mult9] // 9) % 8 + 1
    w2 = idx % 9
    return w1.astype(np.uint8), w2.astype(np.uint8)


def gen_expansion_differentials(num_blocks: int) -> tuple[bytes, bytes]:
    """The two plaintext differentials that break the data expansion."""
    w1, w2 = expansion_weight_tables(15 * num_blocks)
    d1 = ((1 << w1.astype(np.uint16)) - 1).astype(np.uint8)
    d2 = ((1 << w2.astype(np.uint16)) - 1).astype(np.uint8)
    return d1.tobytes(), d2.tobytes()


def _block_weights(data: bytes, width: int) -> np.ndarray:
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    return _POP[arr].sum(axis=1, dtype=np.int32)


def _expanded_weight_deltas(d: bytes, cdiff: bytes) -> np.ndarray:
    """Per block, the weight the expanded byte contributed to the ciphertext."""
    if len(cdiff) * 15 != len(d) * 16:
        raise AttackFailed("expansion", "ciphertext differential has the wrong length")
    e = _block_weights(cdiff, 16) - _block_weights(d, 15)
    if ((e < 0) | (e > 8)).any():
        raise AttackFailed("expansion", "expanded-byte weight outside 0..8")
    return e


def recover_expansion_indices(d1: bytes, d2: bytes, c1diff: bytes, c2diff: bytes
                              ) -> tuple[np.ndarray, dict[int, frozenset]]:
    """l(k) per block, plus the candidate sets of the ambiguous blocks."""
    e1 = _expanded_weight_deltas(d1, c1diff)
    e2 = _expanded_weight_deltas(d2, c2diff)
    if e1[0] != 0 or e2[0] != 0:
        raise AttackFailed("expansion", "block 0 must have a zero expanded differential")
    pw1 = _POP[np.frombuffer(d1, dtype=np.uint8)].reshape(-1, 15)
    pw2 = _POP[np.frombuffer(d2, dtype=np.uint8)].reshape(-1, 15)
    return match_expansion_weights(pw1, pw2, e1, e2)


def match_expansion_weights(w1: np.ndarray, w2: np.ndarray, e1: np.ndarray,
                            e2: np.ndarray) -> tuple[np.ndarray, dict[int, frozenset]]:
    """Match each block's expanded weight pair against the previous block's.

    ``w1``/``w2`` are the (B, 15) per-byte weights of the two differentials
    and ``e1``/``e2`` the (B,) weights of each block's expanded byte.  Block
    k's pair is looked up among block k-1's 15 payload pairs and its own
    expanded pair (position 15).  ``l_values`` is int16 with -1 where a block
    is ambiguous and for the last block, whose index no ciphertext shows;
    ``l_candidates`` maps each ambiguous block to its candidate positions.
    """
    num = len(e1)
    hit = (w1[:-1] == e1[1:, None]) & (w2[:-1] == e2[1:, None])
    counts = hit.sum(axis=1)
    pos15 = (e1[:-1] == e1[1:]) & (e2[:-1] == e2[1:])
    total = counts + pos15
    if (total == 0).any():
        k = int(np.nonzero(total == 0)[0][0]) + 1
        raise AttackFailed("expansion", f"no position of block {k - 1} matches block {k}")
    l_values = np.full(num, -1, dtype=np.int16)
    l_values[:-1] = np.where(total > 1, -1, np.where(counts > 0, np.argmax(hit, axis=1), 15))
    l_candidates = {int(k): frozenset(np.nonzero(hit[k])[0].tolist() + [15] * int(pos15[k]))
                    for k in np.nonzero(total > 1)[0]}
    return l_values, l_candidates


def _payload_at(rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """rows[k, pos[k]] for every block, 0 where pos[k] < 0."""
    return np.where(pos >= 0, rows[np.arange(len(pos)), pos], 0)


def _chain_positions(l_values: np.ndarray, l_candidates: dict[int, frozenset]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per block, the payload position it hands down the chain and, where
    ambiguous, the payload member of its candidate set; -1 where none.

    The probes neutralize an ambiguous block by giving its payload
    candidate the inherited value, so the chain passes through unchanged.
    """
    src = np.where(l_values < 15, l_values, -1)
    amb = np.full(len(l_values), -1, dtype=np.int16)
    for k, cands in sorted(l_candidates.items()):
        payload = [c for c in cands if c < 15]
        if len(payload) != 1 or 15 not in cands:
            raise AttackFailed("expansion", f"cannot neutralize candidate set {set(cands)}")
        amb[k] = payload[0]
    return src, amb


# ---------------------------------------------------------------------------
# Stage 2: the first eight byte-swapping bits
# ---------------------------------------------------------------------------

def _swap_row(w_e: int, amb_c: int, target_low: bool) -> list[int]:
    """One block's expanded swap-probe row when it inherits weight ``w_e``.

    ``amb_c`` is the payload member of an ambiguous candidate set, or -1.
    Pair p means bytes (p, p+8), and its delta is the weight of byte p minus
    that of byte p+8.  Byte 15 inherits the previous block's differential
    at l(k-1), so pair 7 is threaded through the chain, and the deltas are
    re-chosen wherever the inherited weight or a candidate interferes.
    """
    e_val = _weight_byte(w_e)
    row = [0] * 15 + [e_val]
    pr = amb_c % 8 if amb_c >= 0 else -1

    def put(pairs, weights):
        for p, w in zip(pairs, weights):
            row[p] = _weight_byte(w)

    if target_low:
        row[7] = e_val  # pair 7 stays delta-0 under the chain
        if 0 <= pr < 4:
            # forced byte at the candidate: delta magnitude from its partner
            w_p = 0 if w_e >= 1 else 8
            row[amb_c], row[amb_c ^ 8] = e_val, _weight_byte(w_p)
            put([p for p in range(4) if p != pr], _COMPANIONS[abs(w_e - w_p)])
        else:
            put(range(4), _CANONICAL_DELTAS)
            if pr >= 0:  # candidate in a delta-0 pair (or at 7, already e_val)
                row[amb_c] = row[amb_c ^ 8] = e_val
    elif amb_c == 7:
        # pair (7, 15) forced equal: its bit cannot be observed here
        row[7] = e_val
        put((4, 5, 6), (4, 5, 6))
    elif 4 <= pr < 7:
        # doubly constrained: candidate pair and pair 7 both forced
        w_c = w_e - 2 if w_e >= 2 else w_e + 2
        row[amb_c], row[amb_c ^ 8] = e_val, _weight_byte(w_c)
        row[7] = _weight_byte(w_e - 4 if w_e >= 4 else w_e + 4)
        put([p for p in (4, 5, 6) if p != pr], (7, 8))
    else:
        row[7] = 0x00 if w_e == 8 else 0xFF
        put((4, 5, 6), _CANONICAL_DELTAS[:3] if w_e == 0
            else _COMPANIONS[8 if w_e == 8 else 8 - w_e])
        if pr >= 0:  # candidate in a delta-0 pair of this probe
            row[amb_c] = row[amb_c ^ 8] = e_val
    return row


# _SWAP_ROWS[target_low][w, amb_c + 1]: the expanded row of ``_swap_row``
_SWAP_ROWS = {t: np.array([[_swap_row(w, c, t) for c in range(-1, 15)] for w in range(9)],
                          dtype=np.uint8) for t in (True, False)}


def _build_swap_differential(l_values: np.ndarray, l_candidates: dict[int, frozenset],
                             target_low: bool) -> tuple[np.ndarray, np.ndarray]:
    """One swap-probing differential (payload rows) plus its (B, 4) pair deltas.

    The probe targets pairs 0-3 when ``target_low``, else pairs 4-7.  Every
    byte of the probe is a weight byte 2^w - 1, so the inherited byte is one
    of nine states: each block's row is looked up by its inherited weight,
    and the weights come from one next-state table scan.
    """
    src, amb = _chain_positions(l_values, l_candidates)
    table = _SWAP_ROWS[target_low]
    # passed[k, w]: the weight block k hands on when it inherits weight w
    passed = _POP[table[:, amb + 1, np.maximum(src, 0)]].T
    weights = expansion_chain(0, np.where(src[:, None] >= 0, passed,
                                          np.arange(9, dtype=np.uint8)))
    rows = table[weights, amb + 1]
    pairs = np.arange(4) + (0 if target_low else 4)
    deltas = _POP[rows[:, pairs]].astype(np.int16) - _POP[rows[:, pairs + 8]]
    return rows[:, :15], deltas


def decode_pair_deltas(deltas: np.ndarray, observed: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The four swap bits per block whose signed delta sum gives ``observed``.

    ``deltas`` is (B, 4) and ``observed`` (B,); a set bit i flips the sign
    of delta i.  Returns (B, 4) uint8 bits and a (B, 4) bool known mask: a
    bit is known when every matching sign pattern agrees on it, and reads
    0 otherwise.
    """
    match = deltas @ _SIGNS.T == observed[:, None]  # (B, 16)
    count = match.sum(axis=1, keepdims=True)
    if (count == 0).any():
        k = int(np.argmax(count == 0))
        raise AttackFailed("swap-bits", f"block {k}: observed half-weight delta "
                                        f"{int(observed[k])} not decodable")
    ones = match.astype(np.int16) @ _PATTERN_BITS  # matching patterns setting bit i
    bits = ones == count
    return bits.astype(np.uint8), bits | (ones == 0)


def _half_weight_delta(cdiff: bytes) -> np.ndarray:
    w = _POP[np.frombuffer(cdiff, dtype=np.uint8).reshape(-1, 16)].astype(np.int32)
    return w[:, :8].sum(axis=1) - w[:, 8:].sum(axis=1)


def _recover_swap_bits(c3diff: bytes, c4diff: bytes, deltas_a: np.ndarray,
                       deltas_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eight swap bits and their known mask from the two swap probes."""
    bits_a, known_a = decode_pair_deltas(deltas_a, _half_weight_delta(c3diff))
    bits_b, known_b = decode_pair_deltas(deltas_b, _half_weight_delta(c4diff))
    return np.hstack([bits_a, bits_b]), np.hstack([known_a, known_b])


# ---------------------------------------------------------------------------
# Stages 3-4: rotation parts
# ---------------------------------------------------------------------------

def gen_vertical_differential(l_values: np.ndarray, l_candidates: dict[int, frozenset]
                              ) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Probe differential for the vertical part plus (chosen rows, pattern types).

    Each half carries a single 255 among 0s (type 0) or a single 0 among
    255s (type 1) at the chosen row, so the first-8 swaps, which exchange
    bytes p and p+8, leave it in place.  The type follows the inherited
    chain value so the expanded byte always fits the pattern: every block
    complements the byte it hands on or not, an XOR scan.
    """
    src, amb = _chain_positions(l_values, l_candidates)
    rows_out = (amb % 8 == 0).astype(np.uint8)  # avoid an ambiguous candidate's row
    pattern = np.where(np.arange(15) % 8 == rows_out[:, None], 255, 0).astype(np.uint8)
    inherited = expansion_chain(0, _payload_at(pattern, src), keep=np.ones(len(src), bool))
    payload = pattern ^ inherited[:, None]
    return payload.tobytes(), rows_out, (inherited == 255).astype(np.uint8)


def recover_vertical_part(c5diff: bytes, chosen_rows: np.ndarray,
                          types: np.ndarray) -> np.ndarray:
    """Per block, 16 column amounts (true amount plus the half's offset)."""
    halves = np.frombuffer(c5diff, dtype=np.uint8).reshape(-1, 8)
    cols = _transpose_halves(halves).reshape(-1, 16)
    probe = np.where(types[:, None] == 0, cols, ~cols & 0xFF)
    pos = _SINGLE[probe].astype(np.int16)
    if (pos < 0).any():
        k, p = np.argwhere(pos < 0)[0]
        raise AttackFailed("vertical",
                           f"block {k} half {p // 8} column {p % 8} is not single-bit")
    return ((pos - chosen_rows[:, None]) % 8).astype(np.uint8)


def gen_horizontal_differential(l_values: np.ndarray, l_candidates: dict[int, frozenset]
                                ) -> tuple[bytes, np.ndarray]:
    """All-0x01 probe differential; returns it plus per-block zero positions.

    ``zero_positions`` is (B, 2) int16: the pre-swap positions whose
    differential is forced to zero, -1 where unused.  Column 0 is the
    expanded byte while the chain is still rooted in block 0, which only
    ever affects the discarded byte.  Column 1 is a neutralized candidate
    there (an ambiguous block always has a payload-sourced, hence nonzero,
    chain value, so it never goes dark; the entry is defensive).
    """
    src, amb = _chain_positions(l_values, l_candidates)
    inherited = expansion_chain(0, (src >= 0).astype(np.uint8), keep=src < 0)
    payload = np.ones((len(src), 15), dtype=np.uint8)
    k = np.nonzero(amb >= 0)[0]
    payload[k, amb[k]] = inherited[k]
    dark = inherited == 0
    zero_positions = np.stack([np.where(dark, 15, -1),
                               np.where(dark & (amb >= 0), amb, -1)], axis=1)
    return payload.tobytes(), zero_positions.astype(np.int16)


def recover_horizontal_part(c6diff: bytes, rot_y: np.ndarray,
                            swap_bits: np.ndarray, zero_positions: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per block, 16 row amounts in the vertical part's frame, plus validity."""
    arr = np.frombuffer(c6diff, dtype=np.uint8).reshape(-1, 16)
    d1 = inverse_rotations(arr, rot_y)
    pos = _SINGLE[d1].astype(np.int16)
    known = pos >= 0
    bad = (pos < 0) & (d1 != 0)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise AttackFailed("horizontal", f"block {k} row {i} is neither single-bit nor empty")
    # a zero row must appear exactly where a zero-differential byte landed;
    # the first eight swaps move byte z across when set
    z = np.maximum(zero_positions, 0)
    half = (z // 8) ^ np.take_along_axis(swap_bits, z % 8, axis=1)
    expected = np.stack([((zero_positions >= 0) & (half == m)).sum(axis=1)
                         for m in (0, 1)], axis=1)
    got = np.stack([(~known[:, :8]).sum(axis=1), (~known[:, 8:]).sum(axis=1)], axis=1)
    if (expected != got).any():
        k = int(np.nonzero((expected != got).any(axis=1))[0][0])
        raise AttackFailed("horizontal",
                           f"block {k}: zero-row count mismatch {got[k]} != {expected[k]}")
    return (pos % 8).astype(np.uint8), known


# ---------------------------------------------------------------------------
# Stage 5: within-half byte-swap part
# ---------------------------------------------------------------------------

def _chain_values(diff: bytes, src: np.ndarray, amb: np.ndarray) -> np.ndarray:
    """Inherited differential byte per block for an already-sent differential.

    An ambiguous block hands on its payload candidate's byte, which equals
    the inherited value by construction.
    """
    rows = np.frombuffer(diff, dtype=np.uint8).reshape(len(src), 15)
    pos = np.where(amb >= 0, amb, src)
    return expansion_chain(0, _payload_at(rows, pos), keep=pos < 0)


class _PermChoice(NamedTuple):
    """An unresolved two-way assignment in one block: two (half, source row)
    bytes that may trade frame rows.  Bytes 7 and 15 sit in two halves and
    trade them through the unknown swap bit 11."""
    block: int
    first: tuple[int, int]
    second: tuple[int, int]


def recover_byteswap_part(d1: bytes, d2: bytes, c1diff: bytes, c2diff: bytes,
                          l_values: np.ndarray, l_candidates: dict[int, frozenset],
                          swap_bits: np.ndarray,
                          rot_x: np.ndarray, rotx_known: np.ndarray,
                          rot_y: np.ndarray
                          ) -> tuple[np.ndarray, list[_PermChoice]]:
    """Per block, the two within-half permutations (source row -> frame row)."""
    num = len(d1) // 15
    src, amb = _chain_positions(l_values, l_candidates)
    f16_1 = np.column_stack([np.frombuffer(d1, np.uint8).reshape(num, 15),
                             _chain_values(d1, src, amb)])
    f16_2 = np.column_stack([np.frombuffer(d2, np.uint8).reshape(num, 15),
                             _chain_values(d2, src, amb)])
    exp1 = cross_swap(f16_1, swap_bits).astype(np.int32)
    exp2 = cross_swap(f16_2, swap_bits).astype(np.int32)
    obs1 = inverse_rotations(np.frombuffer(c1diff, np.uint8).reshape(num, 16),
                             rot_y, rot_x).astype(np.int32)
    obs2 = inverse_rotations(np.frombuffer(c2diff, np.uint8).reshape(num, 16),
                             rot_y, rot_x).astype(np.int32)
    perms = np.zeros((num, 2, 8), dtype=np.uint8)
    choices: list[_PermChoice] = []
    for m in (0, 1):
        sl = slice(8 * m, 8 * m + 8)
        ek = exp1[:, sl] * 256 + exp2[:, sl]
        ok = obs1[:, sl] * 256 + obs2[:, sl]
        order_e = np.argsort(ek, axis=1, kind="stable")
        order_o = np.argsort(ok, axis=1, kind="stable")
        np.put_along_axis(perms[:, m, :], order_e.astype(np.uint8),
                          order_o.astype(np.uint8), axis=1)
        se = np.take_along_axis(ek, order_e, axis=1)
        so = np.take_along_axis(ok, order_o, axis=1)
        dup = (se[:, 1:] == se[:, :-1]).any(axis=1)
        partial = ~rotx_known[:, sl].all(axis=1)
        clean_bad = (se != so).any(axis=1) & ~dup & ~partial
        if clean_bad.any():
            k = int(np.nonzero(clean_bad)[0][0])
            raise AttackFailed("byte-swap", f"block {k} half {m}: byte values do not match")
        for k in np.nonzero(dup | partial)[0]:
            _match_half_fallback(int(k), m, ek[k], ok[k], rotx_known[k, sl],
                                 perms, choices)
    return perms, choices


def _match_half_fallback(k: int, m: int, exp_keys: np.ndarray, obs_keys: np.ndarray,
                         row_ok: np.ndarray, perms: np.ndarray,
                         choices: list[_PermChoice]) -> None:
    rows_by_val: dict[int, list[int]] = {}
    for r in range(8):
        if row_ok[r]:
            rows_by_val.setdefault(int(obs_keys[r]), []).append(r)
    srcs_by_val: dict[int, list[int]] = {}
    for s in range(8):
        srcs_by_val.setdefault(int(exp_keys[s]), []).append(s)
    leftover: list[int] = []
    for val, srcs in srcs_by_val.items():
        rows = rows_by_val.get(val, [])
        if len(rows) > len(srcs) or len(srcs) > 2:
            raise AttackFailed("byte-swap",
                               f"block {k} half {m}: byte value multiplicity mismatch")
        for s, r in zip(srcs, rows):
            perms[k, m, s] = r
        leftover.extend(srcs[len(rows):])
        if len(srcs) == 2:
            # equal probe values: the two sources are interchangeable here
            choices.append(_PermChoice(k, (m, srcs[0]), (m, srcs[1])))
    unknown_rows = [r for r in range(8) if not row_ok[r]]
    if len(leftover) != len(unknown_rows) or len(leftover) > 2:
        raise AttackFailed("byte-swap", f"block {k} half {m}: unmatched byte values")
    for s, r in zip(leftover, unknown_rows):
        perms[k, m, s] = r
    if len(leftover) == 2 and exp_keys[leftover[0]] != exp_keys[leftover[1]]:
        choices.append(_PermChoice(k, (m, leftover[0]), (m, leftover[1])))


# ---------------------------------------------------------------------------
# Stage 6: masking part
# ---------------------------------------------------------------------------

def _temp_values(base: bytes, src: np.ndarray, amb: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Absolute expanded bytes of the base plaintext, where derivable."""
    rows = np.frombuffer(base, dtype=np.uint8).reshape(len(src), 15)
    # bit 8 marks a value read from the payload: block 0 inherits the
    # unknown secret byte
    passes = np.where(src >= 0, 0x100 | _payload_at(rows, src).astype(np.uint16), 0)
    first = expansion_chain(0, passes, keep=src < 0)
    # an ambiguous block keeps a known value only when both candidate
    # positions agree on it; otherwise the chain is lost until the next
    # payload source
    lost = (amb >= 0) & ((first < 0x100) | (_payload_at(rows, amb) != (first & 0xFF)))
    vals = expansion_chain(0, passes, keep=(src < 0) & ~lost)
    return (vals & 0xFF).astype(np.uint8), vals >= 0x100


def recover_masking_part(base: bytes, c0: bytes, l_values: np.ndarray,
                         l_candidates: dict[int, frozenset], swap_bits: np.ndarray,
                         perms: np.ndarray, rot_x: np.ndarray, rotx_known: np.ndarray,
                         rot_y: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mask bytes in the frame of the recovered parts, plus validity flags.

    Also returns the plaintext-side frame bytes and their validity so the
    two-way choices left by earlier stages can be re-tested cheaply.
    """
    num = len(base) // 15
    temps, temps_known = _temp_values(base, *_chain_positions(l_values, l_candidates))
    f16 = np.column_stack([np.frombuffer(base, np.uint8).reshape(num, 15), temps])
    f16_known = np.ones((num, 16), dtype=bool)
    f16_known[:, 15] = temps_known
    ghat = to_frame(cross_swap(f16, swap_bits), perms)
    ghat_known = to_frame(cross_swap(f16_known, swap_bits), perms)
    d2 = inverse_rotations(np.frombuffer(c0, np.uint8).reshape(num, 16), rot_y, rot_x)
    seed = ghat ^ d2
    seed_known = ghat_known & rotx_known
    return seed, seed_known, ghat, d2


def _mask_structure_scores(seeds: np.ndarray, known_row: np.ndarray) -> np.ndarray:
    """Complement-class counts of masks that share one known row: per
    (16,) mask of ``seeds``, (plane words, known bytes).

    A correctly recovered mask is built from two 16-bit plane seeds, so its
    eight bit-plane words fall into at most two complement classes and its
    sixteen bytes into at most two as well; a mis-assigned byte pair strictly
    increases at least one count unless the two bytes differ in one of four
    degenerate patterns.  Scores stay valid under any cyclic re-indexing of
    the byte positions.
    """
    words, full = plane_words(seeds, known_row)
    return np.stack([complement_classes(words, full[..., None]),
                     complement_classes(seeds[..., known_row], 0xFF)], axis=-1)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _xor(a: bytes, b: bytes) -> bytes:
    return (np.frombuffer(a, np.uint8) ^ np.frombuffer(b, np.uint8)).tobytes()


def _resolve_choices(choices: list[_PermChoice], ek: EquivalentKey,
                     ghat: np.ndarray, d2: np.ndarray) -> None:
    """Settle two-way assignments using the mask's complement-class structure.

    The correct assignment never has more plane or byte classes than the
    wrong one, so the hypothesis with the lexicographically smaller score
    wins; a tie with differing bytes is flagged, a tie with equal bytes is
    harmless either way.
    """
    unreliable = set(ek.unreliable_blocks)
    for k, (h1, s1), (h2, s2) in choices:
        r1, r2 = 8 * h1 + int(ek.perms[k, h1, s1]), 8 * h2 + int(ek.perms[k, h2, s2])
        swapped = ghat[k].copy()
        swapped[[r1, r2]] = swapped[[r2, r1]]
        score_cur, score_swp = _mask_structure_scores(
            np.stack([ghat[k], swapped]) ^ d2[k], ek.seed_known[k]).tolist()
        if score_swp < score_cur:
            ghat[k] = swapped
            ek.seed_star[k] = swapped ^ d2[k]
            if h1 != h2:
                ek.swap_bits[k, 7] ^= 1
            else:
                ek.perms[k, h1, [s1, s2]] = ek.perms[k, h1, [s2, s1]]
        elif score_cur == score_swp and ghat[k, r1] != ghat[k, r2]:
            unreliable.add(k)
            continue
        if h1 != h2:
            ek.swap_known[k, 7] = True
    ek.unreliable_blocks = frozenset(unreliable)


def run_attack(oracle: EncryptionOracle, base: bytes) -> EquivalentKey:
    """Run the full attack with exactly seven oracle queries."""
    if len(base) % 15 != 0:
        raise NonDivisibleLength(f"base plaintext length {len(base)} not divisible by 15")
    num = len(base) // 15
    if num == 0:
        raise NonDivisibleLength("base plaintext must contain at least one block")
    base = bytes(base)

    def query(stage: str, plaintext: bytes) -> bytes:
        out = oracle(plaintext)
        if len(out) != 16 * num:
            raise AttackFailed(stage, f"oracle returned {len(out)} bytes, "
                                      f"expected {16 * num}")
        return out

    c0 = query("oracle", base)
    d1, d2 = gen_expansion_differentials(num)
    c1 = _xor(query("expansion", _xor(base, d1)), c0)
    c2 = _xor(query("expansion", _xor(base, d2)), c0)
    l_values, l_candidates = recover_expansion_indices(d1, d2, c1, c2)

    rows_a, deltas_a = _build_swap_differential(l_values, l_candidates, target_low=True)
    rows_b, deltas_b = _build_swap_differential(l_values, l_candidates, target_low=False)
    c3 = _xor(query("swap-bits", _xor(base, rows_a.tobytes())), c0)
    c4 = _xor(query("swap-bits", _xor(base, rows_b.tobytes())), c0)
    swap_bits, swap_known = _recover_swap_bits(c3, c4, deltas_a, deltas_b)

    d5, chosen_rows, types = gen_vertical_differential(l_values, l_candidates)
    c5 = _xor(query("vertical", _xor(base, d5)), c0)
    rot_y = recover_vertical_part(c5, chosen_rows, types)

    d6, zero_positions = gen_horizontal_differential(l_values, l_candidates)
    c6 = _xor(query("horizontal", _xor(base, d6)), c0)
    rot_x, rotx_known = recover_horizontal_part(c6, rot_y, swap_bits, zero_positions)

    perms, choices = recover_byteswap_part(d1, d2, c1, c2, l_values, l_candidates,
                                           swap_bits, rot_x, rotx_known, rot_y)
    for k in np.nonzero(~swap_known[:, 7])[0]:
        choices.append(_PermChoice(int(k), (0, 7), (1, 7)))

    seed, seed_known, ghat, d2abs = recover_masking_part(
        base, c0, l_values, l_candidates, swap_bits, perms, rot_x, rotx_known, rot_y)

    ek = EquivalentKey(num, l_values, l_candidates, swap_bits, swap_known,
                       perms, seed, seed_known, rot_x, rotx_known, rot_y)
    _resolve_choices(choices, ek, ghat, d2abs)
    return ek

