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

Stages 2-6 share one chain form of stage 1's answer, built and checked once:
per block, the payload position it hands down the expansion chain and the
payload member of its candidate set where ambiguous (``_chain_positions``).

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

_SINGLE = np.full(256, -1, dtype=np.int8)
for _i in range(8):
    _SINGLE[1 << _i] = _i

# Sign patterns of four pair deltas: row p holds bit_i(p), and its signs
# are (1 - 2*bit_i(p)).
_PATTERN_BITS = (np.arange(16)[:, None] >> np.arange(4)) & 1

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

# the expansion probes' weights repeat every 648 bytes, so their block sums
# repeat every 216 blocks (15 * 216 = 5 * 648)
_WEIGHT_PERIOD = 648
_BLOCK_PERIOD = 216
_WEIGHT_BYTES = np.array([_weight_byte(w) for w in range(9)], dtype=np.uint8)


def expansion_weight_tables(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-byte weights of the two expansion-probing differentials.

    The second sequence cycles 0..8 with period 9.  The first runs nine of
    each weight 0..8 (period 81) except on the positions where the second
    sequence is 0: those take a period-8 ramp over weights 1..8 instead, so
    no position carries the pair (0, 0).  Within any 15-byte window all 15
    weight pairs are distinct, and equal pairs are at least 72 positions
    apart, so only an expansion chain at least four blocks deep can make the
    inherited pair collide with a payload pair.  Both sequences repeat
    every lcm(81, 72) = 648 positions, and are tiled from one period.
    """
    idx = np.arange(_WEIGHT_PERIOD)
    w1 = (idx % 81) // 9
    mult9 = idx % 9 == 0
    w1[mult9] = (idx[mult9] // 9) % 8 + 1
    w2 = idx % 9
    return np.resize(w1.astype(np.uint8), length), np.resize(w2.astype(np.uint8), length)


def gen_expansion_differentials(num_blocks: int) -> tuple[bytes, bytes]:
    """The two plaintext differentials that break the data expansion."""
    w1, w2 = expansion_weight_tables(15 * num_blocks)
    return np.take(_WEIGHT_BYTES, w1).tobytes(), np.take(_WEIGHT_BYTES, w2).tobytes()


def _half_weights(cdiff: bytes) -> np.ndarray:
    """(B, 2) int32: the Hamming weight of each 8-byte half of each block."""
    return np.bitwise_count(np.frombuffer(cdiff, dtype="<u8")).reshape(-1, 2).astype(np.int32)


def _expanded_weight_deltas(w: np.ndarray, cdiff: bytes) -> np.ndarray:
    """Per block, the weight the expanded byte contributed to the ciphertext.

    ``w`` is the probe's (B, 15) weight table.
    """
    if len(cdiff) != 16 * len(w):
        raise AttackFailed("expansion", "ciphertext differential has the wrong length")
    payload = np.resize(w[:_BLOCK_PERIOD].sum(axis=1, dtype=np.int32), len(w))
    halves = _half_weights(cdiff)
    e = halves[:, 0] + halves[:, 1] - payload
    if ((e < 0) | (e > 8)).any():
        raise AttackFailed("expansion", "expanded-byte weight outside 0..8")
    return e


def _expansion_probe_weights(c1diff: bytes, c2diff: bytes
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (B, 15) weight tables of the two expansion probes that gave these
    ciphertext differentials, and each block's (B,) expanded weights."""
    num = len(c1diff) // 16
    w1, w2 = (w.reshape(num, 15) for w in expansion_weight_tables(15 * num))
    return w1, w2, _expanded_weight_deltas(w1, c1diff), _expanded_weight_deltas(w2, c2diff)


def recover_expansion_indices(c1diff: bytes, c2diff: bytes
                              ) -> tuple[np.ndarray, dict[int, frozenset]]:
    """l(k) per block, plus the candidate sets of the ambiguous blocks, from
    the ciphertext differentials of ``gen_expansion_differentials``."""
    w1, w2, e1, e2 = _expansion_probe_weights(c1diff, c2diff)
    if e1[0] != 0 or e2[0] != 0:
        raise AttackFailed("expansion", "block 0 must have a zero expanded differential")
    return match_expansion_weights(w1, w2, e1, e2)


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


def _build_swap_differential(src: np.ndarray, amb: np.ndarray, target_low: bool
                             ) -> tuple[np.ndarray, np.ndarray]:
    """One swap-probing differential (payload rows) plus its (B, 4) pair deltas.

    The probe targets pairs 0-3 when ``target_low``, else pairs 4-7.  Every
    byte of the probe is a weight byte 2^w - 1, so the inherited byte is one
    of nine states: each block's row is looked up by its inherited weight,
    and the weights come from one next-state table scan.
    """
    table = _SWAP_ROWS[target_low]
    # passed[k, w]: the weight block k hands on when it inherits weight w
    passed = np.bitwise_count(table[:, amb + 1, np.maximum(src, 0)]).T
    weights = expansion_chain(0, np.where(src[:, None] >= 0, passed,
                                          np.arange(9, dtype=np.uint8)))
    rows = table[weights, amb + 1]
    pairs = np.arange(4) + (0 if target_low else 4)
    row_weights = np.bitwise_count(rows).astype(np.int16)
    deltas = row_weights[:, pairs] - row_weights[:, pairs + 8]
    return rows[:, :15], deltas


def decode_pair_deltas(deltas: np.ndarray, observed: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The four swap bits per block whose signed delta sum gives ``observed``.

    ``deltas`` is (B, 4) and ``observed`` (B,); a set bit i flips the sign
    of delta i.  Returns (B, 4) uint8 bits and a (B, 4) bool known mask: a
    bit is known when every matching sign pattern agrees on it, and reads
    0 otherwise.
    """
    # row p: the signed sum of sign pattern p; setting bit i of p subtracts
    # twice delta i
    d = deltas.T.astype(np.int16)
    sums = np.empty((16, len(observed)), dtype=np.int16)
    sums[0] = d[0] + d[1] + d[2] + d[3]
    for i in range(4):
        sums[1 << i:2 << i] = sums[:1 << i] - 2 * d[i]
    match = (sums == observed).view(np.uint8)  # (16, B)
    count = np.add.reduce(match, axis=0, dtype=np.uint8)
    if (count == 0).any():
        k = int(np.argmax(count == 0))
        raise AttackFailed("swap-bits", f"block {k}: observed half-weight delta "
                                        f"{int(observed[k])} not decodable")
    # matching patterns setting bit i
    ones = np.stack([np.add.reduce(match[_PATTERN_BITS[:, i] == 1], axis=0, dtype=np.uint8)
                     for i in range(4)], axis=1)
    bits = ones == count[:, None]
    return bits.astype(np.uint8), bits | (ones == 0)


def _half_weight_delta(cdiff: bytes) -> np.ndarray:
    w = _half_weights(cdiff)
    return w[:, 0] - w[:, 1]


def _recover_swap_bits(c3diff: bytes, c4diff: bytes, deltas_a: np.ndarray,
                       deltas_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eight swap bits and their known mask from the two swap probes."""
    bits_a, known_a = decode_pair_deltas(deltas_a, _half_weight_delta(c3diff))
    bits_b, known_b = decode_pair_deltas(deltas_b, _half_weight_delta(c4diff))
    return np.hstack([bits_a, bits_b]), np.hstack([known_a, known_b])


# ---------------------------------------------------------------------------
# Stages 3-4: rotation parts
# ---------------------------------------------------------------------------

def gen_vertical_differential(src: np.ndarray, amb: np.ndarray
                              ) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Probe differential for the vertical part plus (chosen rows, pattern types).

    Each half carries a single 255 among 0s (type 0) or a single 0 among
    255s (type 1) at the chosen row, so the first-8 swaps, which exchange
    bytes p and p+8, leave it in place.  The type follows the inherited
    chain value so the expanded byte always fits the pattern: every block
    complements the byte it hands on or not, an XOR scan.
    """
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
    cols ^= (types * 0xFF)[:, None]  # a type-1 column carries its single 0
    pos = np.take(_SINGLE, cols)
    if (pos < 0).any():
        k, p = np.argwhere(pos < 0)[0]
        raise AttackFailed("vertical",
                           f"block {k} half {p // 8} column {p % 8} is not single-bit")
    return (pos.view(np.uint8) - chosen_rows[:, None]) & 7


def gen_horizontal_differential(src: np.ndarray, amb: np.ndarray) -> tuple[bytes, np.ndarray]:
    """All-0x01 probe differential; returns it plus the (B,) ``dark`` mask.

    A block is dark while the chain is still rooted in block 0: its expanded
    byte inherits a zero differential, which only ever affects the discarded
    byte.  That holds only while every earlier block has l = 15, so a dark
    block inherits the weight pair (0, 0), which no payload position
    carries; the matcher therefore never makes a dark block ambiguous, and
    its payload is all 0x01.
    """
    inherited = expansion_chain(0, (src >= 0).astype(np.uint8), keep=src < 0)
    payload = np.ones((len(src), 15), dtype=np.uint8)
    k = np.nonzero(amb >= 0)[0]
    payload[k, amb[k]] = inherited[k]
    return payload.tobytes(), inherited == 0


def recover_horizontal_part(c6diff: bytes, rot_y: np.ndarray,
                            swap_bits: np.ndarray, dark: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per block, 16 row amounts in the vertical part's frame, plus validity."""
    arr = np.frombuffer(c6diff, dtype=np.uint8).reshape(-1, 16)
    d1 = inverse_rotations(arr, rot_y)
    pos = np.take(_SINGLE, d1)
    known = pos >= 0
    bad = ~known & (d1 != 0)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise AttackFailed("horizontal", f"block {k} row {i} is neither single-bit nor empty")
    # a zero row must appear exactly where a dark block's byte 15 landed:
    # in half 1, or in half 0 when swap bit 7 moved it across
    expected = (dark[:, None] & (swap_bits[:, 7:8] == [1, 0])).astype(np.int64)
    got = np.bitwise_count((~known).view("<u8"))  # each half's unknown rows
    if (expected != got).any():
        k = int(np.nonzero((expected != got).any(axis=1))[0][0])
        raise AttackFailed("horizontal",
                           f"block {k}: zero-row count mismatch {got[k]} != {expected[k]}")
    return pos.view(np.uint8) & 7, known


# ---------------------------------------------------------------------------
# Stage 5: within-half byte-swap part
# ---------------------------------------------------------------------------

class _PermChoice(NamedTuple):
    """An unresolved two-way assignment in one block: two (half, source row)
    bytes that may trade frame rows.  Bytes 7 and 15 sit in two halves and
    trade them through the unknown swap bit 11."""
    block: int
    first: tuple[int, int]
    second: tuple[int, int]


def _any8(flags: np.ndarray) -> np.ndarray:
    """Whether any of the last axis' eight flags is set, read as one word."""
    return np.ascontiguousarray(flags).view("<u8")[..., 0] != 0


def _sort_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the last axis' eight keys: the sorted keys and their rows.

    Each key is packed with its row below it, so one sort puts equal keys
    in row order, as a stable argsort would; keys must fit in 28 bits.
    """
    packed = keys << 3
    packed |= np.arange(8, dtype=keys.dtype)
    packed.sort(axis=-1)
    rows = packed & 7
    packed >>= 3
    return packed, rows


def recover_byteswap_part(c1diff: bytes, c2diff: bytes, swap_bits: np.ndarray,
                          rot_x: np.ndarray, rotx_known: np.ndarray, rot_y: np.ndarray
                          ) -> tuple[np.ndarray, list[_PermChoice]]:
    """Per block, the two within-half permutations (source row -> frame row).

    Every byte of the stage-1 probes is a weight byte 2^w - 1, and stage 1
    accepted each l only where its weight pair equals the next block's
    observed one, so each block's inherited differential byte is 2^e - 1
    for its observed expanded weight e.
    """
    num = len(c1diff) // 16
    w1, w2, e1, e2 = _expansion_probe_weights(c1diff, c2diff)
    # per byte, (value under d1) << 8 | (value under d2), expected and observed
    exp_keys = np.zeros((num, 16), dtype=np.int32)
    obs_keys = np.zeros((num, 16), dtype=np.int32)
    for w, e, c in ((w1, e1, c1diff), (w2, e2, c2diff)):
        f16 = np.empty((num, 16), dtype=np.uint8)
        f16[:, :15] = np.take(_WEIGHT_BYTES, w)
        f16[:, 15] = np.take(_WEIGHT_BYTES, e)
        exp_keys <<= 8
        exp_keys |= cross_swap(f16, swap_bits)
        obs_keys <<= 8
        obs_keys |= inverse_rotations(np.frombuffer(c, np.uint8).reshape(num, 16), rot_y, rot_x)
    exp_sorted, sources = _sort_rows(exp_keys.reshape(num, 2, 8))
    obs_sorted, rows = _sort_rows(obs_keys.reshape(num, 2, 8))
    # the j-th smallest source row of each half goes to its j-th smallest
    # frame row; the flat indices stay int32, which indexing casts in chunks
    sources += np.arange(0, 16 * num, 8, dtype=np.int32).reshape(num, 2, 1)
    perms = np.empty(16 * num, dtype=np.uint8)
    perms[sources] = rows
    perms = perms.reshape(num, 2, 8)
    dup = np.zeros((num, 2, 8), dtype=bool)
    np.equal(exp_sorted[..., 1:], exp_sorted[..., :-1], out=dup[..., 1:])
    fallback = _any8(dup) | _any8(~rotx_known.reshape(num, 2, 8))
    clean_bad = _any8(exp_sorted != obs_sorted) & ~fallback
    choices: list[_PermChoice] = []
    for m in (0, 1):
        if clean_bad[:, m].any():
            k = int(np.nonzero(clean_bad[:, m])[0][0])
            raise AttackFailed("byte-swap", f"block {k} half {m}: byte values do not match")
        sl = slice(8 * m, 8 * m + 8)
        for k in np.nonzero(fallback[:, m])[0]:
            _match_half_fallback(int(k), m, exp_keys[k, sl], obs_keys[k, sl],
                                 rotx_known[k, sl], perms, choices)
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


def recover_masking_part(base: bytes, c0: bytes, src: np.ndarray, amb: np.ndarray,
                         swap_bits: np.ndarray, perms: np.ndarray, rot_x: np.ndarray,
                         rotx_known: np.ndarray, rot_y: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mask bytes in the frame of the recovered parts, plus validity flags.

    Also returns the plaintext-side frame bytes and their validity so the
    two-way choices left by earlier stages can be re-tested cheaply.
    """
    num = len(base) // 15
    temps, temps_known = _temp_values(base, src, amb)
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
    wrong one, so only a strictly smaller score settles a choice.  A tie is
    flagged, also between equal bytes: the two sources still trade rows in
    decryption.  So is a choice through a row whose mask byte is unknown:
    that row's plaintext byte is unknown too, and the score would see one
    changed byte, which can leave both counts as they are.
    """
    unreliable = set(ek.unreliable_blocks)
    for k, (h1, s1), (h2, s2) in choices:
        r1, r2 = 8 * h1 + int(ek.perms[k, h1, s1]), 8 * h2 + int(ek.perms[k, h2, s2])
        if not (ek.seed_known[k, r1] and ek.seed_known[k, r2]):
            unreliable.add(k)
            continue
        swapped = ghat[k].copy()
        swapped[[r1, r2]] = swapped[[r2, r1]]
        score_cur, score_swp = _mask_structure_scores(
            np.stack([ghat[k], swapped]) ^ d2[k], ek.seed_known[k]).tolist()
        if score_cur == score_swp:
            unreliable.add(k)
            continue
        if score_swp < score_cur:
            ghat[k] = swapped
            ek.seed_star[k] = swapped ^ d2[k]
            if h1 != h2:
                ek.swap_bits[k, 7] ^= 1
            else:
                ek.perms[k, h1, [s1, s2]] = ek.perms[k, h1, [s2, s1]]
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

    def probe(stage: str, diff: bytes) -> bytes:  # the ciphertext differential
        return _xor(query(stage, _xor(base, diff)), c0)

    c0 = query("oracle", base)
    d1, d2 = gen_expansion_differentials(num)
    c1, c2 = probe("expansion", d1), probe("expansion", d2)
    l_values, l_candidates = recover_expansion_indices(c1, c2)
    src, amb = _chain_positions(l_values, l_candidates)

    rows_a, deltas_a = _build_swap_differential(src, amb, target_low=True)
    rows_b, deltas_b = _build_swap_differential(src, amb, target_low=False)
    c3, c4 = probe("swap-bits", rows_a.tobytes()), probe("swap-bits", rows_b.tobytes())
    swap_bits, swap_known = _recover_swap_bits(c3, c4, deltas_a, deltas_b)

    d5, chosen_rows, types = gen_vertical_differential(src, amb)
    rot_y = recover_vertical_part(probe("vertical", d5), chosen_rows, types)

    d6, dark = gen_horizontal_differential(src, amb)
    rot_x, rotx_known = recover_horizontal_part(probe("horizontal", d6), rot_y,
                                                swap_bits, dark)

    perms, choices = recover_byteswap_part(c1, c2, swap_bits, rot_x, rotx_known, rot_y)
    for k in np.nonzero(~swap_known[:, 7])[0]:
        choices.append(_PermChoice(int(k), (0, 7), (1, 7)))

    seed, seed_known, ghat, d2abs = recover_masking_part(
        base, c0, src, amb, swap_bits, perms, rot_x, rotx_known, rot_y)

    ek = EquivalentKey(num, l_values, l_candidates, swap_bits, swap_known,
                       perms, seed, seed_known, rot_x, rotx_known, rot_y)
    _resolve_choices(choices, ek, ghat, d2abs)
    return ek
