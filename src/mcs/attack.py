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

Stage 1 keeps both probes' weights as one (2, B, 16) table, with each
block's observed expanded weight in byte 15, and stage 5 reads it too.
Stages 2-6 share one chain form of stage 1's answer, built and checked once:
per block, the payload position it hands down the expansion chain and the
payload member of its candidate set where ambiguous (``_chain_positions``).
Stages 2, 3, 4 and 6 are one function each (``_swap_bits_stage``,
``_vertical_stage``, ``_horizontal_stage``, ``_masking_stage``) that builds,
sends and reads its own probe, so a probe's arrays die with its stage.

All recovered rotation/permutation/mask items live in a per-block "EES
frame" that is a cyclic re-indexing of the true one by an unknowable
per-half offset; the offsets cancel when the parts are composed, so
decryption of payload bytes is exact.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .cipher import (
    _FRAME_SLICE,
    EquivalentKey,
    _rotate_columns,
    _rotate_rows,
    _transpose_halves,
    column_keeps,
    complement_classes,
    cross_swap,
    expansion_chain,
    last_dropped,
    pack_rows,
    plane_words,
)
# ees_decrypt lives with the cipher; mcsbench's image-break workload reads it here.
from .cipher import ees_decrypt  # noqa: F401
from .errors import AttackFailed, NonDivisibleLength

EncryptionOracle = Callable[[bytes], bytes]
Probe = Callable[[str, np.ndarray], np.ndarray]  # (stage, plaintext diff) -> cipher diff

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

_BLOCK_PERIOD = 216


def _weight_periods() -> np.ndarray:
    """(2, 216, 16) uint8: one period of each expansion probe's per-byte weights, by
    block, with 0 at the expanded byte 15.

    The second sequence cycles 0..8 with period 9.  The first runs nine of
    each weight 0..8 (period 81) except on the positions where the second
    sequence is 0: those take a period-8 ramp over weights 1..8 instead, so
    no position carries the pair (0, 0).  Within any 15-byte window all 15
    weight pairs are distinct, and equal pairs are at least 72 positions
    apart, so only an expansion chain at least four blocks deep can make the
    inherited pair collide with a payload pair.  Both sequences repeat
    every lcm(81, 72) = 648 positions, so by block every 216 blocks
    (15 * 216 = 5 * 648).
    """
    block, byte = np.ogrid[:_BLOCK_PERIOD, :16]
    idx = 15 * block + byte  # the message position of each payload byte
    w1 = np.where(idx % 9 == 0, (idx // 9) % 8 + 1, (idx % 81) // 9)
    return (np.stack([w1, idx % 9]) * (byte < 15)).astype(np.uint8)


_PERIOD_WEIGHTS = _weight_periods()
# each probe's payload bytes 2^w - 1, and its payload weight in each block
_PERIOD_BYTES = np.array([_weight_byte(w) for w in range(9)], np.uint8)[_PERIOD_WEIGHTS[..., :15]]
_PERIOD_BLOCK_WEIGHTS = _PERIOD_WEIGHTS.sum(axis=2, dtype=np.uint8)


def _tile_blocks(period: np.ndarray, num_blocks: int) -> np.ndarray:
    """A fresh copy of a (2, 216, ...) period table repeated over ``num_blocks`` blocks."""
    return np.concatenate([period] * -(-num_blocks // _BLOCK_PERIOD), axis=1)[:, :num_blocks]


def expansion_weight_tables(num_blocks: int) -> np.ndarray:
    """(2, B, 16) uint8: the per-byte weights of the two expansion-probing
    differentials by block, with 0 at the expanded byte 15."""
    return _tile_blocks(_PERIOD_WEIGHTS, num_blocks)


def gen_expansion_differentials(num_blocks: int) -> np.ndarray:
    """(2, B, 15) uint8: the two differentials that break the data expansion."""
    return _tile_blocks(_PERIOD_BYTES, num_blocks)


def expansion_probe_weights(c1diff: np.ndarray, c2diff: np.ndarray) -> np.ndarray:
    """(2, B, 16) uint8: the weight tables of the two expansion probes that gave
    these (B, 16) ciphertext differentials, with each block's observed expanded
    weight at byte 15 (0 in block 0)."""
    num = len(c1diff)
    weights = expansion_weight_tables(num)
    # each block's weight beyond its payload's, in uint8: a negative one wraps above 8
    halves = [np.bitwise_count(c.view("<u8")) for c in (c1diff, c2diff)]
    expanded = weights[..., 15]
    np.subtract([h[:, 0] + h[:, 1] for h in halves], _tile_blocks(_PERIOD_BLOCK_WEIGHTS, num),
                out=expanded)
    bad = (expanded > 8).any(axis=0)
    if bad.any():
        raise AttackFailed("expansion", f"block {int(np.argmax(bad))}: "
                                        "expanded-byte weight outside 0..8")
    if expanded[:, 0].any():
        raise AttackFailed("expansion", "block 0 must have a zero expanded differential")
    return weights


def match_expansion_weights(weights: np.ndarray) -> tuple[np.ndarray, dict[int, frozenset]]:
    """Match each block's expanded weight pair against the previous block's.

    ``weights`` is (2, B, 16): per block, the weights of the two differentials
    at its 15 payload bytes and at its expanded byte (position 15).  Block k's
    expanded pair is looked up among block k-1's 16 pairs.  ``l_values`` is
    int16 with -1 where a block is ambiguous and for the last block, whose
    index no ciphertext shows; ``l_candidates`` maps each ambiguous block to
    its candidate positions.
    """
    # weights are at most 8, so a (d1, d2) weight pair fits in a byte
    pairs = weights[0] << 4 | weights[1]
    hit = pairs[:-1] == pairs[1:, 15:]
    # bit p of block k's word: position p of block k matches block k + 1
    words = pack_rows(hit).view("<u2")[:, 0]
    if not words.all():
        k = int(np.argmin(words)) + 1
        raise AttackFailed("expansion", f"no position of block {k - 1} matches block {k}")
    total = np.bitwise_count(words)
    l_values = np.full(len(pairs), -1, dtype=np.int16)
    # a single match at position p leaves p ones below it
    l_values[:-1] = np.where(total > 1, np.int16(-1), np.bitwise_count(words - 1))
    l_candidates = {int(k): frozenset(np.flatnonzero(hit[k]).tolist())
                    for k in np.flatnonzero(total > 1)}
    return l_values, l_candidates


def _payload_at(rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """rows[k, pos[k]] for every block, 0 where pos[k] < 0."""
    return np.where(pos >= 0, np.take(rows, np.arange(0, rows.size, rows.shape[1]) + pos), 0)


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


def _swap_tables(target_low: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_swap_row`` for every inherited weight w and candidate amb_c: the (256, 9)
    weights a block hands on, at (amb_c + 1) * 16 + src + 1 (src -1 hands w on),
    and the (144, 15) rows and (144, 4) pair deltas, at w * 16 + amb_c + 1."""
    table = np.array([[_swap_row(w, c, target_low) for c in range(-1, 15)] for w in range(9)],
                     dtype=np.uint8)
    weights = np.bitwise_count(table).astype(np.int16)
    passes = np.concatenate([np.broadcast_to(np.arange(9), (16, 1, 9)),
                             weights[..., :15].transpose(1, 2, 0)], axis=1).astype(np.uint8)
    pairs = np.arange(4) + (0 if target_low else 4)
    return (passes.reshape(256, 9), table[..., :15].reshape(144, 15),
            (weights[..., pairs] - weights[..., pairs + 8]).reshape(144, 4))


_SWAP_TABLES = (_swap_tables(True), _swap_tables(False))  # probes on pairs 0-3, then 4-7


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
    d = np.ascontiguousarray(deltas.T, dtype=np.int16)
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
    # matching patterns setting bit i: the rows p, in runs of 2^i, with bit i set
    ones = np.stack([np.add.reduce(match.reshape(8 >> i, 2, 1 << i, -1)[:, 1], axis=(0, 1),
                                   dtype=np.uint8) for i in range(4)], axis=1)
    bits = ones == count[:, None]
    return bits.astype(np.uint8), bits | (ones == 0)


def _swap_bits_stage(probe: Probe, src: np.ndarray, amb: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The eight swap bits per block and their known mask, from two probes.

    The first probe targets pairs 0-3, the second pairs 4-7.  Every byte of a
    probe is a weight byte 2^w - 1, so the inherited byte is one of nine
    states: each block's row and pair deltas are looked up by its inherited
    weight, and the weights come from one next-state table scan.  Both probes
    are sent before either answer is decoded.
    """
    probes = []
    for passes, rows, deltas in _SWAP_TABLES:
        weights = expansion_chain(0, np.take(passes, (amb + 1) * 16 + src + 1, axis=0))
        at = weights * np.int16(16) + (amb + 1)
        probes.append((np.take(rows, at, axis=0), np.take(deltas, at, axis=0)))
    observed = [np.subtract(*np.bitwise_count(probe("swap-bits", rows).view("<u8")).T,
                            dtype=np.int16) for rows, _ in probes]
    decoded = [decode_pair_deltas(deltas, obs) for (_, deltas), obs in zip(probes, observed)]
    # the two probes' (B, 4) halves side by side, each row moved as one 32-bit word
    return tuple(np.column_stack([h.view("<u4")[:, 0] for h in halves]).view(halves[0].dtype)
                 for halves in zip(*decoded))


# ---------------------------------------------------------------------------
# Stages 3-4: rotation parts
# ---------------------------------------------------------------------------

def _vertical_stage(probe: Probe, src: np.ndarray, amb: np.ndarray) -> np.ndarray:
    """Per block, 16 column amounts (true amount plus the half's offset).

    Each half of the probe carries a single 255 among 0s (type 0) or a single
    0 among 255s (type 1) at the chosen row, so the first-8 swaps, which
    exchange bytes p and p+8, leave it in place.  The type follows the
    inherited chain value so the expanded byte always fits the pattern: every
    block complements the byte it hands on or not, an XOR scan.
    """
    chosen_rows = (amb % 8 == 0).astype(np.uint8)  # avoid an ambiguous candidate's row
    # a block hands on 255 where its payload source sits at its chosen row
    passes = ((src >= 0) & (src % 8 == chosen_rows)).view(np.uint8) * np.uint8(255)
    types = expansion_chain(0, passes, last_dropped(np.ones(len(src), bool))) & 1
    patterns = (np.arange(15) % 8 == np.arange(2)[:, None]) * np.uint8(255)  # types 0, rows 0-1
    payload = np.take(np.concatenate([patterns, ~patterns]), 2 * types + chosen_rows, axis=0)
    cols = _transpose_halves(probe("vertical", payload).reshape(-1, 8)).reshape(-1, 16)
    cols ^= (types * 0xFF)[:, None]  # a type-1 column carries its single 0
    bad = np.bitwise_count(cols) != 1
    if bad.any():
        k, p = np.argwhere(bad)[0]
        raise AttackFailed("vertical",
                           f"block {k} half {p // 8} column {p % 8} is not single-bit")
    return (np.bitwise_count(cols - 1) - chosen_rows[:, None]) & 7  # ones below the bit


def _horizontal_stage(probe: Probe, src: np.ndarray, amb: np.ndarray, swap_bits: np.ndarray,
                      rot_y: np.ndarray, c1: np.ndarray, c2: np.ndarray, c0: np.ndarray
                      ) -> tuple[np.ndarray, ...]:
    """Per block, 16 row amounts in the vertical part's frame and their validity,
    then ``c1``, ``c2`` and ``c0`` with both rotation parts undone.

    The probe is all 0x01.  A block is dark while the chain is still rooted in
    block 0: its expanded byte inherits a zero differential, which only ever
    affects the discarded byte.  That holds only while every earlier block
    has l = 15, so a dark block inherits the weight pair (0, 0), which no
    payload position carries; the matcher therefore never makes a dark block
    ambiguous, and its payload is all 0x01.
    """
    inherited = expansion_chain(0, (src >= 0).astype(np.uint8), last_dropped(src < 0))
    payload = np.ones((len(src), 15), dtype=np.uint8)
    k = np.nonzero(amb >= 0)[0]
    payload[k, amb[k]] = inherited[k]
    keeps = column_keeps(rot_y)
    cols = _rotate_columns(probe("horizontal", payload), keeps, inverse=True)
    ones = np.bitwise_count(cols)
    known = ones == 1
    bad = ones > 1
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise AttackFailed("horizontal", f"block {k} row {i} is neither single-bit nor empty")
    # a zero row must appear exactly where a dark block's byte 15 landed:
    # in half 1, or in half 0 when swap bit 7 moved it across
    expected = ((inherited == 0)[:, None] & (swap_bits[:, 7:8] == [1, 0])).astype(np.int64)
    got = np.bitwise_count((~known).view("<u8"))  # each half's unknown rows
    if (expected != got).any():
        k = int(np.nonzero((expected != got).any(axis=1))[0][0])
        raise AttackFailed("horizontal",
                           f"block {k}: zero-row count mismatch {got[k]} != {expected[k]}")
    # one bit's column = the ones below it, its back-amount = the ones from it up (mod 8)
    below = (cols - 1) & 0x7F
    rot_x, back = np.bitwise_count(below), np.bitwise_count(~below) & 7
    # undo both rotation parts of what stages 5 and 6 read, one answer at a time
    return rot_x, known, *(_rotate_rows(_rotate_columns(c, keeps, inverse=True), back, rot_x)
                           for c in (c1, c2, c0))


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


# an optimal sorting network for eight keys: 19 comparators in 6 layers
_SORT8 = ((0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3),
          (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6))


def _sorted_lanes(keys: np.ndarray) -> np.ndarray:
    """Sort each run of eight keys (of at most 13 bits): (8, n) uint16 lanes, lane j
    holding the j-th smallest key of each of the n runs, packed with its row below it.

    The rows make equal keys come out in row order, as a stable argsort would.  The
    network runs on contiguous lanes, one per position: numpy sorts short rows slowly.
    """
    lanes = keys.reshape(-1, 8).T.astype(np.uint16, order="C")
    lanes <<= 3
    lanes |= np.arange(8, dtype=np.uint16)[:, None]
    return _sort_lanes(lanes)


def _sort_lanes(lanes: np.ndarray) -> np.ndarray:
    """Sort the eight lanes of (8, n) uint16 in place, column by column."""
    for i, j in _SORT8:
        low = np.minimum(lanes[i], lanes[j])
        np.maximum(lanes[i], lanes[j], out=lanes[j])
        lanes[i] = low
    return lanes


def recover_byteswap_part(obs1: np.ndarray, obs2: np.ndarray, weights: np.ndarray,
                          swap_bits: np.ndarray) -> tuple[np.ndarray, list[_PermChoice]]:
    """Per block, the two within-half permutations (source row -> frame row), plus
    a two-way choice for each half where two sources expect the same key.

    ``obs1``/``obs2`` are the stage-1 ciphertext differentials with their rotations
    undone, ``weights`` stage 1's (2, B, 16) ``expansion_probe_weights``. Every byte of the stage-1
    probes is a weight byte 2^w - 1, and stage 1 accepted each l only where its weight
    pair equals the next block's observed one, so each block's inherited differential
    byte is 2^e - 1 for its observed weight e.
    """
    # per byte, w1 * 10 + w2 of its weights under the two probes, expected and
    # observed.  A byte b that is no weight byte has b & (b + 1) != 0: its key
    # gets bit 7, which no expected key (at most 88) has, so it never matches
    exp_keys = cross_swap(weights[0] * 10 + weights[1], swap_bits)
    obs_keys = np.bitwise_count(obs1) * 10 + np.bitwise_count(obs2)
    stray = (obs1 & (obs1 + 1)) | (obs2 & (obs2 + 1))
    obs_keys |= (stray != 0).view(np.uint8) << 7
    # per half, the sorted keys with their source rows, and with their frame rows
    sources, rows = _sorted_lanes(exp_keys), _sorted_lanes(obs_keys)
    # an unknown row is a dark block's byte 15: it reads 0 under both probes and
    # expects key 0, which no payload byte has, so it matches like any other row
    bad = ((sources ^ rows) > 7).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise AttackFailed("byte-swap", f"block {i // 2} half {i % 2}: byte values do not match")
    # only the expanded byte can repeat a payload key, so a half holds at most one
    # equal pair, adjacent and in source order: those two sources may trade rows
    equal = (sources[1:] ^ sources[:-1]) < 8
    halves = np.flatnonzero(equal.any(axis=0))
    at = np.argmax(equal[:, halves], axis=0)
    choices = [_PermChoice(i // 2, (i % 2, s & 7), (i % 2, t & 7)) for i, s, t in zip(
        halves.tolist(), sources[at, halves].tolist(), sources[at + 1, halves].tolist())]
    # the j-th smallest source row of each half goes to its j-th smallest frame
    # row: sorting the sources with their frame rows below puts those in order
    sources <<= 3
    sources &= 0x38
    rows &= 7
    rows |= sources
    perms = (_sort_lanes(rows) & 7).astype(np.uint8).T.copy()  # the copy then moves bytes
    return perms.reshape(-1, 2, 8), choices


# ---------------------------------------------------------------------------
# Stage 6: masking part
# ---------------------------------------------------------------------------

def _temp_values(rows: np.ndarray, src: np.ndarray, amb: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Absolute expanded bytes of the (B, 15) base plaintext, where derivable."""
    # bit 8 marks a value read from the payload: block 0 inherits the
    # unknown secret byte
    passes = np.where(src >= 0, 0x100 | _payload_at(rows, src).astype(np.uint16), 0)
    first = expansion_chain(0, passes, last_dropped(src < 0))
    # an ambiguous block keeps a known value only when both candidate
    # positions agree on it; otherwise the chain is lost until the next
    # payload source
    lost = (amb >= 0) & ((first < 0x100) | (_payload_at(rows, amb) != (first & 0xFF)))
    vals = expansion_chain(0, passes, last_dropped((src < 0) & ~lost))
    return (vals & 0xFF).astype(np.uint8), vals >= 0x100


def _masking_stage(base: np.ndarray, d2: np.ndarray, src: np.ndarray, amb: np.ndarray,
                   swap_bits: np.ndarray, swap_known: np.ndarray, perms: np.ndarray,
                   choices: list[_PermChoice], rotx_known: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, frozenset]:
    """Mask bytes in the frame of the recovered parts, their validity flags and
    the blocks whose two-way choices stay unsettled.

    ``base`` is (B, 15) and ``d2`` its ciphertext with the rotations undone.  The
    plaintext-side frame bytes re-test stage 5's two-way choices and one across
    the halves for each unknown swap bit 7; ``_resolve_choices`` settles them in
    ``swap_bits``, ``swap_known``, ``perms`` and the mask in place.
    """
    num = len(base)
    temps, temps_known = _temp_values(base, src, amb)
    # source byte s of half i (of the 2B halves, in block order) lands at flat frame
    # byte 8i + perms[i, s]; numpy scatters fastest through a flat intp index, built
    # for one slice of blocks at a time
    ghat = np.empty((num, 16), dtype=np.uint8)
    flat, rows = ghat.reshape(-1), perms.reshape(-1)
    crossed = cross_swap(np.column_stack([base, temps]), swap_bits).reshape(-1)
    for start in range(0, 16 * num, 16 * _FRAME_SLICE):
        part = slice(start, start + 16 * _FRAME_SLICE)
        index = np.arange(start, min(part.stop, 16 * num), 8, dtype=np.intp).repeat(8)
        index += rows[part]
        flat[index] = crossed[part]
    del crossed
    # of the plaintext-side bytes only the expanded byte 15 can be unknown; swap bit
    # 7 moves it from half 1 to half 0, where perms sends its source row 7
    row = np.where(swap_bits[:, 7] == 1, perms[:, 0, 7], perms[:, 1, 7] + 8)
    seed_known = rotx_known.copy()
    seed_known.reshape(-1)[np.arange(0, 16 * num, 16) + row] &= temps_known
    seed = ghat ^ d2
    choices = choices + [_PermChoice(int(k), (0, 7), (1, 7))
                         for k in np.flatnonzero(~swap_known[:, 7])]
    flagged = _resolve_choices(choices, swap_bits, swap_known, perms, seed, seed_known, ghat, d2)
    return seed, seed_known, flagged


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

def _resolve_choices(choices: list[_PermChoice], swap_bits: np.ndarray, swap_known: np.ndarray,
                     perms: np.ndarray, seed: np.ndarray, seed_known: np.ndarray,
                     ghat: np.ndarray, d2: np.ndarray) -> frozenset:
    """Settle two-way assignments in place using the mask's complement-class structure.

    The correct assignment never has more plane or byte classes than the
    wrong one, so only a strictly smaller score settles a choice.  A tie is
    flagged, also between equal bytes: the two sources still trade rows in
    decryption.  So is a choice through a row whose mask byte is unknown:
    that row's plaintext byte is unknown too, and the score would see one
    changed byte, which can leave both counts as they are.  Returns the flagged blocks.
    """
    unreliable = set()
    for k, (h1, s1), (h2, s2) in choices:
        r1, r2 = 8 * h1 + int(perms[k, h1, s1]), 8 * h2 + int(perms[k, h2, s2])
        if not (seed_known[k, r1] and seed_known[k, r2]):
            unreliable.add(k)
            continue
        swapped = ghat[k].copy()
        swapped[[r1, r2]] = swapped[[r2, r1]]
        score_cur, score_swp = _mask_structure_scores(
            np.stack([ghat[k], swapped]) ^ d2[k], seed_known[k]).tolist()
        if score_cur == score_swp:
            unreliable.add(k)
            continue
        if score_swp < score_cur:
            ghat[k] = swapped
            seed[k] = swapped ^ d2[k]
            if h1 != h2:
                swap_bits[k, 7] ^= 1
            else:
                perms[k, h1, [s1, s2]] = perms[k, h1, [s2, s1]]
        if h1 != h2:
            swap_known[k, 7] = True
    return frozenset(unreliable)


def run_attack(oracle: EncryptionOracle, base: bytes) -> EquivalentKey:
    """Run the full attack with exactly seven oracle queries."""
    if len(base) % 15 != 0:
        raise NonDivisibleLength(f"base plaintext length {len(base)} not divisible by 15")
    num = len(base) // 15
    if num == 0:
        raise NonDivisibleLength("base plaintext must contain at least one block")
    base = np.frombuffer(bytes(base), np.uint8).reshape(num, 15)

    def query(stage: str, plaintext: np.ndarray) -> np.ndarray:
        out = oracle(plaintext.tobytes())
        if len(out) != 16 * num:
            raise AttackFailed(stage, f"oracle returned {len(out)} bytes, "
                                      f"expected {16 * num}")
        return np.frombuffer(out, np.uint8).reshape(num, 16)

    def probe(stage: str, diff: np.ndarray) -> np.ndarray:  # the ciphertext differential
        return query(stage, base ^ diff) ^ c0

    c0 = query("oracle", base)
    c1, c2 = (probe("expansion", d) for d in gen_expansion_differentials(num))
    weights = expansion_probe_weights(c1, c2)
    l_values, l_candidates = match_expansion_weights(weights)
    src, amb = _chain_positions(l_values, l_candidates)
    swap_bits, swap_known = _swap_bits_stage(probe, src, amb)
    rot_y = _vertical_stage(probe, src, amb)
    rot_x, rotx_known, obs1, obs2, d2 = _horizontal_stage(probe, src, amb, swap_bits, rot_y,
                                                          c1, c2, c0)
    del c1, c2  # freed before the byte-swap stage, whose peak would otherwise be the highest
    perms, choices = recover_byteswap_part(obs1, obs2, weights, swap_bits)
    seed, seed_known, flagged = _masking_stage(base, d2, src, amb, swap_bits, swap_known, perms,
                                               choices, rotx_known)
    return EquivalentKey(l_values, l_candidates, swap_bits, swap_known,
                         perms, seed, seed_known, rot_x, rotx_known, rot_y, flagged)
