"""Post-processing of an equivalent key: rotation-amount sets, candidate
(alpha, beta) sub-keys, per-block frame offsets, and controlling bits.

The horizontal amounts in an equivalent key are true rotation amounts read
at cyclically shifted row indices, so their value set equals the true set
R = {alpha, 8-alpha, alpha+beta, 8-(alpha+beta)}.  The vertical amounts are
true amounts plus the block's frame offset, so comparing their value set
with R pins the offset up to R's rotational symmetry.  Once a block's two
offsets are unique, ``to_true_frame`` moves its parts back to the true
frame, and the later stages read the cipher's own key-schedule tables
backwards there: the within-half permutations give their swap bits, the
mask's bit-plane words the seed selectors, and the rotation amounts their
bit pairs.  Rotation controlling bits are only ever constrained to
two-element pair sets.

Every stage works on all blocks at once as numpy arrays; per-block Python
objects are built only for the report's public fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attack import EquivalentKey
from .cipher import (
    ROTATION_BITS,
    SWAP_TABLE,
    complement_classes,
    plane_words,
    rotation_amount,
    within_swap_bits,
)
from .core import SecretKey, legal_alpha_beta_pairs
from .errors import DomainError, IllegalSet
from .prbg import generate_prbs


def rotation_set(alpha: int, beta: int) -> frozenset[int]:
    return frozenset(rotation_amount(alpha, beta, np.arange(4)).tolist())


def recover_rotation_sets(ek: EquivalentKey) -> tuple[frozenset[int], frozenset[int]]:
    """Union of {r, 8-r} over all recovered horizontal amounts, per half."""
    def members(m: int) -> frozenset[int]:
        half = slice(8 * m, 8 * m + 8)
        vals = np.unique(ek.rot_x[:, half][ek.rotx_known[:, half]]).tolist()
        return frozenset(vals) | {8 - v for v in vals}
    return members(0), members(1)


def _candidate_table() -> dict[frozenset[int], frozenset[tuple[int, int]]]:
    table: dict[frozenset[int], set[tuple[int, int]]] = {}
    for a, b in legal_alpha_beta_pairs():
        table.setdefault(rotation_set(a, b), set()).add((a, b))
    return {members: frozenset(pairs) for members, pairs in table.items()}


_CANDIDATES = _candidate_table()  # rotation set -> its legal (alpha, beta)


def candidate_alpha_beta(r: frozenset[int]) -> frozenset[tuple[int, int]]:
    """All legal (alpha, beta) whose rotation set equals r exactly."""
    cands = _CANDIDATES.get(r)
    if cands is None:
        raise IllegalSet(f"no legal (alpha, beta) produces {sorted(r)}")
    return cands


def determine_s_offsets(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int]
                        ) -> np.ndarray:
    """Per block and half, the 8-bit mask of frame offsets that fit.

    A candidate offset t (bit t of the (blocks, 2) uint8 result) is valid
    when the block's observed vertical amounts all lie in the rotation set
    translated by t; rotational symmetry of the set ({2,6} and {1,3,5,7})
    makes some blocks inherently ambiguous.
    """
    masks = np.empty((ek.num_blocks, 2), dtype=np.uint8)
    for m, r in enumerate((r1, r2)):
        allowed = np.array([sum(1 << (x + t) % 8 for x in r) for t in range(8)],
                           dtype=np.uint8)
        observed = np.bitwise_or.reduce(1 << ek.rot_y[:, 8 * m:8 * m + 8], axis=1)
        fits = (observed[:, None] & ~allowed) == 0
        masks[:, m] = np.packbits(fits, axis=1, bitorder="little")[:, 0]
    return masks


# the frame offset an 8-bit candidate mask pins; -1 unless exactly one bit is set
_UNIQUE_OFFSET = np.array([c.bit_length() - 1 if c and not c & (c - 1) else -1
                           for c in range(256)], dtype=np.int64)


def _public_offsets(masks: np.ndarray) -> list[tuple[int | frozenset, int | frozenset]]:
    """The report's per-block offsets: the offset, or its candidate set."""
    entry = {c: int(_UNIQUE_OFFSET[c]) if _UNIQUE_OFFSET[c] >= 0
             else frozenset(t for t in range(8) if c >> t & 1)
             for c in np.unique(masks).tolist()}
    return [(entry[a], entry[b]) for a, b in masks.tolist()]


def to_true_frame(ek: EquivalentKey, offsets: np.ndarray) -> EquivalentKey:
    """The parts in each half's true frame, where frame row r is true row
    (r + t) % 8 for the half's offset t in the (blocks, 2) ``offsets``.  A
    half whose offset is -1 moves by -1 too; the stages mask it out."""
    n = ek.num_blocks
    t = offsets[:, :, None]
    # true row p of half m sits at frame row (p - t) % 8 of that half
    src = ((np.arange(8) - t) % 8 + np.array([[0], [8]])).reshape(n, 16)
    at_true_rows = lambda a: np.take_along_axis(a, src, axis=1)
    return dataclasses.replace(
        ek, perms=((ek.perms + t) % 8).astype(np.uint8),
        seed_star=at_true_rows(ek.seed_star), seed_known=at_true_rows(ek.seed_known),
        rot_x=at_true_rows(ek.rot_x), rotx_known=at_true_rows(ek.rotx_known),
        rot_y=((ek.rot_y.reshape(n, 2, 8) - t) % 8).astype(np.uint8).reshape(n, 16))


# the half each of bits 12..35 swaps within
_SWAP_HALF = np.array([i // 8 for i, _, _ in SWAP_TABLE[8:]])


def recover_swap_bits_9to35(ek: EquivalentKey, offsets: np.ndarray) -> np.ndarray:
    """Bits b(129k+12..35) as a (blocks, 24) int8 array, column t-12 for bit t.

    ``ek`` holds true-frame parts and ``offsets`` is -1 where a half's
    offset is not unique.  Each half's permutation is looked up among the
    4,096 that its 12 swap bits produce.  A half whose offset is ambiguous
    reads -1, and so does a half of an unreliable block whose permutation
    no setting produces; in a reliable block that is a malformed key.
    """
    bits = within_swap_bits(ek.perms)
    reliable = np.ones(ek.num_blocks, dtype=bool)
    reliable[list(ek.unreliable_blocks)] = False
    read = offsets[:, _SWAP_HALF] >= 0
    bad = (bits < 0) & read & reliable[:, None]
    if bad.any():
        k, column = np.argwhere(bad)[0]
        raise DomainError(f"block {k} half {_SWAP_HALF[column]}: "
                          f"permutation is not phase-decomposable")
    return np.where(read, bits, -1).astype(np.int8)


_OK, _GATED, _SINGLE, _COLLISION, _INCONSISTENT = range(5)
# the masking stage's per-block outcome, indexed by RecoveryReport.masking_status
MASKING_STATUS = ("ok", "gated", "single-family", "collision", "inconsistent")


def recover_masking_bits(ek: EquivalentKey, offsets: np.ndarray, bits: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Bits b(129k+36+2j) and, for first-seed planes, b(129k+37+2j).

    ``ek`` holds true-frame parts.  ``bits`` is the (blocks, 129) int8 array
    of recovered controlling bits, -1 where unknown; columns 0..35 are read
    and columns 36..51 written.  The nine low bits of the first plane seed
    are recomputed from bits 0..35 and matched against the mask's bit-plane
    words.  Assignment happens only when exactly one complement-class of
    plane words matches and another class witnesses the mismatch, so a
    reported bit is never a guess.  Returns the (blocks,) status codes into
    ``MASKING_STATUS`` and the (blocks,) first seeds, -1 where not pinned.
    """
    n = ek.num_blocks
    words, mask_full = plane_words(ek.seed_star, ek.seed_known)   # (blocks, 8), (blocks,)
    mask_low = mask_full & 0x1FF
    known_bits = bits[:, :36]
    # bit i of the first seed's low word is the parity of bits 4i..4i+3
    nibble_parity = np.bitwise_xor.reduce(known_bits.reshape(n, 9, 4), axis=2) & 1
    seed1_low = nibble_parity @ (1 << np.arange(9))
    groups = complement_classes(words, mask_full[:, None])
    s1 = seed1_low & mask_low
    low = words & mask_low[:, None]
    # a plane's match is shared by its whole complement class
    match = (low == s1[:, None]) | (low == (s1 ^ mask_low)[:, None])
    matches = match.sum(axis=1)
    gated = (offsets < 0).any(axis=1) | (known_bits < 0).any(axis=1)
    status = np.select(
        [gated, groups > 2, mask_low == 0, (groups == 1) & (matches > 0),
         (groups == 2) & (matches == 8), (groups == 2) & (matches == 0)],
        [_GATED, _INCONSISTENT, _GATED, _SINGLE, _COLLISION, _INCONSISTENT], _OK)
    ok = status == _OK
    # one class: every plane provably uses the second seed (no match); two
    # classes: the matching class is the first seed's
    masking = bits[:, 36:52]  # a view: the writes land in ``bits``
    masking[ok, 0::2] = match[ok]
    masking[:, 1::2] = np.where(ok[:, None] & match, low == s1[:, None], -1)
    j0 = np.argmax(match, axis=1)
    w0 = words[np.arange(n), j0]
    seed1 = np.where(low[np.arange(n), j0] == s1, w0, w0 ^ mask_full).astype(np.int64)
    seed1[~(ok & (groups == 2) & (mask_full == 0xFFFF))] = -1
    return status, seed1


def rotation_pair_constraints(r: frozenset[int], value: int
                              ) -> frozenset[tuple[int, int]]:
    """Admissible (direction bit, magnitude bit) pairs for one amount: those
    that rotate by ``value`` under some candidate (alpha, beta) of the set."""
    alpha, beta = np.array(sorted(candidate_alpha_beta(r))).T[:, :, None]
    fits = (rotation_amount(alpha, beta, np.arange(4)) == value % 8).any(axis=0)
    if not fits.any():
        raise IllegalSet(f"amount {value} impossible for set {sorted(r)}")
    return frozenset((code >> 1, code & 1) for code in np.flatnonzero(fits).tolist())


# rot_x's then rot_y's columns in order of their bits (no numpy sort at import)
_ROTATION_ORDER = sorted(range(32), key=ROTATION_BITS.__getitem__)


def constrain_rotation_bits(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int],
                            offsets: np.ndarray) -> dict[tuple[int, int], frozenset]:
    """Admissible (direction, magnitude) bit pairs for every rotation.

    Keys are absolute controlling-bit index pairs in ascending order.  ``ek``
    holds true-frame parts; halves whose offset is -1 and unrecovered
    horizontal rows are skipped.  No rotation bit is pinned to one value.
    """
    half_ok = np.repeat(offsets >= 0, 8, axis=1)
    # per part: 8 * its half + its amount, and whether it is read
    amounts = (np.concatenate([ek.rot_x, ek.rot_y], axis=1)
               + np.tile(np.repeat(np.array([0, 8], dtype=np.uint8), 8), 2))
    read = np.concatenate([half_ok & ek.rotx_known, half_ok], axis=1)
    amounts, read = amounts[:, _ROTATION_ORDER], read[:, _ROTATION_ORDER]
    lo = (129 * np.arange(ek.num_blocks)[:, None] + ROTATION_BITS[_ROTATION_ORDER])[read]
    amount = amounts[read]
    # one shared pair set per (half, amount), built in order of first use
    table = np.empty(16, dtype=object)
    used, first = np.unique(amount, return_index=True)
    for i in used[np.argsort(first)].tolist():
        table[i] = rotation_pair_constraints((r1, r2)[i // 8], i % 8)
    return dict(zip(zip(lo.tolist(), (lo + 1).tolist()), table[amount].tolist()))


@dataclass
class RecoveryReport:
    """Everything derivable from an equivalent key about the hidden key."""

    r1: frozenset[int]
    r2: frozenset[int]
    ab_candidates1: frozenset[tuple[int, int]]
    ab_candidates2: frozenset[tuple[int, int]]
    s_offsets: list[tuple[int | frozenset, int | frozenset]]
    known_bits: dict[int, int]                      # absolute index -> 0/1
    constrained: dict[tuple[int, int], frozenset]   # (idx, idx+1) -> pair set
    num_blocks: int
    bits: np.ndarray            # (blocks, 129) int8, -1 where unknown
    masking_status: np.ndarray  # (blocks,) codes into MASKING_STATUS
    seed1: np.ndarray           # (blocks,) int64 first plane seed, -1 for none


def recover_report(ek: EquivalentKey) -> RecoveryReport:
    """Run the whole sub-key recovery pipeline over an equivalent key."""
    r1, r2 = recover_rotation_sets(ek)
    cand1, cand2 = (_CANDIDATES.get(r, frozenset()) for r in (r1, r2))
    masks = determine_s_offsets(ek, r1, r2)
    offsets = _UNIQUE_OFFSET[masks]

    bits = np.full((ek.num_blocks, 129), -1, dtype=np.int8)
    has_l = ek.l_values >= 0
    bits[has_l, :4] = (ek.l_values[has_l, None] >> np.arange(4)) & 1
    bits[:, 4:12] = np.where(ek.swap_known, ek.swap_bits.astype(np.int8), -1)
    true = to_true_frame(ek, offsets)
    bits[:, 12:36] = recover_swap_bits_9to35(true, offsets)
    status, seed1 = recover_masking_bits(true, offsets, bits)
    blocks, index = np.nonzero(bits >= 0)
    known = dict(zip((129 * blocks + index).tolist(), bits[blocks, index].tolist()))

    constrained = constrain_rotation_bits(true, r1, r2, offsets) if cand1 and cand2 else {}
    return RecoveryReport(r1, r2, cand1, cand2, _public_offsets(masks), known,
                          constrained, ek.num_blocks, bits, status, seed1)


class Grade(NamedTuple):
    """How a report compares with the key it was recovered from."""

    wrong: int         # recovered bits that differ from the key's stream
    missed: int        # rotation constraint sets that exclude the true pair
    found1: bool       # true (alpha1, beta1) among ab_candidates1
    found2: bool       # true (alpha2, beta2) among ab_candidates2

    @property
    def ok(self) -> bool:
        return self.wrong == 0 and self.missed == 0 and self.found1 and self.found2


def grade(report: RecoveryReport, key: SecretKey) -> Grade:
    """Grade a report against the true key's controlling bits and sub-keys."""
    truth = generate_prbs(key.x0, report.num_blocks).bits
    known = report.bits >= 0
    wrong = int((report.bits[known] != truth[known]).sum())
    pairs = np.array(list(report.constrained), dtype=np.int64).reshape(-1, 2)
    code = {s: sum(1 << (2 * p + m) for p, m in s) for s in set(report.constrained.values())}
    allowed = np.fromiter(map(code.__getitem__, report.constrained.values()),
                          dtype=np.int64, count=len(pairs))
    flat = truth.reshape(-1).astype(np.int64)
    true_pair = 2 * flat[pairs[:, 0]] + flat[pairs[:, 1]]
    missed = int((((allowed >> true_pair) & 1) == 0).sum())
    return Grade(wrong, missed, (key.alpha1, key.beta1) in report.ab_candidates1,
                 (key.alpha2, key.beta2) in report.ab_candidates2)
