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
bit pairs, read from one table of pair codes per rotation set and amount.
Rotation controlling bits are only ever constrained to two-element pair sets.

Every stage works on all blocks at once as numpy arrays, and those arrays
are the report: ``bits``, ``constraints`` and ``offset_masks``.  For the
benchmark, ``known_bits`` and ``constrained`` list the first two through
``len``, ``keys()`` and ``values()``, and ``s_offsets`` the third per block;
nothing in the package reads them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cipher import (
    ROTATION_BITS,
    SWAP_TABLE,
    EquivalentKey,
    complement_classes,
    pack_rows,
    plane_words,
    rotation_amount,
    value_sets,
    within_swap_bits,
)
from .core import SecretKey, legal_alpha_beta_pairs
from .errors import DomainError
from .formats import check_rotations
from .prbg import generate_prbs


def rotation_set(alpha: int, beta: int) -> frozenset[int]:
    return frozenset(rotation_amount(alpha, beta, np.arange(4)).tolist())


def recover_rotation_sets(ek: EquivalentKey) -> tuple[frozenset[int], frozenset[int]]:
    """Union of {r, 8-r} over all recovered horizontal amounts, per half.

    Amounts that an equivalent-key file could not hold raise ``DomainError``."""
    def members(m: int) -> frozenset[int]:
        half = slice(8 * m, 8 * m + 8)
        vals = np.unique(ek.rot_x[:, half][ek.rotx_known[:, half]]).tolist()
        return frozenset(vals) | {8 - v for v in vals}
    check_rotations(ek.rot_x, ek.rotx_known, ek.rot_y)
    return members(0), members(1)


def _rotation_tables() -> tuple[dict[frozenset[int], frozenset[tuple[int, int]]], np.ndarray]:
    """Each legal rotation set's (alpha, beta) pairs, and the (256, 8) uint8
    pair codes: entry [mask, v] has bit 2d + m set when a pair of the set with
    that mask (bit v for amount v) rotates by v under bits (d, m); else 0."""
    table: dict[frozenset[int], set[tuple[int, int]]] = {}
    codes = np.zeros((256, 8), dtype=np.uint8)
    for a, b in legal_alpha_beta_pairs():
        members = rotation_set(a, b)
        table.setdefault(members, set()).add((a, b))
        # code c's amount gets bit c; one pair's amounts can repeat ((2, 4) gives {2, 6} twice)
        np.bitwise_or.at(codes[sum(1 << v for v in members)],
                         rotation_amount(a, b, np.arange(4)), 1 << np.arange(4))
    return {members: frozenset(pairs) for members, pairs in table.items()}, codes


# rotation set -> its legal (alpha, beta); [set mask, amount] -> admissible pair code
_CANDIDATES, _PAIR_CODES = _rotation_tables()


def determine_s_offsets(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int]
                        ) -> np.ndarray:
    """Per block and half, the 8-bit mask of frame offsets that fit.

    A candidate offset t (bit t of the (blocks, 2) uint8 result) is valid
    when the block's observed vertical amounts all lie in the rotation set
    translated by t; rotational symmetry of the set ({2,6} and {1,3,5,7})
    makes some blocks inherently ambiguous.
    """
    allowed = np.array([[sum(1 << (x + t) % 8 for x in r) for t in range(8)]
                        for r in (r1, r2)], dtype=np.uint8)
    fits = (value_sets(ek.rot_y)[..., None] & ~allowed) == 0
    return pack_rows(fits)[..., 0]


# the frame offset an 8-bit candidate mask pins; -1 unless exactly one bit is set
_UNIQUE_OFFSET = np.array([c.bit_length() - 1 if c and not c & (c - 1) else -1
                           for c in range(256)], dtype=np.int8)


def to_true_frame(ek: EquivalentKey, offsets: np.ndarray) -> EquivalentKey:
    """The parts in each half's true frame, where frame row r is true row
    (r + t) % 8 for the half's offset t in the (blocks, 2) ``offsets``.  A
    half whose offset is -1 moves by -1 too; the stages mask it out."""
    n = ek.num_blocks
    t = offsets.astype(np.uint8)[:, :, None]  # -1 wraps to 255, also -1 mod 8
    # true row p of half m sits at frame row (p - t) % 8 of that half: one flat
    # index, built in int32 and made intp once rather than by each of four gathers
    halves = np.arange(0, 16 * n, 8, dtype=np.int32).reshape(n, 2, 1)
    src = (((np.arange(8, dtype=np.int32) - t) & 7) + halves).reshape(-1).astype(np.intp)
    at_true_rows = lambda a: a.reshape(-1)[src].reshape(n, 16)
    return dataclasses.replace(
        ek, perms=(ek.perms + t) & 7,
        seed_star=at_true_rows(ek.seed_star), seed_known=at_true_rows(ek.seed_known),
        rot_x=at_true_rows(ek.rot_x), rotx_known=at_true_rows(ek.rotx_known),
        rot_y=((ek.rot_y.reshape(n, 2, 8) - t) & 7).reshape(n, 16))


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
                         ) -> np.ndarray:
    """Bits b(129k+36+2j) and, for first-seed planes, b(129k+37+2j).

    ``ek`` holds true-frame parts.  ``bits`` is the (blocks, 129) int8 array
    of recovered controlling bits, -1 where unknown; columns 0..35 are read
    and columns 36..51 written.  The nine low bits of the first plane seed
    are recomputed from bits 0..35 and matched against the mask's bit-plane
    words.  Assignment happens only when exactly one complement-class of
    plane words matches and another class witnesses the mismatch, so a
    reported bit is never a guess.  Returns the (blocks,) status codes into
    ``MASKING_STATUS``.
    """
    words, mask_full = plane_words(ek.seed_star, ek.seed_known)   # (blocks, 8), (blocks,)
    mask_low = mask_full & 0x1FF
    bits_0to35 = bits[:, :36]
    # bit i of seed1's low word is the parity of bits 4i..4i+3: a multiply sums them
    nibbles = np.ascontiguousarray(bits_0to35).view("<u4") & 0x01010101
    seed1_low = (nibbles * 0x01010101 >> 24 & 1) @ (1 << np.arange(9))
    groups = complement_classes(words, mask_full[:, None])
    s1 = seed1_low & mask_low
    low = words & mask_low[:, None]
    # a plane's match is shared by its whole complement class
    match = (low == s1[:, None]) | (low == (s1 ^ mask_low)[:, None])
    matches = match.sum(axis=1)
    gated = (offsets < 0).any(axis=1) | (bits_0to35 < 0).any(axis=1)
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
    return status


# rot_x's then rot_y's columns in order of their bits (no numpy sort at import),
# and the lower bit of each column's (direction, magnitude) pair
_ROTATION_ORDER = sorted(range(32), key=ROTATION_BITS.__getitem__)
_ROTATION_COLUMN_BITS = ROTATION_BITS[_ROTATION_ORDER]


def constrain_rotation_bits(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int],
                            offsets: np.ndarray) -> np.ndarray:
    """Admissible (direction, magnitude) bit pairs for every rotation.

    Returns (blocks, 32) uint8 codes, columns in ``_ROTATION_ORDER``: bit
    2d + m of a code is set when the pair (d, m) is admissible.  ``ek``
    holds true-frame parts, and ``r1`` and ``r2`` must be legal sets; halves
    whose offset is -1, unrecovered horizontal rows and amounts outside
    their half's set read 0.  No rotation bit is pinned to one value.
    """
    half_ok = np.repeat(offsets >= 0, 8, axis=1)
    # per part: 8 * its half + its amount, and whether it is read
    amounts = (np.concatenate([ek.rot_x, ek.rot_y], axis=1)
               + np.tile(np.repeat(np.array([0, 8], dtype=np.uint8), 8), 2))
    read = np.concatenate([half_ok & ek.rotx_known, half_ok], axis=1)
    amounts, read = amounts[:, _ROTATION_ORDER], read[:, _ROTATION_ORDER]
    # the code of each (half, amount), from the row of each half's set mask
    table = _PAIR_CODES[[sum(1 << v for v in r) for r in (r1, r2)]].reshape(16)
    return np.where(read, table[amounts], 0)


# the pair set of each constraint code: bit 2d + m admits (d, m)
_PAIR_SETS = np.empty(16, dtype=object)
_PAIR_SETS[:] = [frozenset((c >> 1, c & 1) for c in range(4) if code >> c & 1)
                 for code in range(16)]


class Listing:
    """Read-only listing, in bit order, of a (blocks, columns) report array's
    entries other than ``absent``: entry [k, c] lists bit i = 129 k + ``bit[c]``
    (or c), or the pair (i, i + 1) if ``pairs``, with the value ``value[entry]``
    (or the entry). ``len`` only counts; ``keys`` and ``values`` each build one list."""

    def __init__(self, array: np.ndarray, absent: int, bit: np.ndarray | None = None,
                 value: np.ndarray | None = None, pairs: bool = False):
        self._array, self._absent, self._bit, self._value, self._pairs = \
            array, absent, bit, value, pairs

    def __len__(self) -> int:
        return int(np.count_nonzero(self._array != self._absent))

    def keys(self) -> list:
        if self._bit is None:
            return np.flatnonzero(self._array != self._absent).tolist()
        blocks, columns = np.nonzero(self._array != self._absent)
        lo = 129 * blocks + self._bit[columns]
        return list(zip(lo.tolist(), (lo + 1).tolist())) if self._pairs else lo.tolist()

    def values(self) -> list:
        entries = self._array[self._array != self._absent]
        return (entries if self._value is None else self._value[entries]).tolist()


@dataclass
class RecoveryReport:
    """Everything derivable from an equivalent key about the hidden key."""

    r1: frozenset[int]
    r2: frozenset[int]
    ab_candidates1: frozenset[tuple[int, int]]
    ab_candidates2: frozenset[tuple[int, int]]
    offset_masks: np.ndarray    # (blocks, 2) uint8, bit t set where frame offset t fits
    constraints: np.ndarray     # (blocks, 32) uint8 pair codes of constrain_rotation_bits
    bits: np.ndarray            # (blocks, 129) int8, -1 where unknown
    masking_status: np.ndarray  # (blocks,) codes into MASKING_STATUS

    @property
    def num_blocks(self) -> int:
        return len(self.bits)

    @property
    def known_bits(self) -> Listing:
        """Absolute index and 0/1 of every recovered bit, listed from ``bits``."""
        return Listing(self.bits, -1)

    @property
    def constrained(self) -> Listing:
        """(i, i + 1) and its admissible pair set, listed from ``constraints``."""
        return Listing(self.constraints, 0, _ROTATION_COLUMN_BITS, _PAIR_SETS, pairs=True)

    @property
    def s_offsets(self) -> list[tuple[int | frozenset, int | frozenset]]:
        """Per block, each half's frame offset, or its candidate set."""
        entry = {c: int(_UNIQUE_OFFSET[c]) if _UNIQUE_OFFSET[c] >= 0
                 else frozenset(t for t in range(8) if c >> t & 1)
                 for c in np.unique(self.offset_masks).tolist()}
        return [(entry[a], entry[b]) for a, b in self.offset_masks.tolist()]


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
    status = recover_masking_bits(true, offsets, bits)
    codes = (constrain_rotation_bits(true, r1, r2, offsets) if cand1 and cand2
             else np.zeros((ek.num_blocks, 32), dtype=np.uint8))
    return RecoveryReport(r1, r2, cand1, cand2, masks, codes, bits, status)


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
    # the true (direction, magnitude) pair of every rotation, as its bit in a code
    true_pair = 2 * truth[:, _ROTATION_COLUMN_BITS] + truth[:, _ROTATION_COLUMN_BITS + 1]
    codes = report.constraints
    missed = int(np.count_nonzero((codes != 0) & (codes >> true_pair & 1 == 0)))
    return Grade(wrong, missed, (key.alpha1, key.beta1) in report.ab_candidates1,
                 (key.alpha2, key.beta2) in report.ab_candidates2)
