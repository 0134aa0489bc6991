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

Every stage works on all blocks at once as numpy arrays (mostly one 64-bit
word per half), and those arrays are the report: ``bits``, ``constraints``
and ``offset_masks``.  For the benchmark, ``known_bits`` and ``constrained``
list the first two through ``len``, streaming ``keys()`` and ``values()``,
and ``s_offsets`` the third per block; nothing in the package reads them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .cipher import (
    ROTATION_BITS,
    EquivalentKey,
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
    check_rotations(ek.rot_x, ek.rotx_known, ek.rot_y)
    # bit v of byte r of a half's word: some block's row r has known amount v
    words = (np.left_shift(1, ek.rot_x, dtype=np.uint8, order="C") * ek.rotx_known).view("<u8")
    halves = np.array([np.bitwise_or.reduce(words[:, m]) for m in range(2)])
    seen = np.bitwise_or.reduce(halves.view(np.uint8).reshape(2, 8), axis=1).tolist()
    return tuple(frozenset(a for v in range(8) if m >> v & 1 for a in (v, 8 - v)) for m in seen)


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
    words = lambda a: np.ascontiguousarray(a).view("<u8").reshape(-1, 2)
    t = offsets.astype(np.uint64) & 7  # -1 wraps, and is also -1 mod 8
    # a half's eight rows are one word, and true row p sits at frame row (p - t) % 8:
    # a word of rows rotates up 8t bits, and each of its amounts moves by t or -t mod 8
    up, down = t << 3, 64 - (t << 3)  # a shift by 64 gives 0
    at_true_rows = lambda a: ((w := words(a)) << up | w >> down).view(a.dtype)
    moved = lambda a, step: ((words(a) & 0x0707070707070707) + step * 0x0101010101010101
                             & 0x0707070707070707).view(np.uint8)
    return dataclasses.replace(
        ek, perms=moved(ek.perms, t).reshape(-1, 2, 8),
        seed_star=at_true_rows(ek.seed_star), seed_known=at_true_rows(ek.seed_known),
        rot_x=at_true_rows(ek.rot_x), rotx_known=at_true_rows(ek.rotx_known),
        rot_y=moved(ek.rot_y, 8 - t))


def recover_swap_bits_9to35(ek: EquivalentKey, offsets: np.ndarray) -> np.ndarray:
    """Bits b(129k+12..35) as a (blocks, 24) int8 array, column t-12 for bit t.

    ``ek`` holds true-frame parts and ``offsets`` is -1 where a half's
    offset is not unique.  Each half's permutation is decoded into the 12
    swap bits that produce it.  A half whose offset is ambiguous reads -1,
    and so does a half of an unreliable block whose permutation no setting
    produces; in a reliable block that is a malformed key.
    """
    read = offsets >= 0
    # an unread half's word becomes 0, which no setting produces, so it reads -1
    words = np.ascontiguousarray(ek.perms, dtype=np.uint8).view("<u8")[..., 0] * read
    bits = within_swap_bits(words.view(np.uint8).reshape(-1, 2, 8))
    bad = (np.stack([bits[:, 0], bits[:, 4]], axis=1) < 0) & read  # each half's first column
    bad[list(ek.unreliable_blocks)] = False
    if bad.any():
        k, half = np.argwhere(bad)[0]
        raise DomainError(f"block {k} half {half}: permutation is not phase-decomposable")
    return bits


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
    # each test below reduces over contiguous rows: the (8, blocks) plane words
    # and the (9, blocks) words of four of bits 0..35
    planes = np.ascontiguousarray(words.T)
    nibbles = np.ascontiguousarray(bits[:, :36]).view("<u4").T.copy()
    mask_low = mask_full & 0x1FF
    # bit i of seed1's low word is the parity of bits 4i..4i+3: a multiply sums them
    parities = (nibbles & 0x01010101) * 0x01010101 >> 24 & 1
    s1 = np.bitwise_or.reduce(parities << np.arange(9, dtype=np.uint32)[:, None], axis=0) & mask_low
    # the planes fill one complement class {v, v ^ mask_full}, two, or more
    family = np.minimum(planes, planes ^ mask_full)
    lowest, highest = family.min(axis=0), family.max(axis=0)
    one, two_at_most = lowest == highest, ((family == lowest) | (family == highest)).all(axis=0)
    low = planes & mask_low
    first = low == s1
    # a plane's match is shared by its whole complement class
    match = first | (low == s1 ^ mask_low)
    some, every = match.any(axis=0), match.all(axis=0)
    gated = ((offsets[:, 0] < 0) | (offsets[:, 1] < 0)
             | (np.bitwise_or.reduce(nibbles, axis=0) & 0x80808080 != 0))
    status = np.select(
        [gated, ~two_at_most, mask_low == 0, one & some, ~one & every, ~one & ~some],
        [_GATED, _INCONSISTENT, _GATED, _SINGLE, _COLLISION, _INCONSISTENT], _OK)
    # one class: every plane provably uses the second seed (no match); two
    # classes: the matching class is the first seed's; -1 (all bits set) elsewhere
    unset = -(status != _OK).view(np.int8)
    bits[:, 36:52:2] = (match.view(np.int8) | unset).T
    bits[:, 37:52:2] = (first.view(np.int8) | -(~match).view(np.int8) | unset).T
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
    # a half's eight rows as one word, 0xFF in every byte where it is read, and in
    # bit order: half 0's rot_x and rot_y words, then half 1's, with 8 added
    x, y, known = (np.ascontiguousarray(a).view("<u8") for a in (ek.rot_x, ek.rot_y, ek.rotx_known))
    ok = (offsets >= 0) * np.uint64(0xFFFFFFFFFFFFFFFF)
    seen, eights = known * 0xFF & ok, 0x0808080808080808
    amounts = np.stack([x[:, 0], y[:, 0], x[:, 1] | eights, y[:, 1] | eights], axis=1)
    read = np.stack([seen[:, 0], ok[:, 0], seen[:, 1], ok[:, 1]], axis=1)
    # the code of each (half, amount), from the row of each half's set mask
    table = _PAIR_CODES[[sum(1 << v for v in r) for r in (r1, r2)]].reshape(16)
    index, codes = amounts.view(np.uint8), np.empty((len(amounts), 32), dtype=np.uint8)
    for start in range(0, len(index), 512):  # a 128-KiB intp index copy each, not 1 MiB
        table.take(index[start:start + 512], out=codes[start:start + 512])
    np.bitwise_and(words := codes.view("<u8"), read, out=words)
    return codes


# the pair set of each constraint code: bit 2d + m admits (d, m)
_PAIR_SETS = np.empty(16, dtype=object)
_PAIR_SETS[:] = [frozenset((c >> 1, c & 1) for c in range(4) if code >> c & 1)
                 for code in range(16)]


class Listing:
    """Read-only listing, in bit order, of a (blocks, columns) report array's
    entries other than ``absent``: entry [k, c] lists bit i = 129 k + ``bit[c]``
    (or c), or the pair (i, i + 1) if ``pairs``, with the value ``value[entry]``
    (or the entry). ``len`` only counts, each ``keys`` call streams Python ints
    (or pairs) afresh, like a dict view, and ``values`` builds one list."""

    def __init__(self, array: np.ndarray, absent: int, bit: np.ndarray | None = None,
                 value: np.ndarray | None = None, pairs: bool = False):
        self._array, self._absent, self._bit, self._value, self._pairs = \
            array, absent, bit, value, pairs

    def __len__(self) -> int:
        return int(np.count_nonzero(self._array != self._absent))

    def keys(self) -> Iterator:
        if self._bit is None:
            return iter(memoryview(np.flatnonzero(self._array != self._absent)))
        blocks, columns = np.nonzero(self._array != self._absent)
        lo = 129 * blocks + self._bit[columns]
        return zip(memoryview(lo), memoryview(lo + 1)) if self._pairs else iter(memoryview(lo))

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
        # per mask, its offset or its candidate set: built per call, since 247
        # frozensets held from import would cost every process 0.1 MB
        entry = [t if t >= 0 else frozenset(s for s in range(8) if c >> s & 1)
                 for c, t in enumerate(_UNIQUE_OFFSET.tolist())].__getitem__
        return list(zip(*(map(entry, half.tolist()) for half in self.offset_masks.T)))


def recover_report(ek: EquivalentKey) -> RecoveryReport:
    """Run the whole sub-key recovery pipeline over an equivalent key."""
    r1, r2 = recover_rotation_sets(ek)
    cand1, cand2 = (_CANDIDATES.get(r, frozenset()) for r in (r1, r2))
    masks = determine_s_offsets(ek, r1, r2)
    offsets = _UNIQUE_OFFSET[masks]

    bits = np.full((ek.num_blocks, 129), -1, dtype=np.int8)
    # l's bit t to byte t (all four -1 where l is); -(~known) is -1 where a bit is unknown
    l = ek.l_values.astype(np.int32)
    bits[:, :4] = ((l & 0xF) * 0x204081 & 0x01010101 | l >> 31).view(np.int8).reshape(-1, 4)
    bits[:, 4:12] = ek.swap_bits.view(np.int8) | -(~ek.swap_known).view(np.int8)
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
