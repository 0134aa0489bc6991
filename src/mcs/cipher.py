"""MCS encryption and decryption, built on the per-block parts of the key.

Per 15-byte block: data expansion (append the running temp byte), 32
conditional byte swaps, bit-plane value masking, horizontal row rotations
and vertical column rotations on the two 8x8 bit matrices of the halves.
The first half (bytes 0-7) uses (alpha1, beta1) for both rotations, the
second half (bytes 8-15) uses (alpha2, beta2).

The true key expands block by block into the same parts the attack
recovers (``EquivalentKey``): the expansion index, the eight cross-half
swap bits, the two within-half permutations that the other 24 swaps
compose to, the 16 mask bytes, and 16 row and 16 column rotation amounts.
``key_parts`` adds the other key-only arrays of a ``KeySchedule``, held per
key for ``encrypt`` and ``decrypt``; ``ees_decrypt`` reads the parts alone.

Rotation conventions (fixed for the whole package):
  * a row amount a moves the bit at column c to column (c + a) % 8,
    i.e. a left-rotate of the byte value;
  * a column amount s moves the bit at row i to row (i + s) % 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SecretKey
from .errors import CiphertextTooLong, NonDivisibleLength
from .prbg import BlockMemo, generate_prbs

# The 32 conditional transpositions of the byte-swapping step, in application
# order: (i, j, l) swaps bytes i and j when controlling bit b(129k+l) is set.
SWAP_TABLE: tuple[tuple[int, int, int], ...] = (
    (0, 8, 4), (1, 9, 5), (2, 10, 6), (3, 11, 7),
    (4, 12, 8), (5, 13, 9), (6, 14, 10), (7, 15, 11),
    (0, 4, 12), (1, 5, 13), (2, 6, 14), (3, 7, 15),
    (8, 12, 16), (9, 13, 17), (10, 14, 18), (11, 15, 19),
    (0, 2, 20), (1, 3, 21), (4, 6, 22), (5, 7, 23),
    (8, 10, 24), (9, 11, 25), (12, 14, 26), (13, 15, 27),
    (0, 1, 28), (2, 3, 29), (4, 5, 30), (6, 7, 31),
    (8, 9, 32), (10, 11, 33), (12, 13, 34), (14, 15, 35),
)

# the three delta swaps (shift, mask) of an 8x8 bit transpose
_TRANSPOSE_STEPS = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _transpose_halves(arr: np.ndarray) -> np.ndarray:
    """Bitwise transpose of each row-wise 8x8 matrix; arr has shape (B, 8).

    Each matrix is one 64-bit word with element (i, j) at bit 8i + j; three
    delta swaps exchange it with bit 8j + i (Warren, Hacker's Delight, 7-3).
    """
    x = np.array(arr, dtype=np.uint8, order="C").view("<u8")[:, 0]
    for shift, mask in _TRANSPOSE_STEPS:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x.view(np.uint8).reshape(-1, 8)


# each half's 12 within-half swap bits, in table order: its code's bits, MSB first
_WITHIN_COLUMNS = np.array([[l for i, _, l in SWAP_TABLE[8:] if i // 8 == half]
                            for half in range(2)])
_CODE_SHIFTS = np.uint16([3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8])


def _within_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two (2 * 4096,) uint64 tables of eight bytes each, at h * 4096 + the
    code of half h: its within-half permutation (source row -> frame row), and
    the inverse (frame row -> 8h + source row).

    A half's code holds the controlling bits of its 12 within-half swaps, MSB
    first by nibble: bits 12-15, 20-23, 28-31 at code bits 3..0, 7..4, 11..8
    for the first half and bits 16-19, 24-27, 32-35 for the second.
    """
    codes = np.arange(4096, dtype=np.uint16)
    bits = np.zeros((4096, 36), dtype=bool)
    for columns in _WITHIN_COLUMNS:
        bits[:, columns] = codes[:, None] >> _CODE_SHIFTS & 1
    # source[:, r] = the byte the within-half swaps move to frame position r
    source = np.tile(np.arange(16, dtype=np.uint8), (4096, 1))
    for i, j, l in SWAP_TABLE[8:]:
        rows = bits[:, l]
        source[rows, i], source[rows, j] = source[rows, j], source[rows, i]
    perms = np.empty((4096, 16), dtype=np.uint8)
    np.put_along_axis(perms, source,
                      np.broadcast_to(np.arange(16, dtype=np.uint8) % 8, (4096, 16)), axis=1)
    return tuple(t.reshape(4096, 2, 8).transpose(1, 0, 2).copy().view("<u8").reshape(-1)
                 for t in (perms, source))


def rotation_amount(alpha, beta, code):
    """The amount a (direction, magnitude) bit pair, coded 2 * direction +
    magnitude, rotates by: alpha, plus beta if the magnitude bit is set, and
    8 minus that if the direction bit is set, modulo 8."""
    r = alpha + beta * (code & 1)
    # in uint8, 8 - r wraps modulo 256 where r > 8, which the & 7 does not see
    return np.where(code >> 1 == 1, 8 - r, r) & 7


def _rotation_amount_table() -> np.ndarray:
    """(8, 8, 256) uint32: [alpha, beta, byte] -> the amounts of the byte's
    four (direction, magnitude) bit pairs, MSB first, one per byte."""
    code = np.arange(256, dtype=np.uint8)[:, None] >> np.array([6, 4, 2, 0], dtype=np.uint8) & 3
    ab = np.arange(8, dtype=np.uint8)
    return rotation_amount(ab[:, None, None, None], ab[:, None, None], code).view("<u4")[..., 0]


def _selector_tables() -> tuple[np.ndarray, np.ndarray]:
    """Two (3, 256) uint64 tables, [k, byte] for a byte of four (seed, complement)
    selector pairs, MSB first: the planes that take seed1 (k = 0), seed2 (1) and the
    complemented ones in every byte (2); pair j is plane j (first table) or j + 4."""
    byte = np.arange(256)
    pick1 = flip = 0
    for j in range(4):
        pick1 = pick1 | (byte >> (7 - 2 * j) & 1) << j
        flip = flip | (~byte >> (6 - 2 * j) & 1) << j
    planes = np.stack([pick1, 15 ^ pick1, flip * 0x0101010101010101]).astype(np.uint64)
    return planes, planes << np.uint64(4)


_WITHIN_PERMS, _WITHIN_SOURCES = _within_tables()
_ROTATION_AMOUNTS = _rotation_amount_table().reshape(64, 256)  # [8 alpha + beta, byte]
_SELECTORS_0_3, _SELECTORS_4_7 = _selector_tables()
_REVERSED_NIBBLES = np.array([int(f"{n:04b}"[::-1], 2) for n in range(16)], dtype=np.int16)
# Bits 65..128 are eight bytes of rotation codes: the row amounts, then the
# column amounts of the first half, then of the second. The direction bit of
# each rotation part, rot_x's 16 then rot_y's 16; the magnitude bit follows it.
ROTATION_BITS = 65 + 2 * np.arange(32).reshape(2, 2, 8).transpose(1, 0, 2).reshape(-1)
# a block's first word to: two half-code fields, selector bytes, reversed l, swap byte
_HEAD_SHIFTS = np.uint64([32, 28, 20, 12, 60, 52])[:, None]
_HALF_BASE = np.repeat(np.array([0, 8], dtype=np.uint8), 8)
# 0-d array operands, which numpy takes faster than numpy scalars or Python ints
_U8_4, _U8_7, _U8_0x80 = map(np.asarray, np.uint8([4, 7, 0x80]))
_BYTE_ONES, _GATHER_BITS, _TOP_BYTE = map(np.asarray, np.uint64([0x0101010101010101,
                                                                 0x0102040810204080, 56]))
_U64 = {v: np.asarray(np.uint64(v)) for v in (
    1, 2, 4, 6, 7, 8, 12, 16, 32, 52, 60, 0x0F, 0xCC, 0xF0, 0xFF, 4096, 0x0F0F0F, 0x1248,
    0x1001001000000000, 0x1111111111111111, 0xF000F000F000F000, 0x1001001001, 0x0000FFFF0000FFFF,
    0x00FF00FF00FF00FF, 0x0100010000000000, 0x0706050403020100, 0x8040201008040201,
    0x0008000800080008, 0x0400040004000400, 0x8080808080808080)}
_ROTATION_SHIFTS, _HALF_CODES = np.uint64([0, 16])[:, None], np.uint64([0, 4096])[:, None]
_COLUMN_BITS = np.uint64([0, 1, 2])[:, None, None]
_FRAME_SLICE = 4096  # blocks a gather or scatter takes at once: 512 KiB of intp index
_COLUMN_SHIFTS = [tuple(map(np.asarray, np.uint64([8 << k, 64 - (8 << k)]))) for k in range(3)]


# ---------------------------------------------------------------------------
# The parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalentKey:
    """Per-block parts of a key, in a self-consistent frame; no field can be
    rebound, so ``encrypt`` and ``decrypt`` share the parts their memo holds.

    The attack recovers them up to a per-half cyclic frame offset and marks
    what it could not observe; ``key_parts`` expands a true key into them
    with frame offset 0 and everything known, as read-only arrays.
    """

    l_values: np.ndarray          # (B,) int16; -1 where unknown or ambiguous
    l_candidates: dict[int, frozenset]
    swap_bits: np.ndarray         # (B, 8) uint8
    swap_known: np.ndarray        # (B, 8) bool
    perms: np.ndarray             # (B, 2, 8) uint8, source row -> frame row
    seed_star: np.ndarray         # (B, 16) uint8
    seed_known: np.ndarray        # (B, 16) bool
    rot_x: np.ndarray             # (B, 16) uint8
    rotx_known: np.ndarray        # (B, 16) bool
    rot_y: np.ndarray             # (B, 16) uint8
    unreliable_blocks: frozenset = frozenset()

    @property
    def num_blocks(self) -> int:
        return len(self.l_values)


class KeySchedule(NamedTuple):
    """A true key's parts and the other read-only arrays encrypt and decrypt read."""
    parts: EquivalentKey
    gather: np.ndarray            # (B, 16) int32 flat index: frame byte -> expanded byte
    l_index: np.ndarray           # (B,) int32 flat index of each block's l byte, 16k + l
    last: np.ndarray              # (B,) int32 the last block before k with l != 15, or -1
    back_x: np.ndarray            # (B, 16) uint8 row amounts that undo rot_x, -rot_x & 7
    keeps: np.ndarray             # (3, B, 2) uint64 column_keeps(rot_y)


def expansion_l_values(rows: np.ndarray) -> np.ndarray:
    """l(k) = b(129k) + 2 b(129k+1) + 4 b(129k+2) + 8 b(129k+3) for every
    block of packed rows: the high nibble of byte 0, read backwards."""
    return _REVERSED_NIBBLES[rows[:, 0] >> _U8_4]


def key_parts(rows: np.ndarray, ab1, ab2) -> KeySchedule:
    """Expand packed controlling bits and the rotation sub-keys into a key's
    read-only schedule. In its (B, 16) int32 gather, frame byte r of block k is
    expanded byte gather[k, r] - 16k, through the cross-half swaps and then the
    within-half permutations.

    ``rows`` are (blocks, 17) packed bits as in ``PrbsStream.rows``; ab1/ab2
    are the (alpha, beta) pairs of the two halves.
    """
    num, u = len(rows), _U64
    # bytes 0-7 and 8-15 of each block as (B, 2) big-endian words, bit t at bit 63 - t
    words = rows[:, :16].view(">u8").astype(np.uint64)
    fields = words[:, 0] >> _HEAD_SHIFTS
    # one carry-free multiply moves a half's code nibbles from bits 0, 8, 16 of its field
    codes = ((fields[:2] & u[0x0F0F0F]) * u[0x1001001000000000] >> u[52] | _HALF_CODES).T
    select_0_3, select_4_7, reversed_l, swap_byte = fields[2:].astype(np.uint8)
    # bits 65..128 as a little-endian word, then (2, B) words of four 16-bit table
    # indexes, half 1 past 256: row bytes 0, 1, 4, 5, then column bytes 2, 3, 6, 7
    rotation = words[:, 1] << u[1] | rows[:, 16] >> _U8_7
    lanes = rotation.byteswap(inplace=True) >> _ROTATION_SHIFTS & u[0x0000FFFF0000FFFF]
    lanes = (lanes | lanes << u[8]) & u[0x00FF00FF00FF00FF] | u[0x0100010000000000]
    table = _ROTATION_AMOUNTS.take([8 * ab1[0] + ab1[1], 8 * ab2[0] + ab2[1]], axis=0)
    amounts = table.take(lanes.view(np.uint16)).view(np.uint8).reshape(2, num, 16)
    amounts.setflags(write=False)  # so are its rot_x and rot_y views
    rot_x, rot_y = amounts[0], amounts[1]
    # Bit i of seed1 (seed2) is the parity of bits 4i..4i+3 (64+4i..), gathered to bit
    # 63 - i by two carry-free multiplies, then unpacked to [seed, half, block] words
    odd = words >> u[1] ^ words
    odd ^= odd >> u[2]
    odd = ((odd & u[0x1111111111111111]) * u[0x1248] & u[0xF000F000F000F000]) * u[0x1001001001]
    seeds = np.unpackbits(odd.view(np.uint8).reshape(num, 2, 8)[:, :, :5:-1].transpose(1, 2, 0),
                          axis=2).view(np.uint64)
    # Mask byte i, bit j is bit i of plane j's seed, complemented if the plane's flip
    # bit is set; a 0/1 byte times a byte of planes carries into no other byte
    planes = _SELECTORS_0_3.take(select_0_3, axis=1) | _SELECTORS_4_7.take(select_4_7, axis=1)
    seeds *= planes[:2, None]
    seed_star = np.empty((num, 16), dtype=np.uint8)
    np.bitwise_xor(np.bitwise_xor.reduce(seeds), planes[2], out=seed_star.view(np.uint64).T)
    del words, fields, rotation, lanes, odd, seeds  # before the largest held arrays exist
    # frame row r of half h takes crossed byte q = 8h + source row, which is
    # expanded byte q ^ 8 where q's swap bit (the swap byte's bit 7 - q % 8) is set
    gather = _WITHIN_SOURCES.take(codes).view(np.uint8)
    gather ^= (swap_byte.repeat(16).reshape(num, 16) << (gather & _U8_7) & _U8_0x80) >> _U8_4
    base = np.arange(0, 16 * num, 16, dtype=np.int32)
    gather = gather + base[:, None]
    perms = _WITHIN_PERMS.take(codes).view(np.uint8).reshape(num, 2, 8)
    l_values = _REVERSED_NIBBLES.take(reversed_l)
    swap_bits = np.unpackbits(swap_byte).reshape(num, 8)
    held = (gather, base + l_values, last_dropped(l_values == 15), -rot_x & _U8_7,
            column_keeps(rot_y))
    known = np.ndarray((num, 16), bool, bytearray(b"\x01"), strides=(0, 0))  # one own byte
    for part in (l_values, swap_bits, perms, seed_star, known, *held):
        part.setflags(write=False)  # encrypt and decrypt hand them out again
    return KeySchedule(EquivalentKey(l_values, {}, swap_bits, known[:, :8], perms, seed_star,
                                     known, rot_x, known, rot_y), *held)


def within_swap_bits(perms: np.ndarray) -> np.ndarray:
    """Invert ``key_parts``' permutation gather: true-frame (B, 2, 8) perms to
    bits 12..35 as (B, 24) int8, column t-12 for bit t, and -1 across a half
    whose permutation no code produces. A half's swaps are butterfly layers
    L = 2, 1, 0 (distance 4, 2, 1): the byte from row s at row d crossed pair
    s & 3, (s & 1) | (d & 4) >> 1 or d >> 1 & 3 of layer L if s ^ d has bit L,
    so each half's code is read from its word, then checked against the word."""
    u = _U64
    words = np.ascontiguousarray(perms, dtype=np.uint8).view("<u8")[..., 0]
    x = words ^ u[0x0706050403020100]
    layer2 = (x >> u[2] & _BYTE_ONES) * u[0x8040201008040201] >> u[60]  # bytes 0-3, reversed
    # each byte's layer-1 crossing to bit 3 - q and layer-0 crossing to bit 7 - r
    v = x << u[2] & u[0x0008000800080008] | x << u[1] & u[0x0400040004000400]  # odd s: q & 1
    low = x << u[7] & u[0x8080808080808080]
    v |= low - ((low & words << u[6]) >> u[1])  # d & 2: r & 1
    t = v & (words >> u[2] & _BYTE_ONES) * u[0xCC]  # d & 4: q & 2 and r & 2
    v -= t - (t >> u[2])
    for shift in (32, 16, 8):  # every byte's crossings, in byte 0
        v |= v >> u[shift]
    spread = layer2 | (v & u[0x0F]) << u[8] | (v & u[0xF0]) << u[12]  # byte L: layer 2 - L
    codes = layer2 | (v & u[0xFF]) << u[4]
    codes[:, 1] |= u[4096]  # half 1's table follows half 0's
    found = _WITHIN_PERMS.take(codes) == words
    both = (spread[:, 0] << u[4] | spread[:, 1]).view(np.uint8).reshape(-1, 8)[:, :3]
    missing = np.tile(-(~found).view(np.int8).repeat(4, axis=1), 3)  # -1: all bits set
    return np.unpackbits(both, axis=1).view(np.int8) | missing


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a last axis of 8k bits into k bytes, little-endian, in one flat pass."""
    return np.packbits(bits, bitorder="little").reshape(*bits.shape[:-1], bits.shape[-1] // 8)


def value_sets(values: np.ndarray) -> np.ndarray:
    """(..., 8k) values below 8 to the (..., k) uint8 sets of each run of eight."""
    words = np.left_shift(1, values, dtype=np.uint8, order="C").view("<u8")
    for shift in (32, 16, 8):
        words |= words >> shift
    return words.astype(np.uint8)


def plane_words(seed_star: np.ndarray, seed_known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the mask's bit-plane layout: (..., 16) masks to (..., 8) uint16
    words, word j holding bit j of each known byte p at bit p, and the
    (...,) uint16 word of the known bytes."""
    # byte j of a transposed half holds bit j of each of its bytes
    halves = _transpose_halves((seed_star * seed_known).reshape(-1, 8)).astype(np.uint16)
    words = (halves[0::2] | halves[1::2] << 8).reshape(seed_star.shape[:-1] + (8,))
    return words, pack_rows(seed_known).view("<u2")[..., 0]


def complement_classes(values: np.ndarray, full) -> np.ndarray:
    """How many classes {v, v ^ full} the values along the last axis fill; a
    mask from two plane seeds fills at most two with its plane words (full:
    the known-byte word) and at most two with its bytes (full: 0xFF)."""
    family = np.sort(np.minimum(values, values ^ full), axis=-1)
    return 1 + (family[..., 1:] != family[..., :-1]).sum(axis=-1)


# ---------------------------------------------------------------------------
# Steps over parts
# ---------------------------------------------------------------------------

def _rotate_rows(blocks: np.ndarray, amounts: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Rotate uint8 bytes left by their amounts, given back = -amounts & 7 (swapped: right)."""
    return blocks << amounts | blocks >> back


def column_keeps(amounts: np.ndarray) -> np.ndarray:
    """(3, B, 2) uint64: bit j of every byte at [k, b, h] if amount j of half h of
    block b has bit k (bit 8j of a half's word of amounts, times _GATHER_BITS, lands
    at 56 + j; times _BYTE_ONES, that top byte lands in every byte, every row)."""
    keeps = np.ascontiguousarray(amounts, dtype=np.uint8).view("<u8") >> _COLUMN_BITS
    keeps &= _BYTE_ONES
    keeps *= _GATHER_BITS
    keeps >>= _TOP_BYTE
    keeps *= _BYTE_ONES
    return keeps


def _rotate_columns(blocks: np.ndarray, keeps: np.ndarray, inverse=False) -> np.ndarray:
    """Shift column j of each half of (..., B, 16) blocks down by its amount, or up
    with ``inverse``, given ``column_keeps`` of the (B, 16) amounts.  A half is a
    64-bit word with row i in byte i, so a shift by 2^k rows is a rotation by 8 * 2^k
    bits, kept in the columns whose amount has bit k; the other rotation undoes it."""
    out = np.array(blocks, dtype=np.uint8, order="C")
    words = out.view("<u8")
    for shifts, keep in zip(_COLUMN_SHIFTS, keeps):
        left, right = shifts[::-1] if inverse else shifts
        t = words << left
        t |= words >> right
        t ^= words
        t &= keep
        words ^= t
    return out


def cross_swap(blocks: np.ndarray, swap_bits: np.ndarray) -> np.ndarray:
    """The eight disjoint cross-half swaps; they are their own inverse.

    ``blocks`` is (B, 16) uint8 or bool and ``swap_bits`` (B, 8) of 0s and
    1s, bit i swapping bytes i and i + 8.  Each half is one 64-bit word, and
    the swap is an XOR swap under the bits spread to 0xFF bytes.
    """
    out = np.array(blocks, order="C")
    halves = out.view("<u8")
    t = halves[:, :1] ^ halves[:, 1:]
    t &= np.ascontiguousarray(swap_bits, dtype=np.uint8).view("<u8") * 0xFF
    halves ^= t
    return out


def expansion_chain(start: int, passes: np.ndarray, last=None) -> np.ndarray:
    """The value each block inherits as its expanded byte 15, for every block.

    Block 0 inherits ``start``; block k hands block k+1 a value that depends
    on the value v it inherited, in one of two forms:

    * with ``last = last_dropped(keep)`` of a (B,) bool ``keep``: (v if
      keep[k] else 0) ^ passes[k].  That is the identity (l = 15) with keep
      and 0, a payload byte without keep, and a complement with keep and
      0xFF.  These maps compose to maps of the same form, so the last block
      that drops v and a prefix XOR give every value at once.
    * without: ``passes`` is a (B, S) next-state table over S small states,
      and block k hands on passes[k, v].  Adjacent tables are composed in
      pairs, level by level, and each level hands the states its pairs
      inherit back down.  A Python loop walks the first level of at most 32
      tables, so at most ceil(log2 B) - 5 levels are gathers, 2B tables in all.
    """
    num = len(passes)
    if last is None:
        states = passes.shape[1]
        levels = [passes]
        while len(levels[-1]) > 32:
            p = levels[-1]
            pairs = len(p) // 2
            # the table of blocks 2j and 2j + 1 together: p[2j + 1, p[2j, v]]
            # the flat starts of rows 2j + 1; int32 arithmetic moves half the bytes of intp
            odd = np.arange(states, 2 * pairs * states, 2 * states, dtype=np.int32)
            joined = np.take(p, p[0:2 * pairs:2] + odd[:, None])
            levels.append(np.concatenate([joined, p[-1:]]) if len(p) % 2 else joined)
        walk = [start]
        for table in levels[-1][:-1].tolist():
            walk.append(table[walk[-1]])
        inherited = np.array(walk[:len(levels[-1])], dtype=passes.dtype)
        for p in reversed(levels[:-1]):
            pairs = len(p) // 2
            out = np.empty(len(p), dtype=p.dtype)
            out[0::2] = inherited
            even = np.arange(0, 2 * pairs * states, 2 * states, dtype=np.int32)
            out[1::2] = np.take(p, even + inherited[:pairs])
            inherited = out
        return inherited
    acc = np.zeros(num + 1, dtype=passes.dtype)
    np.bitwise_xor.accumulate(passes[:-1], out=acc[1:num])
    acc[num] = start  # read as acc[-1]: no earlier block dropped its value
    return acc[:-1] ^ acc.take(last)


def last_dropped(keep: np.ndarray) -> np.ndarray:
    """(B,) int32: the last block before each that drops its value (keep False), or -1."""
    dropped = np.arange(len(keep) - 1, dtype=np.int32)
    dropped[keep[:-1]] = -1
    last = np.full(len(keep), -1, dtype=np.int32)
    np.maximum.accumulate(dropped, out=last[1:])
    return last



def _encrypt_parts(plain: bytes, schedule: KeySchedule, secret: int) -> bytes:
    """The encryption pipeline over the first blocks of a key's schedule, one per 15-byte block."""
    num = len(plain) // 15
    blocks = np.zeros((num, 16), dtype=np.uint8)
    blocks[:, :15] = np.frombuffer(bytes(plain), dtype=np.uint8).reshape(num, 15)
    # byte 15 is still 0, so a block with l = 15 hands on 0 and keeps its inherited byte
    blocks[:, 15] = expansion_chain(secret, blocks.take(schedule.l_index[:num]),
                                    schedule.last[:num])
    frame, gather = np.empty_like(blocks), schedule.gather[:num]
    for start in range(0, num, _FRAME_SLICE):  # no index is out of range, and "clip"
        part = slice(start, start + _FRAME_SLICE)  # spares the copy of out "raise" makes
        blocks.take(gather[part], out=frame[part], mode="clip")
    del blocks  # off the peak of the rotations
    frame ^= schedule.parts.seed_star[:num]
    frame = _rotate_rows(frame, schedule.parts.rot_x[:num], schedule.back_x[:num])
    return _rotate_columns(frame, schedule.keeps[:, :num]).tobytes()


def cipher_blocks(cipher: bytes, key_blocks: int | None = None) -> int:
    """The block count of a ciphertext; a key of ``key_blocks`` must cover it."""
    if len(cipher) % 16 != 0:
        raise NonDivisibleLength(f"ciphertext length {len(cipher)} not divisible by 16")
    if key_blocks is not None and len(cipher) // 16 > key_blocks:
        raise CiphertextTooLong(f"{len(cipher) // 16} blocks but key covers {key_blocks}")
    return len(cipher) // 16


def _unmask(cipher: bytes, rot_x, back_x, keeps, seed_star) -> np.ndarray:
    """The (B, 16) frame bytes of a ciphertext of B blocks, given the parts of
    those blocks: both rotations and the mask undone."""
    arr = np.frombuffer(bytes(cipher), dtype=np.uint8).reshape(-1, 16)
    arr = _rotate_rows(_rotate_columns(arr, keeps, inverse=True), back_x, rot_x)
    return np.bitwise_xor(arr, seed_star, out=arr)


def ees_decrypt(cipher: bytes, ek: EquivalentKey) -> bytes:
    """Decrypt with a key's parts; payload bytes are exact."""
    num = cipher_blocks(cipher, ek.num_blocks)
    # expanded byte q is crossed byte q, or q ^ 8 where its swap bit is set, and
    # perms moves crossed byte 8h + s to frame row 8h + perms[h, s]
    rows = cross_swap(ek.perms[:num].reshape(num, 16) + _HALF_BASE, ek.swap_bits[:num])[:, :15]
    out = np.empty((num, 15), dtype=np.uint8)
    for start in range(0, num, _FRAME_SLICE):  # one slice's keep masks, frame and index at a time
        part = slice(start, min(num, start + _FRAME_SLICE))
        rot_x = ek.rot_x[part]
        frame = _unmask(cipher[16 * start:16 * part.stop], rot_x, -rot_x & 7,
                        column_keeps(ek.rot_y[part]), ek.seed_star[part])
        index = np.arange(0, frame.size, 16, dtype=np.int32).repeat(15)
        index += rows[part].reshape(-1)
        frame.take(index, out=out[part].reshape(-1), mode="clip")
    return out.tobytes()


# Each key's schedule for its longest stream, under the generator memo's rules: 210
# bytes a block (74 of parts, 64 of gather, 72 of the rest) and about 2.65 KB of objects
# a key, at most 3,735,552 bytes in all, room for one 17,476-block key. Keyed without
# the secret, which enters only the expansion chain.
_parts_memo = BlockMemo(3_735_552, 210, 2_650, blocks=lambda held: len(held.gather))


def _secret_key_parts(key: SecretKey, num: int) -> KeySchedule:
    """The key's held schedule, covering ``num`` blocks or more; ``generate_prbs``
    runs on every call, a prefix view when its own memo holds the stream."""
    rows = generate_prbs(key.x0, num).rows
    ab1, ab2 = (key.alpha1, key.beta1), (key.alpha2, key.beta2)
    return _parts_memo.fetch((key.x0.raw, *ab1, *ab2), num, lambda: key_parts(rows, ab1, ab2))


def encrypt(plain: bytes, key: SecretKey) -> bytes:
    """Encrypt a plaintext whose length is divisible by 15."""
    if len(plain) % 15 != 0:
        raise NonDivisibleLength(f"plaintext length {len(plain)} not divisible by 15")
    num = len(plain) // 15
    if num == 0:
        return b""
    return _encrypt_parts(plain, _secret_key_parts(key, num), key.secret)


def decrypt(cipher: bytes, key: SecretKey) -> bytes:
    """Invert the pipeline; output length is 15/16 of the input length."""
    num = cipher_blocks(cipher)
    if num == 0:
        return b""
    schedule = _secret_key_parts(key, num)
    frame = _unmask(cipher, schedule.parts.rot_x[:num], schedule.back_x[:num],
                    schedule.keeps[:, :num], schedule.parts.seed_star[:num])
    out, gather = np.empty(16 * num, dtype=np.uint8), schedule.gather[:num].reshape(-1)
    for start in range(0, 16 * num, 16 * _FRAME_SLICE):  # expanded byte gather[k, r] is
        part = slice(start, start + 16 * _FRAME_SLICE)  # frame byte r; flat intp is fastest
        out[gather[part].astype(np.intp)] = frame.reshape(-1)[part]
    return out.reshape(num, 16)[:, :15].tobytes()
