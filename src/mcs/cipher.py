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
Encryption applies those parts forward and ``decrypt`` is ``ees_decrypt``
over them.

Rotation conventions (fixed for the whole package):
  * a row amount a moves the bit at column c to column (c + a) % 8,
    i.e. a left-rotate of the byte value;
  * a column amount s moves the bit at row i to row (i + s) % 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SecretKey
from .errors import CiphertextTooLong, NonDivisibleLength
from .prbg import generate_prbs

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

# _ROT[a << 8 | b] = byte b with every bit moved from column c to column (c+a) % 8.
_ROT = np.array(
    [((b << a) | (b >> (8 - a))) & 0xFF for a in range(8) for b in range(256)],
    dtype=np.uint8,
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


def _swap_layers(table) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each run of 8 disjoint swaps as (partner, controlling bit) per byte."""
    layers = []
    for g in range(0, len(table), 8):
        partner = np.arange(16)
        control = np.zeros(16, dtype=np.int64)
        for i, j, l in table[g:g + 8]:
            partner[i], partner[j] = j, i
            control[i] = control[j] = l
        layers.append((partner, control))
    return layers


# each half's 12 within-half swap bits, in table order: its code's bits, MSB first
_WITHIN_COLUMNS = np.array([[l for i, _, l in SWAP_TABLE[8:] if i // 8 == half]
                            for half in range(2)])
_CODE_SHIFTS = np.arange(11, -1, -1, dtype=np.uint16)


def _within_perm_table() -> np.ndarray:
    """(2 * 4096,) uint64: the eight bytes (source row -> frame row) of half
    h's within-half permutation, at h * 4096 + the half's code.

    A half's code holds the controlling bits of its 12 within-half swaps,
    in table order and MSB first: bits 12-15, 20-23, 28-31 for the first
    half and bits 16-19, 24-27, 32-35 for the second.
    """
    codes = np.arange(4096, dtype=np.uint16)
    bits = np.zeros((4096, 36), dtype=np.uint8)
    for columns in _WITHIN_COLUMNS:
        bits[:, columns] = codes[:, None] >> _CODE_SHIFTS & 1
    # source[:, r] = the byte the within-half swaps move to frame position r
    source = np.tile(np.arange(16, dtype=np.uint8), (4096, 1))
    for partner, control in _swap_layers(SWAP_TABLE[8:]):
        source = np.where(bits[:, control] == 1, source[:, partner], source)
    perms = np.empty((4096, 16), dtype=np.uint8)
    np.put_along_axis(perms, source,
                      np.broadcast_to(np.arange(16, dtype=np.uint8) % 8, (4096, 16)), axis=1)
    return perms.reshape(4096, 2, 8).transpose(1, 0, 2).copy().view("<u8").reshape(-1)


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


def _selector_table() -> np.ndarray:
    """(256,) uint16: a byte of four (seed, complement) selector pairs, MSB
    first -> the planes that take seed1 (low byte) and the planes whose seed
    is complemented (high byte), the byte's pair j at bit j."""
    byte = np.arange(256)
    pick1 = flip = 0
    for j in range(4):
        pick1 = pick1 | (byte >> (7 - 2 * j) & 1) << j
        flip = flip | (~byte >> (6 - 2 * j) & 1) << j
    return (pick1 | flip << 8).astype(np.uint16)


_WITHIN_PERMS = _within_perm_table()
_ROTATION_AMOUNTS = _rotation_amount_table()
_SELECTORS = _selector_table()
# [byte] -> 0xFF for its high and for its low nibble, in that order, if the
# nibble's parity is odd
_ODD_NIBBLES = np.array([[0xFF * (bin(b >> 4).count("1") & 1),
                          0xFF * (bin(b & 15).count("1") & 1)] for b in range(256)],
                        dtype=np.uint8).view("<u2")[:, 0]
# Bits 65..128 are eight bytes of rotation codes: the row amounts, then the
# column amounts of the first half, then of the second. key_parts reads the
# row bytes of both halves first, each from its half's 256 table entries.
_ROTATION_BYTES = [0, 1, 4, 5, 2, 3, 6, 7]
_ROTATION_HALF = np.array([0, 0, 256, 256, 0, 0, 256, 256])
# the direction bit of each rotation part, rot_x's 16 then rot_y's 16; the
# magnitude bit follows it
ROTATION_BITS = 65 + 8 * np.repeat(_ROTATION_BYTES, 4) + 2 * np.tile(np.arange(4), 8)
_HALF_BASE = np.repeat(np.array([0, 8], dtype=np.uint8), 8)


# ---------------------------------------------------------------------------
# The parts
# ---------------------------------------------------------------------------

@dataclass
class EquivalentKey:
    """Per-block parts of a key, in a self-consistent frame.

    The attack recovers them up to a per-half cyclic frame offset and marks
    what it could not observe; ``key_parts`` expands a true key into them
    with frame offset 0 and everything known.
    """

    num_blocks: int
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


def expansion_l_values(bits: np.ndarray) -> np.ndarray:
    """l(k) = b(129k) + 2 b(129k+1) + 4 b(129k+2) + 8 b(129k+3) for every block."""
    return (bits[:, 0] + 2 * bits[:, 1] + 4 * bits[:, 2]
            + 8 * bits[:, 3]).astype(np.int16)


def key_parts(bits: np.ndarray, ab1, ab2) -> EquivalentKey:
    """Expand a controlling-bit matrix and the rotation sub-keys into parts.

    ``bits`` has shape (blocks, 129); ab1/ab2 are the (alpha, beta) pairs of
    the two halves.
    """
    num = bits.shape[0]
    packed = np.packbits(bits, axis=1)  # byte j holds bits 8j..8j+7, MSB first
    # each half's swap code: the low nibbles of bytes 1-3, the high ones of 2-4
    nib = packed[:, 1:5].astype(np.intp)
    codes = np.stack([(nib[:, 0] & 15) << 8 | (nib[:, 1] & 15) << 4 | nib[:, 2] & 15,
                      4096 + ((nib[:, 1] >> 4) << 8 | (nib[:, 2] >> 4) << 4 | nib[:, 3] >> 4)],
                     axis=1)
    perms = np.take(_WITHIN_PERMS, codes).view(np.uint8).reshape(num, 2, 8)
    # Mask byte i, bit j is bit i of plane j's seed; eight mask bytes make a
    # word. Bit i of seed1 (seed2) is the parity of bits 4i..4i+3 (64+4i..),
    # so words 0-1 of ``odd`` hold seed1's bits and words 2-3 seed2's.
    odd = np.take(_ODD_NIBBLES, packed[:, :16]).view("<u8")
    # the selector pairs of planes 0-3 are bits 36..43, of planes 4-7 bits 44..51
    selectors = (np.take(_SELECTORS, packed[:, 4] << 4 | packed[:, 5] >> 4)
                 | np.take(_SELECTORS, packed[:, 5] << 4 | packed[:, 6] >> 4) << 4)
    # each plane's selector bits, repeated in every byte of a word
    spread = selectors.view(np.uint8).reshape(num, 2).astype(np.uint64) * 0x0101010101010101
    pick1, flip = spread[:, :1], spread[:, 1:]
    seed_star = ((odd[:, :2] & pick1 | odd[:, 2:] & ~pick1) ^ flip).view(np.uint8)
    pairs = (packed[:, 8:16] << 1 | packed[:, 9:17] >> 7)[:, _ROTATION_BYTES]  # bits 65..128
    table = np.concatenate([_ROTATION_AMOUNTS[tuple(ab1)], _ROTATION_AMOUNTS[tuple(ab2)]])
    amounts = np.take(table, pairs + _ROTATION_HALF).view(np.uint8)
    known = lambda width: np.broadcast_to(True, (num, width))
    return EquivalentKey(
        num, expansion_l_values(bits), {}, bits[:, 4:12], known(8),
        perms, seed_star, known(16), amounts[:, :16], known(16), amounts[:, 16:])


def within_swap_bits(perms: np.ndarray) -> np.ndarray:
    """Invert ``key_parts``' permutation gather: true-frame (B, 2, 8) perms to
    bits 12..35 as (B, 24) int8, column t-12 for bit t, and -1 across a half
    whose permutation no code produces."""
    words = np.ascontiguousarray(perms, dtype=np.uint8).view("<u8")[..., 0]
    table = _WITHIN_PERMS.reshape(2, 4096)
    # each half's words in ascending order; sorted per call (0.2 ms), since
    # sorting at import raised the peak RSS of every process by ~0.4 MB
    codes_in_order = np.argsort(table, axis=1)
    ordered = np.take_along_axis(table, codes_in_order, axis=1)
    out = np.full((len(words), 36), -1, dtype=np.int8)
    for half, columns in enumerate(_WITHIN_COLUMNS):
        at = np.minimum(np.searchsorted(ordered[half], words[:, half]), 4095)
        found = ordered[half, at] == words[:, half]
        codes = codes_in_order[half, at[found]]
        out[np.flatnonzero(found)[:, None], columns] = codes[:, None] >> _CODE_SHIFTS & 1
    return out[:, 12:]


def _pack16(bits: np.ndarray) -> np.ndarray:
    """Pack a last axis of 16 bits, bit p at position p, into uint16 words."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u2")[..., 0]


def plane_words(seed_star: np.ndarray, seed_known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the mask's bit-plane layout: (..., 16) masks to (..., 8) uint16
    words, word j holding bit j of each known byte p at bit p, and the
    (...,) uint16 word of the known bytes."""
    planes = (seed_star[..., None, :] >> np.arange(8, dtype=np.uint8)[:, None]) & 1
    return _pack16(planes.astype(bool) & seed_known[..., None, :]), _pack16(seed_known)


def complement_classes(values: np.ndarray, full) -> np.ndarray:
    """How many classes {v, v ^ full} the values along the last axis fill; a
    mask from two plane seeds fills at most two with its plane words (full:
    the known-byte word) and at most two with its bytes (full: 0xFF)."""
    family = np.sort(np.minimum(values, values ^ full), axis=-1)
    return 1 + (family[..., 1:] != family[..., :-1]).sum(axis=-1)


# ---------------------------------------------------------------------------
# Steps over parts
# ---------------------------------------------------------------------------

def _rotate_rows(blocks: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """Rotate each byte left by its amount (0..7): one gather from ``_ROT``."""
    index = amounts.astype(np.uint16) << 8
    index |= blocks
    return np.take(_ROT, index)


def _rotate_columns(blocks: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    """Shift column j of each half down by the half's amount j."""
    cols = _transpose_halves(np.ascontiguousarray(blocks).reshape(-1, 8))
    return _transpose_halves(_rotate_rows(cols, amounts.reshape(-1, 8))).reshape(-1, 16)


def inverse_rotations(blocks: np.ndarray, rot_y: np.ndarray,
                      rot_x: np.ndarray | None = None) -> np.ndarray:
    """Undo the column rotations, then the row rotations unless rot_x is None."""
    out = _rotate_columns(blocks, -rot_y & 7)
    return out if rot_x is None else _rotate_rows(out, -rot_x & 7)


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


def _frame_index(perms: np.ndarray) -> np.ndarray:
    """(B, 16) indices into a flat (B, 16) array: byte s of half h of block
    k at 16k + 8h + perms[k, h, s]."""
    num = len(perms)
    index = np.arange(0, 16 * num, 16)[:, None] + _HALF_BASE
    index += perms.reshape(num, 16)
    return index


def to_frame(blocks: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Move byte s of each half to that half's frame row perms[:, half, s]."""
    out = np.empty(blocks.shape, dtype=blocks.dtype)
    out.reshape(-1)[_frame_index(perms)] = blocks
    return out


def expansion_chain(start: int, passes: np.ndarray, keep=None) -> np.ndarray:
    """The value each block inherits as its expanded byte 15, for every block.

    Block 0 inherits ``start``; block k hands block k+1 a value that depends
    on the value v it inherited, in one of two forms:

    * with a (B,) bool ``keep``: (v if keep[k] else 0) ^ passes[k].  That
      is the identity (l = 15) with keep and 0, a payload byte without keep,
      and a complement with keep and 0xFF.  These maps compose to maps of
      the same form, so a forward fill of the last block that drops v and a
      prefix XOR give every value at once.
    * without: ``passes`` is a (B, S) next-state table over S small states,
      and block k hands on passes[k, v].  Adjacent tables are composed in
      pairs, level by level, and each level hands the states its pairs
      inherit back down: ceil(log2 B) levels of gathers, 2B tables in all.
    """
    num = len(passes)
    if keep is None:
        states = passes.shape[1]
        levels = [passes]
        while len(levels[-1]) > 1:
            p = levels[-1]
            pairs = len(p) // 2
            # the table of blocks 2j and 2j + 1 together: p[2j + 1, p[2j, v]]
            joined = np.take(p, p[0:2 * pairs:2] + np.arange(1, 2 * pairs, 2)[:, None] * states)
            levels.append(np.concatenate([joined, p[-1:]]) if len(p) % 2 else joined)
        inherited = np.full(min(num, 1), start, dtype=passes.dtype)
        for p in reversed(levels[:-1]):
            pairs = len(p) // 2
            out = np.empty(len(p), dtype=p.dtype)
            out[0::2] = inherited
            out[1::2] = np.take(p, np.arange(0, 2 * pairs, 2) * states + inherited[:pairs])
            inherited = out
        return inherited
    acc = np.zeros(num + 1, dtype=passes.dtype)
    np.bitwise_xor.accumulate(passes[:-1], out=acc[1:num])
    acc[num] = start  # read as acc[-1]: no earlier block dropped its value
    # last[k]: the last block before k that dropped its inherited value, or -1
    dropped = np.arange(num - 1, dtype=np.int32)
    dropped[keep[:-1]] = -1
    last = np.full(num, -1, dtype=np.int32)
    np.maximum.accumulate(dropped, out=last[1:])
    return acc[:-1] ^ acc[last]


def encrypt_with_stream(plain: bytes, bits: np.ndarray, ab1, ab2,
                        secret: int) -> bytes:
    """The encryption pipeline driven by an explicit controlling-bit matrix.

    ``bits`` has shape (blocks, 129); ab1/ab2 are the (alpha, beta) pairs of
    the two halves.
    """
    if len(plain) % 15 != 0 or bits.shape != (len(plain) // 15, 129):
        raise NonDivisibleLength(
            f"plaintext of {len(plain)} bytes needs a ({len(plain) // 15}, 129) "
            f"bit matrix, got {bits.shape}")
    num = len(plain) // 15
    parts = key_parts(bits, ab1, ab2)
    blocks = np.zeros((num, 16), dtype=np.uint8)
    blocks[:, :15] = np.frombuffer(bytes(plain), dtype=np.uint8).reshape(num, 15)
    # byte 15 is still 0, so a block with l = 15 hands on 0 and keeps its inherited byte
    l_values = parts.l_values
    blocks[:, 15] = expansion_chain(secret, blocks[np.arange(num), l_values],
                                    keep=l_values == 15)
    frame = to_frame(cross_swap(blocks, parts.swap_bits), parts.perms)
    frame ^= parts.seed_star
    return _rotate_columns(_rotate_rows(frame, parts.rot_x), parts.rot_y).tobytes()


def ees_decrypt(cipher: bytes, ek: EquivalentKey) -> bytes:
    """Decrypt with a key's parts; payload bytes are exact."""
    if len(cipher) % 16 != 0:
        raise NonDivisibleLength(f"ciphertext length {len(cipher)} not divisible by 16")
    num = len(cipher) // 16
    if num > ek.num_blocks:
        raise CiphertextTooLong(f"{num} blocks but key covers {ek.num_blocks}")
    if num == 0:
        return b""
    arr = np.frombuffer(bytes(cipher), dtype=np.uint8).reshape(num, 16)
    arr = inverse_rotations(arr, ek.rot_y[:num], ek.rot_x[:num])
    arr ^= ek.seed_star[:num]
    arr = np.take(arr, _frame_index(ek.perms[:num]))
    return cross_swap(arr, ek.swap_bits[:num])[:, :15].tobytes()


def encrypt(plain: bytes, key: SecretKey) -> bytes:
    """Encrypt a plaintext whose length is divisible by 15."""
    if len(plain) % 15 != 0:
        raise NonDivisibleLength(f"plaintext length {len(plain)} not divisible by 15")
    num = len(plain) // 15
    if num == 0:
        return b""
    bits = generate_prbs(key.x0, num).bits
    return encrypt_with_stream(plain, bits, (key.alpha1, key.beta1),
                               (key.alpha2, key.beta2), key.secret)


def decrypt(cipher: bytes, key: SecretKey) -> bytes:
    """Invert the pipeline; output length is 15/16 of the input length."""
    if len(cipher) % 16 != 0:
        raise NonDivisibleLength(f"ciphertext length {len(cipher)} not divisible by 16")
    num = len(cipher) // 16
    if num == 0:
        return b""
    bits = generate_prbs(key.x0, num).bits
    return ees_decrypt(cipher, key_parts(bits, (key.alpha1, key.beta1),
                                         (key.alpha2, key.beta2)))
