"""Post-processing of an equivalent key: rotation-amount sets, candidate
(alpha, beta) sub-keys, per-block frame offsets, and controlling bits.

The horizontal amounts in an equivalent key are true rotation amounts read
at cyclically shifted row indices, so their value set equals the true set
R = {alpha, 8-alpha, alpha+beta, 8-(alpha+beta)}.  The vertical amounts are
true amounts plus the block's frame offset, so comparing their value set
with R pins the offset up to R's rotational symmetry.  Once a block's two
offsets are unique, the within-half byte-swap permutations and the mask
bytes can be moved back to the true frame and their controlling bits read
off; rotation controlling bits are only ever constrained to two-element
pair sets.

Every stage works on all blocks at once as numpy arrays; per-block Python
objects are built only for the report's public fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import EquivalentKey
from .core import legal_alpha_beta_pairs
from .errors import DomainError, IllegalSet


def rotation_set(alpha: int, beta: int) -> frozenset[int]:
    return frozenset({alpha, 8 - alpha, alpha + beta, 8 - (alpha + beta)})


def recover_rotation_sets(ek: EquivalentKey) -> tuple[frozenset[int], frozenset[int]]:
    """Union of {r, 8-r} over all recovered horizontal amounts, per half."""
    out = []
    for m in (0, 1):
        vals = ek.rot_x[:, 8 * m:8 * m + 8][ek.rotx_known[:, 8 * m:8 * m + 8]]
        members = set()
        for v in np.unique(vals):
            members.add(int(v))
            members.add(8 - int(v))
        out.append(frozenset(members))
    return out[0], out[1]


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


def _unique_offsets(s_offsets: list[tuple[int | frozenset, int | frozenset]]
                    ) -> np.ndarray:
    """(blocks, 2) int64 frame offsets; -1 where a half's offset is ambiguous."""
    return np.fromiter((-1 if isinstance(t, frozenset) else t
                        for off in s_offsets for t in off),
                       dtype=np.int64, count=2 * len(s_offsets)).reshape(-1, 2)


def _offset_entry(mask: int) -> int | frozenset[int]:
    """The offset an 8-bit candidate mask leaves, or the set when not unique."""
    cands = frozenset(t for t in range(8) if mask >> t & 1)
    return next(iter(cands)) if len(cands) == 1 else cands


def determine_s_offsets(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int]
                        ) -> list[tuple[int | frozenset, int | frozenset]]:
    """Per block, the frame offset of each half, or the candidate set.

    A candidate offset t is valid when the block's observed vertical
    amounts all lie in the rotation set translated by t; rotational symmetry
    of the set ({2,6} and {1,3,5,7}) makes some blocks inherently ambiguous.
    """
    halves = []
    for m, r in enumerate((r1, r2)):
        allowed = np.array([sum(1 << (x + t) % 8 for x in r) for t in range(8)],
                           dtype=np.uint8)
        observed = np.bitwise_or.reduce(1 << ek.rot_y[:, 8 * m:8 * m + 8], axis=1)
        fits = (observed[:, None] & ~allowed) == 0
        cands = np.packbits(fits, axis=1, bitorder="little")[:, 0]
        entry = {c: _offset_entry(c) for c in np.unique(cands).tolist()}
        halves.append([entry[c] for c in cands.tolist()])
    return list(zip(*halves))


# Within-half swap phases as column pairs: across quarters, across
# pair-of-pairs, within pairs.  Phase p of half m holds controlling bits
# 12 + 8p + 4m .. +3.
_PHASE1 = ((0, 4), (1, 5), (2, 6), (3, 7))
_PHASE2 = ((0, 2), (1, 3), (4, 6), (5, 7))
_PHASE3 = ((0, 1), (2, 3), (4, 5), (6, 7))


def _swap_columns(perm: np.ndarray, pairs, bits: np.ndarray) -> np.ndarray:
    """Apply disjoint conditional column swaps to a (blocks, 8) array."""
    out = perm.copy()
    for (i, j), b in zip(pairs, bits.T):
        out[:, i] = np.where(b, perm[:, j], perm[:, i])
        out[:, j] = np.where(b, perm[:, i], perm[:, j])
    return out


def recover_swap_bits_9to35(ek: EquivalentKey,
                            s_offsets: list[tuple[int | frozenset, int | frozenset]]
                            ) -> np.ndarray:
    """Bits b(129k+12..35) as a (blocks, 24) int8 array, column t-12 for bit t.

    Each half's 12 conditional swaps decompose into three phases (across
    quarters, across pair-of-pairs, within pairs); once the true permutation
    is known, each phase's four bits are forced in turn.  A half whose
    offset is ambiguous reads -1.
    """
    t = _unique_offsets(s_offsets)
    out = np.full((ek.num_blocks, 24), -1, dtype=np.int8)
    bad = np.zeros((ek.num_blocks, 2), dtype=bool)
    a, b = np.array(_PHASE3).T
    for m in (0, 1):
        ok = t[:, m] >= 0
        perm = (ek.perms[:, m, :].astype(np.int64) + t[:, m:m + 1]) % 8
        p1 = perm[:, :4] >= 4
        star = _swap_columns(perm, _PHASE1, p1)
        p2 = np.concatenate([np.isin(star[:, :2], (2, 3)),
                             np.isin(star[:, 4:6], (6, 7))], axis=1)
        star2 = _swap_columns(star, _PHASE2, p2)
        p3 = (star2[:, a] == b) & (star2[:, b] == a)
        fixed = (star2[:, a] == a) & (star2[:, b] == b)
        bad[:, m] = ok & ~(p3 | fixed).all(axis=1)
        for phase, bits in enumerate((p1, p2, p3)):
            col = 8 * phase + 4 * m
            out[ok, col:col + 4] = bits[ok]
    if bad.any():
        k, m = np.argwhere(bad)[0]
        raise DomainError(f"block {k} half {m}: permutation is not phase-decomposable")
    return out


@dataclass
class MaskingRecovery:
    """Per-block outcome of the masking-bit stage."""

    bits: dict[int, int] = field(default_factory=dict)
    seed1: int | None = None
    status: str = "ok"  # ok | gated | single-family | collision | inconsistent


_OK, _GATED, _SINGLE, _COLLISION, _INCONSISTENT = range(5)
_MASKING_STATUS = ("ok", "gated", "single-family", "collision", "inconsistent")


def _pack16(bits: np.ndarray) -> np.ndarray:
    """Pack a last axis of 16 bits, bit p at position p, into uint16 words."""
    return np.packbits(bits, axis=-1, bitorder="little").view("<u2")[..., 0]


def recover_masking_bits(ek: EquivalentKey,
                         s_offsets: list[tuple[int | frozenset, int | frozenset]],
                         known_bits: np.ndarray) -> list[MaskingRecovery]:
    """Bits b(129k+36+2j) and, for first-seed planes, b(129k+37+2j).

    ``known_bits`` is a (blocks, 36) int8 array of the already-recovered
    controlling bits 0..35, -1 where unknown.  The nine low bits of the
    first plane seed are recomputed from those bits and matched against the
    bit-plane words of the de-offset mask.  Assignment happens only when
    exactly one complement-class of plane words matches and another class
    witnesses the mismatch, so a reported bit is never a guess.
    """
    n = ek.num_blocks
    t = _unique_offsets(s_offsets)
    # true row p of half m sits at frame row (p - t) % 8 of that half
    src = ((np.arange(8) - t[:, :, None]) % 8 + np.array([[0], [8]])).reshape(n, 16)
    seed = np.take_along_axis(ek.seed_star, src, axis=1)
    known = np.take_along_axis(ek.seed_known, src, axis=1)
    mask_full = _pack16(known)
    mask_low = mask_full & 0x1FF
    # bit i of the first seed's low word is the parity of bits 4i..4i+3
    nibble_parity = np.bitwise_xor.reduce(known_bits.reshape(n, 9, 4), axis=2) & 1
    seed1_low = nibble_parity @ (1 << np.arange(9))
    planes = ((seed[:, None, :] >> np.arange(8)[:, None]) & 1).astype(bool)
    words = _pack16(planes & known[:, None, :])               # (blocks, 8) uint16
    family = np.minimum(words, words ^ mask_full[:, None])    # complement class
    ordered = np.sort(family, axis=1)
    groups = 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)
    s1 = seed1_low & mask_low
    low = words & mask_low[:, None]
    # a plane's match is shared by its whole complement class
    match = (low == s1[:, None]) | (low == (s1 ^ mask_low)[:, None])
    matches = match.sum(axis=1)
    gated = (t < 0).any(axis=1) | (known_bits < 0).any(axis=1)
    status = np.select(
        [gated, groups > 2, mask_low == 0, (groups == 1) & (matches > 0),
         (groups == 2) & (matches == 8), (groups == 2) & (matches == 0)],
        [_GATED, _INCONSISTENT, _GATED, _SINGLE, _COLLISION, _INCONSISTENT], _OK)
    ok = status == _OK
    # one class: every plane provably uses the second seed (no match); two
    # classes: the matching class is the first seed's
    bits = np.full((n, 16), -1, dtype=np.int8)
    bits[ok, 0::2] = match[ok]
    bits[:, 1::2] = np.where(ok[:, None] & match, low == s1[:, None], -1)
    j0 = np.argmax(match, axis=1)
    w0 = words[np.arange(n), j0]
    seed1 = np.where(low[np.arange(n), j0] == s1, w0, w0 ^ mask_full).astype(np.int64)
    seed1[~(ok & (groups == 2) & (mask_full == 0xFFFF))] = -1
    return [MaskingRecovery({36 + i: b for i, b in enumerate(row) if b >= 0},
                            None if s < 0 else s, _MASKING_STATUS[c])
            for row, s, c in zip(bits.tolist(), seed1.tolist(), status.tolist())]


def rotation_pair_constraints(r: frozenset[int], value: int
                              ) -> frozenset[tuple[int, int]]:
    """Admissible (direction bit, magnitude bit) pairs for one amount.

    Derived by enumerating every candidate (alpha, beta) of the set and
    every bit pair that produces the observed amount.
    """
    pairs = set()
    for a, b in candidate_alpha_beta(r):
        for pb in (0, 1):
            for mb in (0, 1):
                amount = a + b * mb
                if pb:
                    amount = 8 - amount
                if amount % 8 == value % 8:
                    pairs.add((pb, mb))
    if not pairs:
        raise IllegalSet(f"amount {value} impossible for set {sorted(r)}")
    return frozenset(pairs)


def constrain_rotation_bits(ek: EquivalentKey, r1: frozenset[int], r2: frozenset[int],
                            s_offsets: list[tuple[int | frozenset, int | frozenset]]
                            ) -> dict[tuple[int, int], frozenset]:
    """Admissible (direction, magnitude) bit pairs for every rotation.

    Keys are absolute controlling-bit index pairs in ascending order;
    offsets must be unique for the half a rotation belongs to, and
    unrecovered horizontal rows are skipped.  No rotation bit is ever pinned
    to a single value.
    """
    t = _unique_offsets(s_offsets)
    rows = np.arange(8)
    block_base = 129 * np.arange(ek.num_blocks)[:, None]
    los, amounts = [], []
    for m, (h_base, v_base) in enumerate(((65, 81), (97, 113))):
        ok = (t[:, m] >= 0)[:, None]
        src = (rows - t[:, m:m + 1]) % 8 + 8 * m
        h_ok = ok & np.take_along_axis(ek.rotx_known, src, axis=1)
        h_amount = np.take_along_axis(ek.rot_x, src, axis=1)
        v_amount = (ek.rot_y[:, 8 * m:8 * m + 8].astype(np.int64) - t[:, m:m + 1]) % 8
        v_ok = np.broadcast_to(ok, v_amount.shape)
        los += [(block_base + h_base + 2 * rows)[h_ok],
                (block_base + v_base + 2 * rows)[v_ok]]
        amounts += [8 * m + h_amount[h_ok], 8 * m + v_amount[v_ok]]
    lo = np.concatenate(los)
    order = np.argsort(lo)
    lo, amount = lo[order], np.concatenate(amounts)[order]
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
    masking: list[MaskingRecovery]
    num_blocks: int

    def bit_state(self, index: int) -> str:
        if index in self.known_bits:
            return "one" if self.known_bits[index] else "zero"
        if (index, index + 1) in self.constrained or (index - 1, index) in self.constrained:
            return "constrained"
        return "unknown"


def recover_report(ek: EquivalentKey) -> RecoveryReport:
    """Run the whole sub-key recovery pipeline over an equivalent key."""
    r1, r2 = recover_rotation_sets(ek)
    try:
        cand1 = candidate_alpha_beta(r1)
    except IllegalSet:
        cand1 = frozenset()
    try:
        cand2 = candidate_alpha_beta(r2)
    except IllegalSet:
        cand2 = frozenset()
    offsets = determine_s_offsets(ek, r1, r2)

    # controlling bits 0..35 of every block, -1 where unknown
    bits = np.full((ek.num_blocks, 36), -1, dtype=np.int8)
    has_l = ek.l_values >= 0
    bits[has_l, :4] = (ek.l_values[has_l, None] >> np.arange(4)) & 1
    bits[:, 4:12] = np.where(ek.swap_known, ek.swap_bits.astype(np.int8), -1)
    bits[:, 12:] = recover_swap_bits_9to35(ek, offsets)
    masking = recover_masking_bits(ek, offsets, bits)
    blocks, index = np.nonzero(bits >= 0)
    known = dict(zip((129 * blocks + index).tolist(), bits[blocks, index].tolist()))
    known.update((129 * k + i, b) for k, rec in enumerate(masking)
                 for i, b in rec.bits.items())

    if cand1 and cand2:
        constrained = constrain_rotation_bits(ek, r1, r2, offsets)
    else:
        constrained = {}

    return RecoveryReport(r1, r2, cand1, cand2, offsets, known, constrained,
                          masking, ek.num_blocks)
