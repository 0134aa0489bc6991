"""Naive straight-from-the-definition cipher used as an independent oracle.

Everything here works on plain Python lists, one index at a time, with the
bit-plane form of the masking step and explicit 8x8 matrices for the
rotations.  It deliberately shares no code with the vectorized pipeline in
mcs.cipher beyond the key/PRBS types.

Each step is its own function over one 16-byte block (a list of ints) and
that block's 129 controlling bits ``b``; ``ref_encrypt`` and ``ref_decrypt``
compose them.
"""

MULT = 419
MASK129 = (1 << 129) - 1

SWAPS = [
    (0, 8, 4), (1, 9, 5), (2, 10, 6), (3, 11, 7),
    (4, 12, 8), (5, 13, 9), (6, 14, 10), (7, 15, 11),
    (0, 4, 12), (1, 5, 13), (2, 6, 14), (3, 7, 15),
    (8, 12, 16), (9, 13, 17), (10, 14, 18), (11, 15, 19),
    (0, 2, 20), (1, 3, 21), (4, 6, 22), (5, 7, 23),
    (8, 10, 24), (9, 11, 25), (12, 14, 26), (13, 15, 27),
    (0, 1, 28), (2, 3, 29), (4, 5, 30), (6, 7, 31),
    (8, 9, 32), (10, 11, 33), (12, 13, 34), (14, 15, 35),
]


def ref_bits(x0_raw, num_blocks):
    """b(0 .. 129*num_blocks - 1) as a flat list of ints."""
    bits = []
    x = x0_raw
    for _ in range(num_blocks):
        for t in range(129):
            bits.append((x >> (128 - t)) & 1)
        parity = bin(x & ((1 << 64) - 1)).count("1") % 2
        h = MASK129 if parity else 0
        x = ((x ^ h) * MULT >> 8) & MASK129
    return bits


def block_weight(block):
    """Sum of per-byte Hamming weights over a block."""
    return sum(bin(x).count("1") for x in block)


def _to_matrix(byte_list):
    return [[(byte_list[i] >> j) & 1 for j in range(8)] for i in range(8)]


def _from_matrix(m):
    return [sum(m[i][j] << j for j in range(8)) for i in range(8)]


def ref_l(b):
    """The block's expansion index l = b0 + 2 b1 + 4 b2 + 8 b3."""
    return sum(b[i] << i for i in range(4))


def ref_expand(plain15, temp, l):
    """Append temp to a 15-byte block; the new temp is the result's byte l."""
    f16 = list(plain15) + [temp]
    return f16, f16[l]


def ref_chain(start, num_blocks, hand_on):
    """The value each block inherits, walked one block at a time.

    Block 0 inherits ``start``; block k hands block k+1 the value
    hand_on(k, v), where v is the value block k inherited.
    """
    out = []
    v = start
    for k in range(num_blocks):
        out.append(v)
        v = hand_on(k, v)
    return out


def ref_to_frame(blocks, perms):
    """Move byte s of half h of each 16-byte block to that half's frame row
    perms[k][h][s]."""
    out = [[0] * 16 for _ in blocks]
    for k, block in enumerate(blocks):
        for h in range(2):
            for s in range(8):
                out[k][8 * h + perms[k][h][s]] = block[8 * h + s]
    return out


def ref_swap(f16, b, inverse=False):
    """The 32 conditional transpositions in table order (reversed to undo)."""
    f16 = list(f16)
    for (i, j, c) in (reversed(SWAPS) if inverse else SWAPS):
        if b[c]:
            f16[i], f16[j] = f16[j], f16[i]
    return f16


def ref_mask(f16, b):
    """Value masking in bit-plane form; it is its own inverse."""
    f16 = list(f16)
    seed1 = 0
    seed2 = 0
    for i in range(16):
        s = b[4 * i] ^ b[4 * i + 1] ^ b[4 * i + 2] ^ b[4 * i + 3]
        seed1 += s << i
    for i in range(16, 32):
        s = b[4 * i] ^ b[4 * i + 1] ^ b[4 * i + 2] ^ b[4 * i + 3]
        seed2 += s << (i - 16)
    for j in range(8):
        plane = 0
        for i in range(16):
            plane |= ((f16[i] >> j) & 1) << i
        bj = 2 * b[36 + 2 * j] + b[37 + 2 * j]
        seed = {3: seed1, 2: seed1 ^ 0xFFFF, 1: seed2, 0: seed2 ^ 0xFFFF}[bj]
        plane ^= seed
        for i in range(16):
            f16[i] = (f16[i] & ~(1 << j)) | (((plane >> i) & 1) << j)
    return f16


def ref_rotate_rows(f16, b, ab1, ab2, inverse=False):
    """Rotate row i of each half right by its amount: column c -> c + amount."""
    f16 = list(f16)
    sign = -1 if inverse else 1
    for half, ((alpha, beta), base) in enumerate([(ab1, 65), (ab2, 97)]):
        m = _to_matrix(f16[8 * half:8 * half + 8])
        for i in range(8):
            p = b[base + 2 * i]
            r = alpha + beta * b[base + 1 + 2 * i]
            rbar = (8 - r) if p else r
            row = m[i]
            m[i] = [row[(j - sign * rbar) % 8] for j in range(8)]
        f16[8 * half:8 * half + 8] = _from_matrix(m)
    return f16


def ref_rotate_columns(f16, b, ab1, ab2, inverse=False):
    """Shift column j of each half down by its amount: row i -> i + amount."""
    f16 = list(f16)
    sign = -1 if inverse else 1
    for half, ((alpha, beta), base) in enumerate([(ab1, 81), (ab2, 113)]):
        m = _to_matrix(f16[8 * half:8 * half + 8])
        for j in range(8):
            q = b[base + 2 * j]
            s = alpha + beta * b[base + 1 + 2 * j]
            sbar = (8 - s) if q else s
            col = [m[i][j] for i in range(8)]
            for i in range(8):
                m[i][j] = col[(i - sign * sbar) % 8]
        f16[8 * half:8 * half + 8] = _from_matrix(m)
    return f16


def _sub_keys(key):
    return (key.alpha1, key.beta1), (key.alpha2, key.beta2)


def ref_encrypt(plain, key):
    """Encrypt bytes with a SecretKey; returns bytes."""
    assert len(plain) % 15 == 0
    nb = len(plain) // 15
    bits = ref_bits(key.x0.raw, nb)
    ab1, ab2 = _sub_keys(key)
    temp = key.secret
    out = []
    for k in range(nb):
        b = bits[129 * k:129 * k + 129]
        f16, temp = ref_expand(plain[15 * k:15 * k + 15], temp, ref_l(b))
        f16 = ref_swap(f16, b)
        f16 = ref_mask(f16, b)
        f16 = ref_rotate_rows(f16, b, ab1, ab2)
        out.extend(ref_rotate_columns(f16, b, ab1, ab2))
    return bytes(out)


def ref_unexpand(cipher16, b, ab1, ab2):
    """Undo every step but the expansion: the 16-byte expanded block."""
    f16 = ref_rotate_columns(cipher16, b, ab1, ab2, inverse=True)
    f16 = ref_rotate_rows(f16, b, ab1, ab2, inverse=True)
    f16 = ref_mask(f16, b)
    return ref_swap(f16, b, inverse=True)


def ref_decrypt(cipher, key):
    assert len(cipher) % 16 == 0
    nb = len(cipher) // 16
    bits = ref_bits(key.x0.raw, nb)
    ab1, ab2 = _sub_keys(key)
    out = []
    for k in range(nb):
        b = bits[129 * k:129 * k + 129]
        out.extend(ref_unexpand(cipher[16 * k:16 * k + 16], b, ab1, ab2)[:15])
    return bytes(out)


# Rotation constraints from the reference's own row rotation: a code's pair set,
# and the pairs a rotation set admits for one amount, by brute force.

def ref_code_pairs(code):
    """The (direction, magnitude) pairs a rotation constraint code admits:
    bit 2d + m admits (d, m)."""
    return {(c >> 1, c & 1) for c in range(4) if code >> c & 1}


def ref_row_amount(ab, direction, magnitude):
    """The amount the reference rotates row 0 by for one bit pair."""
    b = [0] * 129
    b[65], b[66] = direction, magnitude
    return ref_rotate_rows([1] + [0] * 15, b, ab, ab)[0].bit_length() - 1


def ref_pair_sets(r):
    """For each amount 0..7, the (direction, magnitude) pairs that rotate by it
    under some legal (alpha, beta) whose four amounts make up exactly the set
    ``r``; empty for an amount outside ``r`` and for a set no legal pair makes."""
    pairs = [(d, m) for d in (0, 1) for m in (0, 1)]
    out = [set() for _ in range(8)]
    for ab in [(a, b) for a in range(1, 8) for b in range(1, 8) if a + b <= 7]:
        amounts = [ref_row_amount(ab, d, m) for d, m in pairs]
        if set(amounts) == set(r):
            for pair, amount in zip(pairs, amounts):
                out[amount].add(pair)
    return out


def ref_true_rows(rows, offsets):
    """Each half's eight row values moved to its true frame, one row at a
    time: true row p of half h is frame row (p - t) % 8 for the half's offset
    t in ``offsets`` (-1 counts as 7)."""
    return [[row[8 * h + (p - off[h]) % 8] for h in range(2) for p in range(8)]
            for row, off in zip(rows, offsets)]


def ref_moved_amounts(rows, offsets, sign):
    """Each amount of half h in ``rows`` plus ``sign`` times the half's offset,
    mod 8: a permutation's rows move by +t, a vertical amount by -t."""
    return [[(v + sign * off[i // 8]) % 8 for i, v in enumerate(row)]
            for row, off in zip(rows, offsets)]


# The two mappings of a recovery report, built as the dicts the report held
# before it kept its arrays.  Its read-only views must equal these, in order.

def ref_known_bits(bits):
    """Absolute index -> bit for every recovered entry of (blocks, 129) ``bits``."""
    return {129 * k + i: b for k, row in enumerate(bits.tolist())
            for i, b in enumerate(row) if b >= 0}


def ref_constrained(true_ek, offsets, pair_set):
    """(i, i + 1) -> pair set for every rotation the report reads, in order of i.

    ``true_ek`` holds true-frame parts and ``offsets`` each half's frame
    offset, -1 where it is not unique; a half is read only with its offset,
    and a row rotation only where it was recovered.  ``pair_set(half,
    amount)`` gives the admissible (direction, magnitude) pairs.
    """
    out = {}
    for k in range(true_ek.num_blocks):
        parts = []
        for half, (row_base, column_base) in enumerate([(65, 81), (97, 113)]):
            if offsets[k][half] < 0:
                continue
            for i in range(8):
                if true_ek.rotx_known[k][8 * half + i]:
                    parts.append((row_base + 2 * i, half, int(true_ek.rot_x[k][8 * half + i])))
                parts.append((column_base + 2 * i, half, int(true_ek.rot_y[k][8 * half + i])))
        for bit, half, amount in sorted(parts):
            out[(129 * k + bit, 129 * k + bit + 1)] = pair_set(half, amount)
    return out


# The byte-swap stage's matching rules, one half at a time by dict lookups: the
# rules its sort-based match must follow, also on a half with an unknown row.

def ref_match_half(exp_keys, obs_keys, row_ok):
    """One half's source row -> frame row list, plus its two-way choices.

    ``exp_keys`` holds the eight sources' expected keys, ``obs_keys`` the
    eight frame rows' observed keys, and ``row_ok`` marks the rows whose key
    was observed.  Known rows go to the sources of their key, both in order;
    the sources left over go to the unknown rows; each pair of sources with
    equal keys is one choice, as a (source, source) pair.
    """
    rows_by_key, srcs_by_key = {}, {}
    for r in range(8):
        if row_ok[r]:
            rows_by_key.setdefault(obs_keys[r], []).append(r)
    for s in range(8):
        srcs_by_key.setdefault(exp_keys[s], []).append(s)
    perm, leftover, choices = [None] * 8, [], []
    for key, srcs in srcs_by_key.items():
        rows = rows_by_key.get(key, [])
        assert len(rows) <= len(srcs) <= 2
        for s, r in zip(srcs, rows):
            perm[s] = r
        leftover.extend(srcs[len(rows):])
        if len(srcs) == 2:
            choices.append(tuple(srcs))
    unknown = [r for r in range(8) if not row_ok[r]]
    assert len(leftover) == len(unknown)
    for s, r in zip(leftover, unknown):
        perm[s] = r
    return perm, choices


# The MEK1 equivalent-key file read one record at a time, with the reader's
# checks in their order: each names the first block whose field is bad.

MEK1_FIELDS = {  # name -> (first byte, byte count) in the 74-byte block record
    "l_kind": (0, 1), "l": (1, 2), "swap": (3, 1), "swap_known": (4, 1),
    "perms": (5, 16), "seed": (21, 16), "seed_known": (37, 2),
    "rot_x": (39, 16), "rotx_known": (55, 2), "rot_y": (57, 16), "unreliable": (73, 1),
}


def ref_read_mek1(data):
    """A MEK1 file's fields as lists (one entry per block), or the message of
    its first fault."""
    if data[:4] != b"MEK1":
        return "not an equivalent-key file"
    if len(data) < 9:
        return "equivalent-key file has a truncated header"
    if data[4] != 1:
        return f"unsupported version {data[4]}"
    num = int.from_bytes(data[5:9], "little")
    if num == 0:
        return "equivalent-key file holds no blocks"
    if len(data) != 9 + 74 * num:
        return "equivalent-key file has the wrong size"
    records = [data[9 + 74 * k:9 + 74 * (k + 1)] for k in range(num)]

    def field(rec, name):
        start, size = MEK1_FIELDS[name]
        return list(rec[start:start + size])

    def bits(rec, name):  # bit i of the field's little-endian word
        return [(byte >> i) & 1 for byte in field(rec, name) for i in range(8)]

    checks = [
        ("l kind byte is not 0, 1 or 2", lambda rec: field(rec, "l_kind")[0] > 2),
        ("l value is not below 16", lambda rec: max(field(rec, "l")) >= 16),
        ("byte-swap row is not below 8", lambda rec: max(field(rec, "perms")) >= 8),
        ("horizontal rotation is not below 8", lambda rec: max(field(rec, "rot_x")) >= 8),
        ("known horizontal rotation is 0", lambda rec: any(
            v == 0 and known for v, known in zip(field(rec, "rot_x"), bits(rec, "rotx_known")))),
        ("vertical rotation is not below 8", lambda rec: max(field(rec, "rot_y")) >= 8),
        ("unreliable flag is not 0 or 1", lambda rec: field(rec, "unreliable")[0] > 1),
    ]
    for what, bad in checks:
        for k, rec in enumerate(records):
            if bad(rec):
                return f"equivalent-key block {k}: {what}"
    for rec in records:
        perms = field(rec, "perms")
        if sorted(perms[:8]) != list(range(8)) or sorted(perms[8:]) != list(range(8)):
            return "byte-swap parts must be bijections"
    return {
        "l_values": [field(rec, "l")[0] if field(rec, "l_kind")[0] == 0 else -1
                     for rec in records],
        "l_candidates": {k: frozenset(field(rec, "l")) for k, rec in enumerate(records)
                         if field(rec, "l_kind")[0] == 2},
        "swap_bits": [bits(rec, "swap") for rec in records],
        "swap_known": [bits(rec, "swap_known") for rec in records],
        "perms": [[field(rec, "perms")[:8], field(rec, "perms")[8:]] for rec in records],
        "seed_star": [field(rec, "seed") for rec in records],
        "seed_known": [bits(rec, "seed_known") for rec in records],
        "rot_x": [field(rec, "rot_x") for rec in records],
        "rotx_known": [bits(rec, "rotx_known") for rec in records],
        "rot_y": [field(rec, "rot_y") for rec in records],
        "unreliable_blocks": frozenset(k for k, rec in enumerate(records)
                                       if field(rec, "unreliable")[0]),
    }
