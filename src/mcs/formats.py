"""On-disk formats: plain-text key files, binary P5 images, and the binary
equivalent-key container."""

from __future__ import annotations

import numpy as np

from .cipher import _FRAME_SLICE, EquivalentKey, pack_rows, value_sets
from .core import Fixed129, SecretKey, decimal_integer
from .errors import DomainError

_KEY_FIELDS = ("alpha1", "beta1", "alpha2", "beta2", "secret", "x0")


def format_key(key: SecretKey) -> str:
    lines = [f"alpha1={key.alpha1}", f"beta1={key.beta1}",
             f"alpha2={key.alpha2}", f"beta2={key.beta2}",
             f"secret={key.secret}", f"x0={key.x0.to_hex()}"]
    return "\n".join(lines) + "\n"


def parse_key(text: str) -> SecretKey:
    """Parse a key file; x0 accepts 33 hex digits or a decimal fraction."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad key line: {line!r}")
        name, _, value = map(str.strip, line.partition("="))
        if name not in _KEY_FIELDS:
            raise DomainError(f"key file has unknown field {name}")
        if name in values:
            raise DomainError(f"key file repeats field {name}")
        values[name] = value
    missing = [f for f in _KEY_FIELDS if f not in values]
    if missing:
        raise DomainError(f"key file missing fields: {', '.join(missing)}")
    x0_text = values["x0"]
    if "." in x0_text:
        x0 = Fixed129.from_decimal_string(x0_text)
    else:
        x0 = Fixed129.from_hex(x0_text)
    ints = [decimal_integer(values[f], f"key file field {f}") for f in _KEY_FIELDS[:-1]]
    return SecretKey(*ints, x0)


def read_key_file(path: str) -> SecretKey:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_key(data.decode("ascii"))
    except UnicodeDecodeError as exc:
        raise DomainError(f"key file is not ASCII text (byte {exc.start})") from None


# ---------------------------------------------------------------------------
# Binary PGM (P5)
# ---------------------------------------------------------------------------

def write_pgm(path: str, width: int, height: int, pixels: bytes,
              comments: tuple[str, ...] = ()) -> None:
    if width < 1 or height < 1:
        raise DomainError(f"PGM size {width}x{height} has no pixels")
    if len(pixels) != width * height:
        raise DomainError(f"pixel count {len(pixels)} != {width}x{height}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        for c in comments:
            fh.write(f"# {c}\n".encode("ascii"))
        fh.write(f"{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels)


def read_pgm(path: str) -> tuple[int, int, bytes, list[str]]:
    """Read a binary P5 image with maxval 255; returns (w, h, pixels, comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    comments: list[str] = []
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise DomainError("truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise DomainError("truncated PGM header")
            comments.append(data[pos + 1:end].decode("ascii", "replace").strip())
            pos = end + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    pos += 1  # single whitespace after maxval
    if tokens[0] != b"P5":
        raise DomainError(f"not a binary PGM: magic {tokens[0]!r}")
    width, height, maxval = (decimal_integer(t.decode("ascii", "replace"), f"PGM {what}")
                             for t, what in zip(tokens[1:], ("width", "height", "maxval")))
    if width < 1 or height < 1:
        raise DomainError(f"PGM size {width}x{height} has no pixels")
    if maxval != 255:
        raise DomainError(f"only maxval 255 supported, got {maxval}")
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise DomainError("truncated PGM pixel data")
    return width, height, pixels, comments


# ---------------------------------------------------------------------------
# Equivalent-key container
# ---------------------------------------------------------------------------

_EK_MAGIC = b"MEK1"
_EK_VERSION = 1
_EK_HEADER = 9  # magic, version byte, little-endian u32 block count
_L_UNIQUE, _L_UNKNOWN, _L_AMBIG = 0, 1, 2
# One fixed 74-byte record per block; each known-mask packs bit i of its
# row at bit i of a little-endian word.
_EK_RECORD = np.dtype([
    ("l_kind", "u1"), ("l", "u1", (2,)),
    ("swap", "u1"), ("swap_known", "u1"),
    ("perms", "u1", (2, 8)),
    ("seed", "u1", (16,)), ("seed_known", "u1", (2,)),
    ("rot_x", "u1", (16,)), ("rotx_known", "u1", (2,)),
    ("rot_y", "u1", (16,)),
    ("unreliable", "u1"),
])


def _record_limits() -> np.ndarray:
    """The largest value each of a record's 74 bytes may hold; 255 where any value may."""
    limits = np.full(_EK_RECORD.itemsize, 0xFF, dtype=np.uint8)
    row = limits.view(_EK_RECORD)
    row["l_kind"], row["l"], row["unreliable"] = _L_AMBIG, 15, 1
    row["perms"] = row["rot_x"] = row["rot_y"] = 7
    return limits


_EK_LIMITS = _record_limits()
# the record bytes of the swap bits and the three known-masks, unpacked together
_EK_PACKED = np.concatenate([_EK_RECORD.fields[name][1] + np.arange(_EK_RECORD[name].itemsize)
                             for name in ("swap", "swap_known", "seed_known", "rotx_known")])


def equivalent_key_to_bytes(ek: EquivalentKey) -> bytes:
    header = _EK_MAGIC + bytes([_EK_VERSION]) + ek.num_blocks.to_bytes(4, "little")
    out = np.zeros(_EK_HEADER + ek.num_blocks * _EK_RECORD.itemsize, dtype=np.uint8)
    out[:_EK_HEADER] = np.frombuffer(header, dtype=np.uint8)
    rec = out[_EK_HEADER:].view(_EK_RECORD)
    rec["l_kind"] = np.where(ek.l_values >= 0, _L_UNIQUE, _L_UNKNOWN)
    rec["l"][:, 0] = np.maximum(ek.l_values, 0)
    for k, cands in ek.l_candidates.items():
        rec["l_kind"][k] = _L_AMBIG
        rec["l"][k] = sorted(cands)[:2]
    rec["swap"] = pack_rows(ek.swap_bits)[:, 0]
    rec["swap_known"] = pack_rows(ek.swap_known)[:, 0]
    rec["perms"] = ek.perms
    rec["seed"] = ek.seed_star
    rec["seed_known"] = pack_rows(ek.seed_known)
    rec["rot_x"] = ek.rot_x
    rec["rotx_known"] = pack_rows(ek.rotx_known)
    rec["rot_y"] = ek.rot_y
    rec["unreliable"][sorted(ek.unreliable_blocks)] = 1
    return out.tobytes()


def _check_blocks(bad: np.ndarray, what: str) -> None:
    """Reject the file at the first block whose record has a bad field."""
    if bad.any():
        raise DomainError(f"equivalent-key block {np.nonzero(bad)[0][0]}: {what}")


def check_rotations(rot_x: np.ndarray, rotx_known: np.ndarray, rot_y: np.ndarray) -> None:
    """Reject a rotation of 8 or more, or a known horizontal one of 0."""
    _check_blocks(rot_x >= 8, "horizontal rotation is not below 8")
    _check_blocks((rot_x == 0) & rotx_known, "known horizontal rotation is 0")
    _check_blocks(rot_y >= 8, "vertical rotation is not below 8")


def _over_limits(raw: np.ndarray) -> bool:
    """Whether any byte of the (B, 74) records exceeds its limit, one slice of
    blocks compared at a time."""
    return any((raw[start:start + _FRAME_SLICE] > _EK_LIMITS).any()
               for start in range(0, len(raw), _FRAME_SLICE))


def equivalent_key_from_bytes(data: bytes) -> EquivalentKey:
    if data[:4] != _EK_MAGIC:
        raise DomainError("not an equivalent-key file")
    if len(data) < _EK_HEADER:
        raise DomainError("equivalent-key file has a truncated header")
    if data[4] != _EK_VERSION:
        raise DomainError(f"unsupported version {data[4]}")
    num = int.from_bytes(data[5:_EK_HEADER], "little")
    if num == 0:
        raise DomainError("equivalent-key file holds no blocks")
    if len(data) != _EK_HEADER + num * _EK_RECORD.itemsize:
        raise DomainError("equivalent-key file has the wrong size")
    rec = np.frombuffer(data, dtype=_EK_RECORD, count=num, offset=_EK_HEADER)
    raw = rec.view(np.uint8).reshape(num, _EK_RECORD.itemsize)
    # bit i of a packed field lands at column i of its run: swap 0-7, swap_known
    # 8-15, seed_known 16-31, rotx_known 32-47
    bits = np.unpackbits(raw.take(_EK_PACKED, axis=1), bitorder="little").reshape(num, -1)
    known = bits.view(bool)
    rot_x, rotx_known = rec["rot_x"].copy(), known[:, 32:]
    kind = rec["l_kind"]
    if _over_limits(raw):  # the fields' own checks name the first bad block of the first field
        _check_blocks(kind > _L_AMBIG, "l kind byte is not 0, 1 or 2")
        _check_blocks(rec["l"] >= 16, "l value is not below 16")
        _check_blocks(rec["perms"] >= 8, "byte-swap row is not below 8")
        check_rotations(rot_x, rotx_known, rec["rot_y"])
        _check_blocks(rec["unreliable"] > 1, "unreliable flag is not 0 or 1")
    _check_blocks((rot_x == 0) & rotx_known, "known horizontal rotation is 0")
    perms = rec["perms"].copy()
    if (value_sets(perms) != 0xFF).any():
        raise DomainError("byte-swap parts must be bijections")
    l_values = np.where(kind == _L_UNIQUE, rec["l"][:, 0].astype(np.int16), -1)
    l_candidates = {k: frozenset(rec["l"][k].tolist())
                    for k in np.flatnonzero(kind == _L_AMBIG).tolist()}
    return EquivalentKey(l_values, l_candidates, bits[:, :8], known[:, 8:16], perms,
                         rec["seed"].copy(), known[:, 16:32], rot_x, rotx_known,
                         rec["rot_y"].copy(),
                         frozenset(np.flatnonzero(rec["unreliable"]).tolist()))


def write_equivalent_key(path: str, ek: EquivalentKey) -> None:
    with open(path, "wb") as fh:
        fh.write(equivalent_key_to_bytes(ek))


def read_equivalent_key(path: str) -> EquivalentKey:
    with open(path, "rb") as fh:
        return equivalent_key_from_bytes(fh.read())
