"""On-disk formats: plain-text key files, binary P5 images, and the binary
equivalent-key container."""

from __future__ import annotations

import numpy as np

from .attack import EquivalentKey
from .core import Fixed129, SecretKey
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
        name, _, value = line.partition("=")
        values[name.strip()] = value.strip()
    missing = [f for f in _KEY_FIELDS if f not in values]
    if missing:
        raise DomainError(f"key file missing fields: {', '.join(missing)}")
    x0_text = values["x0"]
    if "." in x0_text:
        x0 = Fixed129.from_decimal_string(x0_text)
    else:
        x0 = Fixed129.from_hex(x0_text)
    try:
        ints = {f: int(values[f]) for f in _KEY_FIELDS[:-1]}
    except ValueError as exc:
        raise DomainError(f"bad integer in key file: {exc}") from exc
    return SecretKey(ints["alpha1"], ints["beta1"], ints["alpha2"],
                     ints["beta2"], ints["secret"], x0)


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
    if not all(t.isdigit() for t in tokens[1:]):
        header = b" ".join(tokens[1:]).decode("ascii", "replace")
        raise DomainError(f"PGM size and maxval must be decimal digits, got {header!r}")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:  # more digits than int() converts
        raise DomainError("PGM size or maxval has too many digits") from None
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


def _pack(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=1, bitorder="little")


def _unpack(packed: np.ndarray) -> np.ndarray:
    return np.unpackbits(packed.reshape(len(packed), -1), axis=1, bitorder="little")


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
    rec["swap"] = _pack(ek.swap_bits)[:, 0]
    rec["swap_known"] = _pack(ek.swap_known)[:, 0]
    rec["perms"] = ek.perms
    rec["seed"] = ek.seed_star
    rec["seed_known"] = _pack(ek.seed_known)
    rec["rot_x"] = ek.rot_x
    rec["rotx_known"] = _pack(ek.rotx_known)
    rec["rot_y"] = ek.rot_y
    rec["unreliable"][sorted(ek.unreliable_blocks)] = 1
    return out.tobytes()


def _check_blocks(bad: np.ndarray, what: str) -> None:
    """Reject the file at the first block whose record has a bad field."""
    blocks = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1))
    if blocks.size:
        raise DomainError(f"equivalent-key block {blocks[0]}: {what}")


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
    kind = rec["l_kind"]
    _check_blocks(kind > _L_AMBIG, "l kind byte is not 0, 1 or 2")
    _check_blocks(rec["l"] >= 16, "l value is not below 16")
    _check_blocks(rec["perms"] >= 8, "byte-swap row is not below 8")
    _check_blocks(rec["rot_x"] >= 8, "horizontal rotation is not below 8")
    rotx_known = _unpack(rec["rotx_known"]).astype(bool)
    _check_blocks((rec["rot_x"] == 0) & rotx_known, "known horizontal rotation is 0")
    _check_blocks(rec["rot_y"] >= 8, "vertical rotation is not below 8")
    _check_blocks(rec["unreliable"] > 1, "unreliable flag is not 0 or 1")
    if (np.sort(rec["perms"], axis=2) != np.arange(8)).any():
        raise DomainError("byte-swap parts must be bijections")
    l_values = np.where(kind == _L_UNIQUE, rec["l"][:, 0].astype(np.int16), -1)
    l_candidates = {k: frozenset(rec["l"][k].tolist())
                    for k in np.flatnonzero(kind == _L_AMBIG).tolist()}
    return EquivalentKey(num, l_values, l_candidates,
                         _unpack(rec["swap"]), _unpack(rec["swap_known"]).astype(bool),
                         rec["perms"].copy(), rec["seed"].copy(),
                         _unpack(rec["seed_known"]).astype(bool),
                         rec["rot_x"].copy(), rotx_known,
                         rec["rot_y"].copy(),
                         frozenset(np.flatnonzero(rec["unreliable"]).tolist()))


def write_equivalent_key(path: str, ek: EquivalentKey) -> None:
    with open(path, "wb") as fh:
        fh.write(equivalent_key_to_bytes(ek))


def read_equivalent_key(path: str) -> EquivalentKey:
    with open(path, "rb") as fh:
        return equivalent_key_from_bytes(fh.read())
