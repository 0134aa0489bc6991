import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_KEY, random_key, random_plain
from mcs.attack import ees_decrypt, run_attack
from mcs.cipher import encrypt
from mcs.errors import DomainError, McsError
from mcs.formats import (
    equivalent_key_from_bytes,
    equivalent_key_to_bytes,
    format_key,
    parse_key,
    read_key_file,
    read_pgm,
    write_pgm,
)
from mcs.keyrecovery import recover_report


def test_key_round_trip(rng):
    for _ in range(30):
        key = random_key(rng)
        assert parse_key(format_key(key)) == key


def test_key_decimal_x0():
    text = "alpha1=2\nbeta1=5\nalpha2=3\nbeta2=4\nsecret=20\nx0=0.251\n"
    key = parse_key(text)
    assert key == SAMPLE_KEY
    assert key.x0.raw == (251 * (1 << 64) + 500) // 1000


def test_key_parse_errors(tmp_path):
    with pytest.raises(DomainError):
        parse_key("alpha1=1\n")
    with pytest.raises(DomainError):
        parse_key(format_key(SAMPLE_KEY).replace("secret=20", "secret=twenty"))
    with pytest.raises(DomainError):
        parse_key(format_key(SAMPLE_KEY).replace("x0=", "x0=zz"))
    with pytest.raises(DomainError):  # right length, not hex
        parse_key(format_key(SAMPLE_KEY).replace(SAMPLE_KEY.x0.to_hex(), "g" * 33))
    with pytest.raises(DomainError):  # more digits than int() converts
        parse_key(format_key(SAMPLE_KEY).replace(SAMPLE_KEY.x0.to_hex(), "0." + "1" * 5000))
    path = tmp_path / "key.txt"
    path.write_bytes(b"\xff\xfe" + format_key(SAMPLE_KEY).encode("ascii"))
    with pytest.raises(DomainError):
        read_key_file(str(path))


def test_key_file_comments_ignored():
    text = "# a comment\n\n" + format_key(SAMPLE_KEY)
    assert parse_key(text) == SAMPLE_KEY


def test_pgm_round_trip(tmp_path, nprng):
    path = str(tmp_path / "img.pgm")
    pixels = nprng.bytes(37 * 21)
    write_pgm(path, 37, 21, pixels, comments=("hello", "pad 3"))
    w, h, data, comments = read_pgm(path)
    assert (w, h) == (37, 21)
    assert data == pixels
    assert comments == ["hello", "pad 3"]
    # byte-identical rewrite
    write_pgm(str(tmp_path / "img2.pgm"), w, h, data, tuple(comments))
    assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()


def test_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    for blob in (
        b"P6\n2 2\n255\n" + bytes(12),
        b"P5\n4 4\n255\n" + bytes(3),
        b"P5\nab 2\n255\n",
        b"P5\n-3 -2\n255\n" + bytes(6),
        b"P5\n2 2\n0xff\n" + bytes(4),
        b"P5\n2 2\n100\n" + bytes(4),
        b"P5\n0 2\n255\n",
        b"P5\n# no end of line",
        b"P5\n" + b"9" * 5000 + b" 1\n255\n",  # more digits than int() converts
    ):
        bad.write_bytes(blob)
        with pytest.raises(DomainError):
            read_pgm(str(bad))


@pytest.mark.parametrize("width, height", [(16, 0), (0, 3), (0, 0)])
def test_write_pgm_rejects_zero_pixels(tmp_path, width, height):
    out = tmp_path / "empty.pgm"
    with pytest.raises(DomainError, match=f"^PGM size {width}x{height} has no pixels$"):
        write_pgm(str(out), width, height, b"")
    assert not out.exists()


def test_equivalent_key_round_trip(rng):
    key = random_key(rng)
    base = random_plain(rng, 24)
    ek = run_attack(lambda p: encrypt(p, key), base)
    blob = equivalent_key_to_bytes(ek)
    ek2 = equivalent_key_from_bytes(blob)
    assert ek2.num_blocks == ek.num_blocks
    assert (ek2.l_values == ek.l_values).all()
    assert ek2.l_candidates == ek.l_candidates
    assert (ek2.swap_bits == ek.swap_bits).all()
    assert (ek2.swap_known == ek.swap_known).all()
    assert (ek2.perms == ek.perms).all()
    assert (ek2.seed_star == ek.seed_star).all()
    assert (ek2.seed_known == ek.seed_known).all()
    assert (ek2.rot_x == ek.rot_x).all()
    assert (ek2.rotx_known == ek.rotx_known).all()
    assert (ek2.rot_y == ek.rot_y).all()
    assert ek2.unreliable_blocks == ek.unreliable_blocks
    # decryption results identical before and after the round trip
    fresh = random_plain(rng, 24)
    cipher = encrypt(fresh, key)
    assert ees_decrypt(cipher, ek) == ees_decrypt(cipher, ek2) == fresh


def test_equivalent_key_bad_blob():
    with pytest.raises(DomainError):
        equivalent_key_from_bytes(b"NOPE" + bytes(20))
    with pytest.raises(DomainError):
        equivalent_key_from_bytes(b"MEK1\x01" + (5).to_bytes(4, "little") + bytes(3))
    for truncated in (b"", b"MEK1", b"MEK1\x01\x00\x00"):
        with pytest.raises(DomainError):
            equivalent_key_from_bytes(truncated)
    # in-range fields, but every byte-swap row of a half is 0
    with pytest.raises(DomainError, match="byte-swap parts must be bijections"):
        equivalent_key_from_bytes(b"MEK1\x01" + (5).to_bytes(4, "little") + bytes(74 * 5))


# byte offset of each checked field inside the 74-byte MEK1 block record
@pytest.mark.parametrize("offset, value, what", [
    (0, 3, "l kind byte"),
    (1, 16, "l value"),
    (2, 200, "l value"),
    (5, 8, "byte-swap row"),
    (20, 255, "byte-swap row"),
    (39, 9, "horizontal rotation"),
    (57, 8, "vertical rotation"),
    (73, 2, "unreliable flag"),
])
def test_equivalent_key_rejects_out_of_range_fields(offset, value, what):
    ek = run_attack(lambda p: encrypt(p, SAMPLE_KEY), random_plain(random.Random(7), 5))
    blob = bytearray(equivalent_key_to_bytes(ek))
    for block in (3, 2):
        blob[9 + 74 * block + offset] = value
    with pytest.raises(DomainError, match=f"block 2: {what}"):
        equivalent_key_from_bytes(bytes(blob))


def test_equivalent_key_golden_bytes():
    # pins the MEK1 layout, including ambiguous-l and unreliable records
    base = random_plain(random.Random(2024), 256)
    ek = run_attack(lambda p: encrypt(p, SAMPLE_KEY), base)
    l_values = ek.l_values.copy()
    l_values[[3, 100]] = -1
    ek = dataclasses.replace(ek, l_values=l_values,
                             l_candidates={3: frozenset({1, 9}), 100: frozenset({0, 15})},
                             unreliable_blocks=frozenset({5, 200}))
    blob = equivalent_key_to_bytes(ek)
    assert len(blob) == 9 + 74 * 256
    assert hashlib.sha256(blob).hexdigest() == \
        "83d1e3381a4d971bd1836cbe1994f251f1e295b9ed905f06099af239e13fbcea"
    assert equivalent_key_to_bytes(equivalent_key_from_bytes(blob)) == blob


_SMALL_MEK1 = equivalent_key_to_bytes(
    run_attack(lambda p: encrypt(p, SAMPLE_KEY), random_plain(random.Random(11), 4)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_SMALL_MEK1) - 1), st.integers(0, 255)),
                min_size=1, max_size=6))
def test_mutated_equivalent_key_fails_typed(edits):
    # a damaged MEK1 file is either read and recovered from, or rejected
    # with a library error; no other exception escapes
    blob = bytearray(_SMALL_MEK1)
    for pos, value in edits:
        blob[pos] = value
    try:
        recover_report(equivalent_key_from_bytes(bytes(blob)))
    except McsError:
        pass


# key-file text: free text, and a valid key file with lines added that
# override its fields or break its syntax
_KEY_VALUES = st.one_of(
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.integers(0, 2 ** 140).map(lambda v: f"{v:x}"),
    st.from_regex(r"-?[0-9]{0,3}\.[0-9]{0,60}", fullmatch=True),
    st.just("9" * 5000), st.just("0." + "1" * 5000),
    st.text(max_size=40))
_KEY_LINES = st.one_of(
    st.builds("{}={}".format, st.sampled_from(
        ["alpha1", "beta1", "alpha2", "beta2", "secret", "x0", " x0 ", "x1", ""]),
        _KEY_VALUES),
    st.text(max_size=30))
key_texts = st.one_of(
    st.text(max_size=200),
    st.lists(_KEY_LINES, max_size=8).map(
        lambda extra: "\n".join(format_key(SAMPLE_KEY).splitlines() + extra)))


@settings(max_examples=300, deadline=None)
@given(key_texts)
def test_parse_key_fuzz(text):
    # any text is read as a key or rejected with a library error
    try:
        parse_key(text)
    except McsError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=300), key_texts.map(lambda t: t.encode("utf-8"))))
def test_read_key_file_fuzz(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-key.txt"
    path.write_bytes(data)
    try:
        read_key_file(str(path))
    except McsError:
        pass


_PGM = b"P5\n# plain-width 4\n4 3\n255\n" + bytes(range(12))
_PGM_FIELDS = st.one_of(
    st.sampled_from([b"0", b"1", b"3", b"255", b"9" * 5000, b"\xff", b""]),
    st.integers(0, 300).map(lambda v: str(v).encode()))
_PGM_GAPS = st.sampled_from([b" ", b"\n", b"\t", b"\n# c\n", b"#", b"\r\n"])


def _edit(blob, edits, cut):
    blob = bytearray(blob[:cut])
    for pos, value in edits:
        if pos < len(blob):
            blob[pos] = value
    return bytes(blob)


pgm_blobs = st.one_of(
    st.binary(max_size=200),
    st.builds(_edit, st.just(_PGM),
              st.lists(st.tuples(st.integers(0, len(_PGM) - 1), st.integers(0, 255)),
                       max_size=6),
              st.integers(0, len(_PGM))),
    # magic, width, height and maxval with gaps between them, then pixels
    st.builds(lambda parts, gaps, pixels: b"".join(
        p + g for p, g in zip(parts, gaps)) + pixels,
        st.tuples(st.one_of(st.just(b"P5"), st.sampled_from([b"P6", b"P"])), _PGM_FIELDS,
                  _PGM_FIELDS, st.one_of(st.just(b"255"), _PGM_FIELDS)),
        st.lists(_PGM_GAPS, min_size=4, max_size=4), st.binary(max_size=40)))


@settings(max_examples=300, deadline=None)
@given(pgm_blobs)
def test_read_pgm_fuzz(tmp_path_factory, data):
    # any file is read as a whole image or rejected with a library error
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data)
    try:
        width, height, pixels, _ = read_pgm(str(path))
    except McsError:
        return
    assert width >= 1 and height >= 1 and len(pixels) == width * height

