import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_KEY, random_key, random_plain
from mcs import formats
from mcs.attack import run_attack
from mcs.cipher import ees_decrypt, encrypt
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
from reference import MEK1_FIELDS, ref_read_mek1


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
    with pytest.raises(DomainError, match="^key file field secret has too many digits$"):
        parse_key(format_key(SAMPLE_KEY).replace("secret=20", "secret=" + "1" * 5000))
    with pytest.raises(DomainError, match="key file repeats field alpha1"):
        parse_key("alpha1=1\n" + format_key(SAMPLE_KEY))
    path = tmp_path / "key.txt"
    path.write_bytes(b"\xff\xfe" + format_key(SAMPLE_KEY).encode("ascii"))
    with pytest.raises(DomainError):
        read_key_file(str(path))


@pytest.mark.parametrize("value", ["2_5", "\u0663", "+25", "2 5", "0x19", ""])
def test_key_integers_are_ascii_decimal(value):
    # int() alone would read the first four as 25, 3, 25 and 25
    text = format_key(SAMPLE_KEY).replace("secret=20", f"secret={value}")
    with pytest.raises(DomainError, match="^key file field secret is not a decimal integer: "):
        parse_key(text)


def test_key_negative_integer_keeps_the_key_check():
    with pytest.raises(DomainError, match="^secret must be a byte, got -1$"):
        parse_key(format_key(SAMPLE_KEY).replace("secret=20", "secret=-1"))
    with pytest.raises(DomainError, match=r"^illegal rotation parameters \(-2, 5\)$"):
        parse_key(format_key(SAMPLE_KEY).replace("alpha1=2", "alpha1=-2"))


def test_key_file_rejects_an_unknown_field():
    # a misspelt line next to the real one must not pass unnoticed
    text = format_key(SAMPLE_KEY).replace("secret=20", "secret=20\nsceret=7")
    with pytest.raises(DomainError, match="^key file has unknown field sceret$"):
        parse_key(text)


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


def test_write_pgm_rejects_a_wrong_pixel_count(tmp_path):
    out = tmp_path / "short.pgm"
    with pytest.raises(DomainError, match="^pixel count 5 != 2x3$"):
        write_pgm(str(out), 2, 3, bytes(5))
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


@pytest.mark.parametrize("blob, message", [
    (b"MEK1\x02" + (1).to_bytes(4, "little") + bytes(74), "unsupported version 2"),
    (b"MEK1\x01" + (0).to_bytes(4, "little"), "equivalent-key file holds no blocks"),
], ids=["version-2", "no-blocks"])
def test_equivalent_key_rejects_a_bad_header(blob, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        equivalent_key_from_bytes(blob)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 1), st.permutations(range(8)), st.integers(0, 7),
       st.integers(1, 7))
def test_byte_swap_halves_must_be_permutations(block, half, perm, row, shift):
    # every true permutation is read back; a half that repeats one row (and
    # so misses another) is rejected, though each of its values is below 8
    blob = bytearray(_SMALL_MEK1)
    at = 9 + 74 * block + 5 + 8 * half  # the half's eight rows in the block record
    blob[at:at + 8] = bytes(perm)
    assert equivalent_key_from_bytes(bytes(blob)).perms[block, half].tolist() == list(perm)
    blob[at + (row + shift) % 8] = perm[row]
    with pytest.raises(DomainError, match="byte-swap parts must be bijections"):
        equivalent_key_from_bytes(bytes(blob))


_FIELD_DTYPES = {"l_values": np.int16, "swap_bits": np.uint8, "swap_known": bool,
                 "perms": np.uint8, "seed_star": np.uint8, "seed_known": bool,
                 "rot_x": np.uint8, "rotx_known": bool, "rot_y": np.uint8}


def assert_reads_as_reference(blob):
    """The reader raises the reference's first message, or returns its fields;
    returns what the reference read."""
    expected = ref_read_mek1(blob)
    if isinstance(expected, str):
        with pytest.raises(DomainError) as exc:
            equivalent_key_from_bytes(blob)
        assert str(exc.value) == expected
        return expected
    ek = equivalent_key_from_bytes(blob)
    for name, dtype in _FIELD_DTYPES.items():
        got = getattr(ek, name)
        assert got.dtype == dtype, name
        assert got.tolist() == expected[name], name
    assert ek.l_candidates == expected["l_candidates"]
    assert ek.unreliable_blocks == expected["unreliable_blocks"]
    return expected


# values at and just past each field's limit, and any other byte
_MEK1_BYTES = st.one_of(st.sampled_from([0, 1, 2, 3, 7, 8, 15, 16, 255]), st.integers(0, 255))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_SMALL_MEK1) - 1), _MEK1_BYTES),
                min_size=1, max_size=6))
def test_reader_keeps_the_first_error(edits):
    # edits across several records and fields give the first message of the
    # ordered field checks, or a key with the reference's fields
    blob = bytearray(_SMALL_MEK1)
    for pos, value in edits:
        blob[pos] = value
    assert_reads_as_reference(bytes(blob))


# the largest value of each range-checked field; every other byte may hold any
_FIELD_LIMITS = {"l_kind": 2, "l": 15, "perms": 7, "rot_x": 7, "rot_y": 7, "unreliable": 1}


def test_record_limits_cover_exactly_the_range_checked_bytes():
    expected = [255] * 74
    for name, limit in _FIELD_LIMITS.items():
        start, size = MEK1_FIELDS[name]
        expected[start:start + size] = [limit] * size
    assert formats._EK_LIMITS.tolist() == expected
    # 4,097 blocks: the compare runs over two slices of records
    rng = random.Random("mek1-limits")
    key = random_key(rng)
    blob = equivalent_key_to_bytes(run_attack(lambda p: encrypt(p, key), rng.randbytes(15 * 4097)))
    assert not isinstance(assert_reads_as_reference(blob), str)
    for offset, limit in enumerate(expected):
        if limit == 255:
            continue
        for block in (0, 4096):
            bad = bytearray(blob)
            bad[9 + 74 * block + offset] = limit + 1
            assert isinstance(assert_reads_as_reference(bytes(bad)), str)


def test_equivalent_key_read_peak_memory():
    # at 16,384 blocks the key holds 1,867,776 B of arrays, the four bit fields
    # unpacked into one of them; the reader compares the records with their limits
    # one slice at a time (all 1,212,416 record bytes at once would add a 1.2 MB
    # bool temporary), so its traced peak stays within 32 KiB of the key's arrays
    rng = random.Random("mek1-peak")
    key = random_key(rng)
    blob = equivalent_key_to_bytes(
        run_attack(lambda p: encrypt(p, key), rng.randbytes(15 * 16384)))
    tracemalloc.start()
    try:
        equivalent_key_from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_867_776 + 32_768


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

