import dataclasses
import hashlib
import random

import pytest

from conftest import SAMPLE_KEY, random_key, random_plain
from mcs.attack import ees_decrypt, run_attack
from mcs.cipher import encrypt
from mcs.errors import DomainError
from mcs.formats import (
    equivalent_key_from_bytes,
    equivalent_key_to_bytes,
    format_key,
    parse_key,
    read_pgm,
    write_pgm,
)


def test_key_round_trip(rng):
    for _ in range(30):
        key = random_key(rng)
        assert parse_key(format_key(key)) == key


def test_key_decimal_x0():
    text = "alpha1=2\nbeta1=5\nalpha2=3\nbeta2=4\nsecret=20\nx0=0.251\n"
    key = parse_key(text)
    assert key == SAMPLE_KEY
    assert key.x0.raw == (251 * (1 << 64) + 500) // 1000


def test_key_parse_errors():
    with pytest.raises(DomainError):
        parse_key("alpha1=1\n")
    with pytest.raises(DomainError):
        parse_key(format_key(SAMPLE_KEY).replace("secret=20", "secret=twenty"))
    with pytest.raises(DomainError):
        parse_key(format_key(SAMPLE_KEY).replace("x0=", "x0=zz"))


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
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(DomainError):
        read_pgm(str(bad))
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DomainError):
        read_pgm(str(bad))


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
