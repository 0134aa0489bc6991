import contextlib
import dataclasses
import io
import operator
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcs
from conftest import SAMPLE_KEY, random_plain
from mcs.attack import run_attack
from mcs.cipher import encrypt
from mcs.core import Fixed129, SecretKey
from mcs.cli import main
from mcs.formats import (
    format_key,
    read_equivalent_key,
    read_key_file,
    read_pgm,
    write_equivalent_key,
    write_pgm,
)
from mcs.keyrecovery import determine_s_offsets, recover_report, recover_rotation_sets


@pytest.fixture
def child_pythonpath(monkeypatch):
    """Let an oracle subprocess running `python -m mcs` import this package."""
    src = str(Path(mcs.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text(format_key(SAMPLE_KEY))
    return str(path)


def test_keygen_deterministic_and_legal(tmp_path):
    out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["keygen", "--seed", "11", "--out", out1]) == 0
    assert main(["keygen", "--seed", "11", "--out", out2]) == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    key = read_key_file(out1)
    assert 1 <= key.alpha1 and key.alpha1 + key.beta1 <= 7


def test_keygen_covers_all_pairs(tmp_path):
    seen = set()
    out = str(tmp_path / "k.txt")
    for seed in range(300):
        main(["keygen", "--seed", str(seed), "--out", out])
        key = read_key_file(out)
        seen.add((key.alpha1, key.beta1))
    assert len(seen) == 21


def test_encrypt_decrypt_round_trip(tmp_path, keyfile, nprng):
    plain = tmp_path / "p.bin"
    plain.write_bytes(nprng.bytes(15 * 20))
    enc, dec = str(tmp_path / "c.bin"), str(tmp_path / "p2.bin")
    assert main(["encrypt", str(plain), "--key", keyfile, "--out", enc]) == 0
    assert main(["decrypt", enc, "--key", keyfile, "--out", dec]) == 0
    assert plain.read_bytes() == Path(dec).read_bytes()


def test_encrypt_pad_and_trim(tmp_path, keyfile, nprng):
    plain = tmp_path / "p.bin"
    data = nprng.bytes(100)
    plain.write_bytes(data)
    enc, dec = str(tmp_path / "c.bin"), str(tmp_path / "p2.bin")
    assert main(["encrypt", str(plain), "--key", keyfile, "--out", enc]) == 1
    assert main(["encrypt", str(plain), "--key", keyfile, "--out", enc,
                 "--pad"]) == 0
    assert main(["decrypt", enc, "--key", keyfile, "--out", dec,
                 "--trim", "100"]) == 0
    assert Path(dec).read_bytes() == data


def test_pgm_workflow(tmp_path, keyfile, nprng):
    img = str(tmp_path / "img.pgm")
    width, height = 64, 45
    pixels = nprng.bytes(width * height)
    write_pgm(img, width, height, pixels)
    enc, dec = str(tmp_path / "e.pgm"), str(tmp_path / "d.pgm")
    assert main(["encrypt", img, "--key", keyfile, "--out", enc, "--pgm"]) == 0
    w, h, cdata, comments = read_pgm(enc)
    assert w == width
    # ciphertext image is 16/15 of the padded plaintext, rounded up per row
    padded = width * height + (-width * height) % 15
    assert h == -(-(padded * 16 // 15) // width)
    assert main(["decrypt", enc, "--key", keyfile, "--out", dec, "--pgm"]) == 0
    assert read_pgm(dec)[:3] == (width, height, pixels)


def test_attack_cli_verify_and_report(tmp_path, keyfile, nprng, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 32))
    other = tmp_path / "other.bin"
    other.write_bytes(nprng.bytes(15 * 32))
    enc = str(tmp_path / "other.enc")
    assert main(["encrypt", str(other), "--key", keyfile, "--out", enc]) == 0
    ek = str(tmp_path / "ek.bin")
    rc = main(["attack", "--key", keyfile, "--base", str(base), "--out", ek,
               "--verify", enc])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle queries: 7" in out
    assert "verify: OK" in out
    report = str(tmp_path / "report.txt")
    assert main(["recover-subkeys", ek, "--grade-key", keyfile,
                 "--out", report]) == 0
    text = Path(report).read_text()
    assert "R1 = [1, 2, 6, 7]" in text
    assert "(2, 5)" in text
    assert "0 wrong" in text


def test_recover_subkeys_graded_against_wrong_key(tmp_path, keyfile, nprng, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 16))
    ek = str(tmp_path / "ek.bin")
    assert main(["attack", "--key", keyfile, "--base", str(base), "--out", ek]) == 0
    capsys.readouterr()
    wrongkey = str(tmp_path / "wrong.txt")
    assert main(["keygen", "--seed", "9", "--out", wrongkey]) == 0
    assert main(["recover-subkeys", ek, "--grade-key", wrongkey]) == 1
    assert "wrong" in capsys.readouterr().out


@pytest.mark.parametrize("pair1, pair2", [
    ((2, 4), (1, 3)), ((1, 3), (1, 1)), ((1, 1), (3, 2)), ((3, 2), (2, 4))])
def test_recover_subkeys_counts_match_the_views(tmp_path, pair1, pair2, capsys):
    # the CLI counts from the report's arrays; the listings count the same things
    rng = random.Random(10 * pair1[0] + pair1[1])
    key = SecretKey(*pair1, *pair2, rng.randrange(256), Fixed129(rng.getrandbits(129)))
    ek = run_attack(lambda p: encrypt(p, key), random_plain(rng, 256))
    path = str(tmp_path / "ek.bin")
    write_equivalent_key(path, ek)
    assert main(["recover-subkeys", path]) == 0
    out = capsys.readouterr().out
    count = lambda label: int(re.search(rf"^{label}: (\d+)", out, re.M).group(1))
    rep = recover_report(ek)
    assert count("unique frame offsets") == \
        sum(not isinstance(t, frozenset) for off in rep.s_offsets for t in off)
    assert count("controlling bits recovered") == len(rep.known_bits)
    assert count("rotation-bit pair constraints") == len(rep.constrained)


def test_recover_subkeys_bad_ek_file(tmp_path, keyfile, nprng, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 4))
    path = tmp_path / "ek.bin"
    assert main(["attack", "--key", keyfile, "--base", str(base), "--out", str(path)]) == 0
    capsys.readouterr()
    blob = path.read_bytes()
    for cut in (4, 6, 50):  # inside the header, inside the first record
        path.write_bytes(blob[:cut])
        assert main(["recover-subkeys", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    # a byte-swap permutation that the three swap phases cannot produce
    path.write_bytes(blob)
    ek = read_equivalent_key(str(path))
    masks = determine_s_offsets(ek, *recover_rotation_sets(ek))[:, 0].tolist()
    # a reliable block whose first-half offset is unique (one candidate bit)
    k = next(k for k, c in enumerate(masks)
             if c and not c & (c - 1) and k not in ek.unreliable_blocks)
    t = masks[k].bit_length() - 1
    perms = ek.perms.copy()
    perms[k, 0] = (np.array([1, 2, 0, 3, 4, 5, 6, 7]) - t) % 8
    write_equivalent_key(str(path), dataclasses.replace(ek, perms=perms))
    assert main(["recover-subkeys", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: block {k} half 0: permutation is not phase-decomposable\n"


@pytest.mark.usefixtures("child_pythonpath")
def test_attack_cli_tampered_oracle(tmp_path, keyfile, nprng, capsys):
    # the oracle encrypts under a different key than the one being graded
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 8))
    wrongkey = tmp_path / "wrong.txt"
    assert main(["keygen", "--seed", "3", "--out", str(wrongkey)]) == 0
    victim = tmp_path / "victim.bin"
    victim.write_bytes(nprng.bytes(15 * 8))
    enc = str(tmp_path / "victim.enc")
    assert main(["encrypt", str(victim), "--key", keyfile, "--out", enc]) == 0
    ek = str(tmp_path / "ek.bin")
    cmd = f"{sys.executable} -m mcs encrypt - --key {wrongkey} --out -"
    rc = main(["attack", "--key", keyfile, "--oracle-cmd", cmd,
               "--base", str(base), "--out", ek, "--verify", enc])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().err


@pytest.mark.usefixtures("child_pythonpath")
def test_attack_cli_subprocess_oracle(tmp_path, keyfile, nprng, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 4))
    ek1, ek2 = str(tmp_path / "ek1.bin"), str(tmp_path / "ek2.bin")
    assert main(["attack", "--key", keyfile, "--base", str(base),
                 "--out", ek1]) == 0
    cmd = (f"{sys.executable} -m mcs encrypt - --key {keyfile} --out -")
    assert main(["attack", "--oracle-cmd", cmd, "--base", str(base),
                 "--out", ek2]) == 0
    assert Path(ek1).read_bytes() == Path(ek2).read_bytes()


def run_mcs(*args, stdin=b""):
    """Run the CLI in a child process on ``stdin``; returns (exit code, stderr text)."""
    proc = subprocess.run([sys.executable, "-m", "mcs", *args], input=stdin,
                          capture_output=True)
    return proc.returncode, proc.stderr.decode()


def assert_clean_failure(rc, err):
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("cmd, status", [
    ("false", "exited with status 1"),
    ("no-such-oracle-command-xyz", "cannot run oracle command"),
    ('"unclosed', "cannot parse --oracle-cmd"),
    (" ", "--oracle-cmd is empty"),
])
def test_attack_cli_failing_oracle(tmp_path, cmd, status):
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    rc, err = run_mcs("attack", "--oracle-cmd", cmd, "--base", str(base),
                      "--out", str(tmp_path / "ek.bin"))
    assert_clean_failure(rc, err)
    assert "[oracle]" in err and status in err


def test_attack_cli_wrong_length_oracle_answer(tmp_path, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    ek = tmp_path / "ek.bin"
    rc = main(["attack", "--oracle-cmd", "head -c 10", "--base", str(base), "--out", str(ek)])
    assert rc == 1
    assert capsys.readouterr().err == "error: [oracle] oracle returned 10 bytes, expected 64\n"
    assert not ek.exists()


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("args, stdin, message", [
    (["encrypt", "-"], bytes(14), "input is 14 bytes; use --pad or supply a multiple of 15"),
    (["decrypt", "-"], bytes(3), "ciphertext length 3 not divisible by 16"),
    (["attack", "--base", "-"], b"", "base plaintext must contain at least one block"),
], ids=["encrypt", "decrypt", "attack"])
def test_cli_rejects_bad_stdin(tmp_path, keyfile, args, stdin, message):
    out = tmp_path / "out.bin"
    rc, err = run_mcs(*args, "--key", keyfile, "--out", str(out), stdin=stdin)
    assert rc == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_encrypt_pipes_into_decrypt(keyfile, nprng):
    plain = nprng.bytes(15 * 9)
    mcs = [sys.executable, "-m", "mcs"]
    enc = subprocess.Popen([*mcs, "encrypt", "-", "--key", keyfile, "--out", "-"],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    enc.stdin.write(plain)
    enc.stdin.close()
    dec = subprocess.run([*mcs, "decrypt", "-", "--key", keyfile, "--out", "-"],
                         stdin=enc.stdout, capture_output=True)
    enc.stdout.close()
    assert enc.wait() == 0 and dec.returncode == 0
    assert dec.stdout == plain


@pytest.mark.usefixtures("child_pythonpath")
def test_cli_unreadable_paths(tmp_path, keyfile):
    missing = str(tmp_path / "nofile")
    rc, err = run_mcs("encrypt", missing, "--key", keyfile)
    assert_clean_failure(rc, err)
    assert missing in err
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(15))
    rc, err = run_mcs("encrypt", str(plain), "--key", missing)
    assert_clean_failure(rc, err)
    assert missing in err


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("comments, message", [
    (["plain-width 0"], "PGM comment 'plain-width 0' is below 1"),
    (["plain-width 15", "plain-pad -1"], "PGM comment 'plain-pad -1' is below 0"),
    (["cipher-pad 33"], "PGM comment cipher-pad exceeds the 32 pixels"),
    (["plain-pad 31"], "PGM comment plain-pad exceeds the 30 decrypted bytes"),
    (["plain-width " + "9" * 5000], "PGM comment 'plain-width' has too many digits"),
    (["plain-pad --5"], "PGM comment 'plain-pad' is not a decimal integer: '--5'"),
    (["plain-width abc"], "PGM comment 'plain-width' is not a decimal integer: 'abc'"),
    (["plain-height 1.5"], "PGM comment 'plain-height' is not a decimal integer: '1.5'"),
    (["plain-width 8", "plain-width 4"], "PGM comment 'plain-width' is repeated"),
], ids=["zero-width", "negative-pad", "cipher-pad-too-large", "plain-pad-too-large",
        "overlong-width", "double-minus-pad", "word-width", "fraction-height", "repeated-width"])
def test_pgm_decrypt_bad_size_comments(tmp_path, keyfile, comments, message):
    # a zero width used to divide by zero; out-of-range pads were silently used;
    # a value of more digits than int() converts raised ValueError; '--5' read
    # as a value of too many digits, 'abc' and '1.5' were ignored, and a
    # repeated comment was read with the last value winning
    img = tmp_path / "c.pgm"
    header = "P5\n" + "".join(f"# {c}\n" for c in comments) + "16 2\n255\n"
    img.write_bytes(header.encode("ascii") + bytes(32))
    out = tmp_path / "p.pgm"
    rc, err = run_mcs("decrypt", str(img), "--key", keyfile, "--pgm", "--out", str(out))
    assert_clean_failure(rc, err)
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("comments, args", [
    (["cipher-pad 32"], []),
    (["plain-pad 30"], []),
    ([], ["--trim", "0"]),
], ids=["cipher-pad-all-pixels", "plain-pad-all-bytes", "trim-0"])
def test_pgm_decrypt_rejects_zero_pixels(tmp_path, keyfile, comments, args):
    # each route left nothing to write, and the command used to write a
    # 16x0 PGM, which read_pgm rejects, and exit 0
    img = tmp_path / "c.pgm"
    header = "P5\n" + "".join(f"# {c}\n" for c in comments) + "16 2\n255\n"
    img.write_bytes(header.encode("ascii") + bytes(32))
    out = tmp_path / "p.pgm"
    rc, err = run_mcs("decrypt", str(img), "--key", keyfile, "--pgm", "--out", str(out), *args)
    assert_clean_failure(rc, err)
    assert err == "error: PGM size 16x0 has no pixels\n"
    assert not out.exists()


def test_attack_without_an_oracle_fails_first(tmp_path, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    ek = tmp_path / "ek.bin"
    assert main(["attack", "--base", str(base), "--out", str(ek)]) == 2
    assert capsys.readouterr().err == "error: need --key or --oracle-cmd\n"
    assert not ek.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_attack_verify_without_key_fails_first(tmp_path, keyfile, capsys):
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    ek = tmp_path / "ek.bin"
    cmd = f"{sys.executable} -m mcs encrypt - --key {keyfile} --out -"
    rc = main(["attack", "--oracle-cmd", cmd, "--base", str(base), "--out", str(ek),
               "--verify", str(base)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --verify needs --key for the ground truth\n"
    assert not ek.exists()


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("pgm", [False, True], ids=["raw", "pgm"])
def test_decrypt_rejects_negative_trim(tmp_path, keyfile, nprng, pgm):
    # a negative --trim used to slice from the end and exit 0
    plain, enc, out = tmp_path / "p", str(tmp_path / "c"), tmp_path / "d"
    if pgm:
        write_pgm(str(plain), 6, 5, nprng.bytes(30))
    else:
        plain.write_bytes(nprng.bytes(30))
    assert main(["encrypt", str(plain), "--key", keyfile, "--out", enc]
                + ["--pgm"] * pgm) == 0
    rc, err = run_mcs("decrypt", enc, "--key", keyfile, "--out", str(out),
                      "--trim", "-5", *["--pgm"] * pgm)
    assert_clean_failure(rc, err)
    assert err.strip() == "error: --trim -5 is below 0"
    assert not out.exists()


def test_attack_reads_verify_file_first(tmp_path, keyfile, monkeypatch, capsys):
    # a missing --verify file, one whose length is no multiple of 16 and one
    # longer than the base used to be found only after 7 queries and the key file
    queries = []
    real = mcs.cli.encrypt
    monkeypatch.setattr("mcs.cli.encrypt", lambda p, key: queries.append(p) or real(p, key))
    missing, short, long_ = (str(tmp_path / name) for name in ("nosuchfile", "short", "long"))
    Path(short).write_bytes(bytes(31))
    Path(long_).write_bytes(bytes(16 * 200))
    for blocks, verify, err in [
            (4, missing, f"error: {missing}: No such file or directory\n"),
            (4, short, "error: ciphertext length 31 not divisible by 16\n"),
            (100, long_, "error: 200 blocks but key covers 100\n")]:
        base = tmp_path / "base.bin"
        base.write_bytes(bytes(15 * blocks))
        ek = tmp_path / "ek.bin"
        rc = main(["attack", "--key", keyfile, "--base", str(base), "--out", str(ek),
                   "--verify", verify])
        assert rc == 1
        assert capsys.readouterr().err == err
        assert queries == []
        assert not ek.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_recover_subkeys_rejects_zero_rotation(tmp_path, keyfile, nprng, capsys):
    # no legal (alpha, beta) rotates a row by 0; such a file used to end in
    # an OverflowError traceback
    base = tmp_path / "base.bin"
    base.write_bytes(nprng.bytes(15 * 4))
    path = tmp_path / "ek.bin"
    assert main(["attack", "--key", keyfile, "--base", str(base), "--out", str(path)]) == 0
    ek = read_equivalent_key(str(path))
    rot_x, rotx_known = ek.rot_x.copy(), ek.rotx_known.copy()
    rot_x[3, 2], rotx_known[3, 2] = 0, True
    write_equivalent_key(str(path), dataclasses.replace(ek, rot_x=rot_x,
                                                        rotx_known=rotx_known))
    rc, err = run_mcs("recover-subkeys", str(path))
    assert_clean_failure(rc, err)
    assert err == "error: equivalent-key block 3: known horizontal rotation is 0\n"


@pytest.mark.usefixtures("child_pythonpath")
def test_encrypt_rejects_overlong_decimal_x0(tmp_path):
    # x0 digits beyond int()'s limit used to end in a ValueError traceback
    key = tmp_path / "key.txt"
    key.write_text(format_key(SAMPLE_KEY).replace(SAMPLE_KEY.x0.to_hex(), "0." + "1" * 5000))
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(15))
    out = tmp_path / "c.bin"
    rc, err = run_mcs("encrypt", str(plain), "--key", str(key), "--out", str(out))
    assert_clean_failure(rc, err)
    assert err == "error: decimal value has too many digits\n"
    assert not out.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_encrypt_rejects_underscore_in_key_integer(tmp_path):
    # int() reads "2_5" as 25, which the key file used to accept
    key = tmp_path / "key.txt"
    key.write_text(format_key(SAMPLE_KEY).replace("secret=20", "secret=2_5"))
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(15))
    out = tmp_path / "c.bin"
    rc, err = run_mcs("encrypt", str(plain), "--key", str(key), "--out", str(out))
    assert_clean_failure(rc, err)
    assert err == "error: key file field secret is not a decimal integer: '2_5'\n"
    assert not out.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_encrypt_rejects_an_unknown_key_field(tmp_path):
    key = tmp_path / "key.txt"
    key.write_text(format_key(SAMPLE_KEY).replace("secret=20", "secret=20\nsceret=7"))
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(15))
    out = tmp_path / "c.bin"
    rc, err = run_mcs("encrypt", str(plain), "--key", str(key), "--out", str(out))
    assert_clean_failure(rc, err)
    assert err == "error: key file has unknown field sceret\n"
    assert not out.exists()


def test_attack_oracle_timeout(tmp_path, monkeypatch, capsys):
    # a hung --oracle-cmd used to stall the attack for good
    monkeypatch.setattr("mcs.cli.ORACLE_TIMEOUT_S", 0.25)
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    ek = tmp_path / "ek.bin"
    cmd = shlex.join([sys.executable, "-c", "import time; time.sleep(30)"])
    rc = main(["attack", "--oracle-cmd", cmd, "--base", str(base), "--out", str(ek)])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: [oracle] oracle command timed out after 0.25 s\n"
    assert not ek.exists()


def test_stats_smoke(capsys):
    assert main(["stats", "prop1", "--trials", "2000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "252 cells" in out
    assert main(["stats", "ambiguity", "--trials", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "1.4305e-05" in out
    assert main(["stats", "stilde", "--trials", "50000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.208612" in out and "0.196801" in out


@pytest.mark.parametrize("args, message", [
    (["stats", "stilde", "--trials", "0"], "--trials 0 is below 1"),
    (["stats", "stilde", "--trials", "-3"], "--trials -3 is below 1"),
    (["stats", "ambiguity", "--trials", "0"], "--trials 0 is below 1"),
    (["keygen", "--seed", "-1"], "--seed -1 is below 0"),
    (["stats", "prop1", "--seed", "-1"], "--seed -1 is below 0"),
    (["bench", "--seed", "-1"], "--seed -1 is below 0"),
    (["bench", "--sizes", "1500,abc"], "--sizes entry is not a decimal integer: 'abc'"),
    (["bench", "--sizes", "-15"], "--sizes entry -15 is below 1"),
    (["bench", "--sizes", "1500,1500"], "--sizes entry 1500 is repeated"),
    (["stats", "prop1", "--trials", str(10 ** 20)], f"--trials {10 ** 20} is above 1000000"),
    (["stats", "stilde", "--trials", str(10 ** 20)], f"--trials {10 ** 20} is above 1000000"),
    (["stats", "prop1", "--trials", "1000001"], "--trials 1000001 is above 1000000"),
    (["bench", "--sizes", str(15 * 10 ** 19)], f"--sizes entry {15 * 10 ** 19} is above 15728640"),
    (["bench", "--sizes", f"1500,{15 * 2 ** 20 + 15}"],
     f"--sizes entry {15 * 2 ** 20 + 15} is above 15728640"),
], ids=["stilde-zero-trials", "stilde-negative-trials", "ambiguity-zero-trials",
        "keygen-negative-seed", "stats-negative-seed", "bench-negative-seed",
        "bench-non-integer-size", "bench-negative-size", "bench-repeated-size",
        "prop1-huge-trials", "stilde-huge-trials",
        "prop1-trials-past-bound", "bench-huge-size", "bench-size-past-bound"])
def test_cli_rejects_bad_numbers(args, message, capsys):
    # each used to end in a traceback (ZeroDivisionError, ValueError,
    # MemoryError or OverflowError), except ambiguity --trials 0, which
    # silently simulated 10,000 blocks
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# the error line each entry point gives for a bad integer; a key file must be
# ASCII as a whole, and a PGM header cannot hold an empty field, so it ends early
_NUMBER_ENTRY_ERRORS = {
    "key-file": "key file (field secret .*|is not ASCII text .*)",
    "x0": "(decimal value .*|key file is not ASCII text .*)",
    "pgm-header": "(PGM width .*|truncated PGM header)",
    "pgm-comment": "PGM comment 'plain-width' .*",
    "sizes": "--sizes entry .*",
    "seed": "--seed .*",
    "trials": "--trials .*",
    "trim": "--trim .*",
}


def _number_entry_argv(tmp_path, entry, value):
    """A command line that reads ``value`` as an integer at ``entry``."""
    key, img, out = tmp_path / "key.txt", tmp_path / "in.pgm", str(tmp_path / "out")
    text = format_key(SAMPLE_KEY)
    if entry == "key-file":
        text = text.replace("secret=20", f"secret={value}")
    elif entry == "x0":
        text = text.replace(SAMPLE_KEY.x0.to_hex(), f"{value}.")
    key.write_bytes(text.encode())
    if entry == "pgm-header":
        img.write_bytes(f"P5\n{value} 2\n255\n".encode())
        return ["encrypt", str(img), "--key", str(key), "--pgm", "--out", out]
    if entry == "pgm-comment":
        img.write_bytes(f"P5\n# plain-width {value}\n16 2\n255\n".encode() + bytes(32))
        return ["decrypt", str(img), "--key", str(key), "--pgm", "--out", out]
    if entry == "sizes":
        return ["bench", "--sizes", f"1500,{value}"]
    if entry == "seed":
        return ["keygen", "--seed", value, "--out", out]
    if entry == "trials":
        return ["stats", "prop1", "--trials", value]
    if entry == "trim":
        img.write_bytes(bytes(16))
        return ["decrypt", str(img), "--key", str(key), "--trim", value, "--out", out]
    img.write_bytes(bytes(15))
    return ["encrypt", str(img), "--key", str(key), "--out", out]


@pytest.mark.parametrize("value", ["+5", "1_0", "\u0663", "0x19", "", "9" * 5000],
                         ids=["plus", "underscore", "arabic-indic", "hex", "empty", "5000-digits"])
@pytest.mark.parametrize("entry", list(_NUMBER_ENTRY_ERRORS))
def test_every_integer_entry_point_rejects_the_same_spellings(tmp_path, capsys, entry, value):
    # int() reads the first four as 5, 10, 3 and (with base 0) 25; the last
    # is past its digit limit. Each entry point gives one error line, no output
    argv = _number_entry_argv(tmp_path, entry, value)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {_NUMBER_ENTRY_ERRORS[entry]}\n", captured.err)
    assert captured.err.endswith(" has too many digits\n") == (len(value) > 4300)
    assert not (tmp_path / "out").exists()


def test_bench_empty(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "encrypt" in out


def test_bench_small(capsys):
    assert main(["bench", "--sizes", "1500,3000"]) == 0
    out = capsys.readouterr().out
    assert "1500" in out and "3000" in out
    assert main(["bench", "--sizes", "16"]) == 2


def test_bench_checks_sizes_before_timing(capsys):
    # an indivisible size used to be found only after the header and every
    # earlier row had been printed and timed
    assert main(["bench", "--sizes", "1500,16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: size 16 not divisible by 15\n"


@pytest.mark.parametrize("trials", [5000, 25000, 2_199_780])
def test_stats_ambiguity_simulates_every_trial(trials, capsys):
    # --trials used to become whole keys of 10,000 blocks: 5,000 ran 9,999
    # decisions and 25,000 ran 19,998; 2,199,780 is the acceptance scale
    # (220 keys of 10,000 blocks), above the bound prop1 and stilde take
    assert main(["stats", "ambiguity", "--trials", str(trials), "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"blocks simulated: {trials}\n")


def test_stats_ambiguity_has_no_trial_bound(monkeypatch):
    # ambiguity simulates one key at a time, so its memory does not grow with
    # --trials; a list of every key's size used to end 10^20 in a MemoryError.
    # The run is stopped at its first key, as it would not end.
    class FirstKey(Exception):
        pass

    def stop(x0, blocks):
        assert blocks == 10_000
        raise FirstKey
    monkeypatch.setattr("mcs.simulate.generate_prbs", stop)
    with pytest.raises(FirstKey):
        main(["stats", "ambiguity", "--trials", str(10 ** 20)])


# 30 plaintext pixels encrypt to 32 bytes; 4 pad pixels fill a 6x6 image
_CIPHER_PIXELS = encrypt(bytes(range(30)), SAMPLE_KEY) + bytes(4)
_CIPHER_COMMENTS = ["plain-width 6", "plain-height 5", "plain-pad 0", "cipher-pad 4"]
_ascii_lines = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24)
_size_comments = st.builds(
    "{} {}".format,
    st.sampled_from(["plain-width", "plain-height", "plain-pad", "cipher-pad",
                     "plain-pad  ", "width"]),
    st.one_of(st.integers(-2, 40), st.integers(-10 ** 30, 10 ** 30),
              st.text("0123456789-+ ", max_size=8), st.just("9" * 5000)))
# a subset of the comments encryption wrote, in any order, plus a few more
pgm_comments = st.builds(operator.add,
                         st.lists(st.sampled_from(_CIPHER_COMMENTS), unique=True),
                         st.lists(st.one_of(_size_comments, _ascii_lines), max_size=3))


@settings(max_examples=150, deadline=None)
@given(pgm_comments, st.sampled_from([(6, 6), (4, 9), (36, 1), (9, 4), (2, 18)]),
       st.one_of(st.none(), st.integers(-3, 40)))
def test_pgm_decrypt_comment_fuzz(tmp_path_factory, comments, size, trim):
    # any size comments either decrypt or end in one error line with exit 1
    root = tmp_path_factory.getbasetemp()
    key, img, out = root / "fuzz-key.txt", root / "fuzz-c.pgm", root / "fuzz-p.pgm"
    key.write_text(format_key(SAMPLE_KEY))
    write_pgm(str(img), *size, _CIPHER_PIXELS, tuple(comments))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["decrypt", str(img), "--key", str(key), "--pgm", "--out", str(out)]
                  + ([] if trim is None else ["--trim", str(trim)]))
    if rc == 0:
        assert out.exists() and err.getvalue() == ""
    else:
        assert rc == 1 and not out.exists()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

