import contextlib
import dataclasses
import io
import operator
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcs
from conftest import SAMPLE_KEY
from mcs.cipher import encrypt
from mcs.cli import main
from mcs.formats import (
    format_key,
    read_equivalent_key,
    read_key_file,
    read_pgm,
    write_equivalent_key,
    write_pgm,
)
from mcs.keyrecovery import determine_s_offsets, recover_rotation_sets


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


def run_mcs(*args):
    """Run the CLI in a child process; returns (exit code, stderr text)."""
    proc = subprocess.run([sys.executable, "-m", "mcs", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr


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
@pytest.mark.parametrize("comments, name", [
    (["plain-width 0"], "plain-width"),
    (["plain-width 15", "plain-pad -1"], "plain-pad"),
    (["cipher-pad 33"], "cipher-pad"),
    (["plain-pad 31"], "plain-pad"),
    (["plain-width " + "9" * 5000], "plain-width"),
], ids=["zero-width", "negative-pad", "cipher-pad-too-large", "plain-pad-too-large",
        "overlong-width"])
def test_pgm_decrypt_bad_size_comments(tmp_path, keyfile, comments, name):
    # a zero width used to divide by zero; out-of-range pads were silently used;
    # a value of more digits than int() converts raised ValueError
    img = tmp_path / "c.pgm"
    header = "P5\n" + "".join(f"# {c}\n" for c in comments) + "16 2\n255\n"
    img.write_bytes(header.encode("ascii") + bytes(32))
    out = tmp_path / "p.pgm"
    rc, err = run_mcs("decrypt", str(img), "--key", keyfile, "--pgm", "--out", str(out))
    assert_clean_failure(rc, err)
    assert name in err
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
    assert "--trim -5" in err
    assert not out.exists()


def test_attack_reads_verify_file_first(tmp_path, keyfile, monkeypatch, capsys):
    # a missing --verify file used to be found only after 7 queries and the key file
    queries = []
    real = mcs.cli.encrypt
    monkeypatch.setattr("mcs.cli.encrypt", lambda p, key: queries.append(p) or real(p, key))
    base = tmp_path / "base.bin"
    base.write_bytes(bytes(60))
    ek, missing = tmp_path / "ek.bin", str(tmp_path / "nosuchfile")
    rc = main(["attack", "--key", keyfile, "--base", str(base), "--out", str(ek),
               "--verify", missing])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"
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
    assert "5002 characters" in err
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
    (["bench", "--sizes", "1500,abc"], "--sizes '1500,abc' is not a list of integers"),
    (["bench", "--sizes", "-15"], "--sizes entry -15 is below 1"),
], ids=["stilde-zero-trials", "stilde-negative-trials", "ambiguity-zero-trials",
        "keygen-negative-seed", "stats-negative-seed", "bench-negative-seed",
        "bench-non-integer-size", "bench-negative-size"])
def test_cli_rejects_bad_numbers(args, message, capsys):
    # each used to end in a traceback (ZeroDivisionError or ValueError), except
    # ambiguity --trials 0, which silently simulated 10,000 blocks
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("trials", [5000, 25000])
def test_stats_ambiguity_simulates_every_trial(trials, capsys):
    # --trials used to become whole keys of 10,000 blocks: 5,000 ran 9,999
    # decisions and 25,000 ran 19,998
    assert main(["stats", "ambiguity", "--trials", str(trials), "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"blocks simulated: {trials}\n")


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

