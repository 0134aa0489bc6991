import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import mcs
from conftest import SAMPLE_KEY
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
    assert open(out1).read() == open(out2).read()
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
    assert plain.read_bytes() == open(dec, "rb").read()


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
    assert open(dec, "rb").read() == data


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
    text = open(report).read()
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
    offsets = determine_s_offsets(ek, *recover_rotation_sets(ek))
    k, t = next((k, t) for k, (t, _) in enumerate(offsets) if not isinstance(t, frozenset))
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
    assert open(ek1, "rb").read() == open(ek2, "rb").read()


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


def test_bench_empty(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "encrypt" in out


def test_bench_small(capsys):
    assert main(["bench", "--sizes", "1500,3000"]) == 0
    out = capsys.readouterr().out
    assert "1500" in out and "3000" in out
    assert main(["bench", "--sizes", "16"]) == 2
