"""Command-line front end: key generation, encryption, the attack, sub-key
recovery, statistics and benchmarks."""

from __future__ import annotations

import argparse
import math
import shlex
import subprocess
import sys
import time

import numpy as np

from . import formats
from .attack import run_attack
from .cipher import cipher_blocks, decrypt, ees_decrypt, encrypt
from .core import Fixed129, SecretKey, decimal_integer, legal_alpha_beta_pairs
from .errors import AttackFailed, DomainError, McsError, NonDivisibleLength
from .keyrecovery import MASKING_STATUS, grade, recover_report
from .simulate import (
    AMBIGUITY_BOUND,
    ambiguity_simulation,
    offset_ambiguity_model,
    prop1_grid,
)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


# --trials bound for prop1 and stilde, whose arrays grow with it (peak RSS there: 377, 120 MB)
MAX_TRIALS = 10 ** 6
MAX_SIZE = 15 * 2 ** 20  # the largest --sizes entry; mcs bench there peaked at 619 MB RSS


def _check_range(flag: str, value, low: int, high: float = math.inf) -> None:
    if value is not None and not low <= value <= high:
        side, bound = ("below", low) if value < low else ("above", high)
        raise DomainError(f"{flag} {value} is {side} {bound}")


def _random_key(rng) -> SecretKey:
    pairs = legal_alpha_beta_pairs()
    (a1, b1), (a2, b2) = (pairs[rng.integers(0, len(pairs))] for _ in range(2))
    return SecretKey(a1, b1, a2, b2, int(rng.integers(0, 256)),
                     Fixed129(int.from_bytes(rng.bytes(17), "big") >> 7))


def cmd_keygen(args) -> int:
    _check_range("--seed", args.seed, 0)
    text = formats.format_key(_random_key(np.random.default_rng(args.seed)))
    _write_output(args.out, text.encode("ascii"))
    return 0


def _pgm_encrypt(args, key: SecretKey) -> int:
    width, height, pixels, _ = formats.read_pgm(args.input)
    pad = (-len(pixels)) % 15
    cipher = encrypt(pixels + bytes(pad), key)
    out_h = math.ceil(len(cipher) / width)
    tail = width * out_h - len(cipher)
    comments = (f"plain-width {width}", f"plain-height {height}",
                f"plain-pad {pad}", f"cipher-pad {tail}")
    formats.write_pgm(args.out, width, out_h, cipher + bytes(tail), comments)
    return 0


def _pgm_decrypt(args, key: SecretKey) -> int:
    width, height, pixels, comments = formats.read_pgm(args.input)
    lows = {"plain-width": 1, "plain-height": 1, "plain-pad": 0, "cipher-pad": 0}
    meta = {}
    for c in comments:
        name, *value = c.split() or [""]
        if name not in lows:
            continue
        if name in meta:
            raise DomainError(f"PGM comment '{name}' is repeated")
        meta[name] = decimal_integer(" ".join(value), f"PGM comment '{name}'")
        if meta[name] < lows[name]:
            raise DomainError(f"PGM comment '{name} {meta[name]}' is below {lows[name]}")
    cipher_len = width * height - meta.get("cipher-pad", 0)
    if cipher_len < 0:
        raise DomainError(f"PGM comment cipher-pad exceeds the {width * height} pixels")
    plain = decrypt(pixels[:cipher_len], key)
    trim = len(plain) - meta.get("plain-pad", 0)
    if trim < 0:
        raise DomainError(f"PGM comment plain-pad exceeds the {len(plain)} decrypted bytes")
    if args.trim is not None:
        trim = args.trim
    plain = plain[:trim]
    out_w = meta.get("plain-width", width)
    out_h = meta["plain-height"] if "plain-height" in meta else math.ceil(len(plain) / out_w)
    if out_w * out_h != len(plain):
        raise NonDivisibleLength(
            f"decrypted size {len(plain)} does not fill {out_w}x{out_h}; use --trim")
    formats.write_pgm(args.out, out_w, out_h, plain)
    return 0


def cmd_encrypt(args) -> int:
    key = formats.read_key_file(args.key)
    if args.pgm:
        return _pgm_encrypt(args, key)
    data = _read_input(args.input)
    if len(data) % 15 != 0:
        if not args.pad:
            raise NonDivisibleLength(
                f"input is {len(data)} bytes; use --pad or supply a multiple of 15")
        data += bytes((-len(data)) % 15)
    _write_output(args.out, encrypt(data, key))
    return 0


def cmd_decrypt(args) -> int:
    _check_range("--trim", args.trim, 0)
    key = formats.read_key_file(args.key)
    if args.pgm:
        return _pgm_decrypt(args, key)
    plain = decrypt(_read_input(args.input), key)
    if args.trim is not None:
        plain = plain[:args.trim]
    _write_output(args.out, plain)
    return 0


class _CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.queries = 0

    def __call__(self, plaintext: bytes) -> bytes:
        self.queries += 1
        return self.fn(plaintext)


# seconds one --oracle-cmd query may take before the attack gives up
ORACLE_TIMEOUT_S = 60


def _subprocess_oracle(command: str):
    try:
        argv = shlex.split(command)
    except ValueError as exc:
        raise AttackFailed("oracle", f"cannot parse --oracle-cmd: {exc}") from None
    if not argv:
        raise AttackFailed("oracle", "--oracle-cmd is empty")

    def oracle(plaintext: bytes) -> bytes:
        try:
            proc = subprocess.run(argv, input=plaintext, stdout=subprocess.PIPE,
                                  check=True, timeout=ORACLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise AttackFailed("oracle", f"oracle command timed out after "
                                         f"{ORACLE_TIMEOUT_S:g} s") from None
        except subprocess.CalledProcessError as exc:
            raise AttackFailed("oracle", f"oracle command exited with status "
                                         f"{exc.returncode}") from None
        except OSError as exc:
            raise AttackFailed("oracle", f"cannot run oracle command {argv[0]!r}: "
                                         f"{exc.strerror or exc}") from None
        return proc.stdout

    return oracle


def cmd_attack(args) -> int:
    base = _read_input(args.base)
    key = formats.read_key_file(args.key) if args.key else None
    if args.oracle_cmd:
        oracle = _CountingOracle(_subprocess_oracle(args.oracle_cmd))
    elif key is not None:
        oracle = _CountingOracle(lambda p: encrypt(p, key))
    else:
        print("error: need --key or --oracle-cmd", file=sys.stderr)
        return 2
    if args.verify and key is None:
        print("error: --verify needs --key for the ground truth", file=sys.stderr)
        return 2
    cipher = _read_input(args.verify) if args.verify else None
    if cipher is not None:  # reject a bad file before any query or --out
        cipher_blocks(cipher, len(base) // 15)
    t0 = time.perf_counter()
    ek = run_attack(oracle, base)
    elapsed = time.perf_counter() - t0
    formats.write_equivalent_key(args.out, ek)
    print(f"oracle queries: {oracle.queries}")
    print(f"blocks: {ek.num_blocks}")
    print(f"elapsed: {elapsed:.3f} s")
    print(f"ambiguous expansion indices: {len(ek.l_candidates)}")
    print(f"unresolved blocks: {len(ek.unreliable_blocks)}")
    print(f"equivalent key written to {args.out}")
    if oracle.queries != 7:
        print(f"error: expected 7 oracle queries, used {oracle.queries}",
              file=sys.stderr)
        return 1
    if cipher is not None:
        recovered = ees_decrypt(cipher, ek)
        expected = decrypt(cipher, key)
        if recovered == expected:
            print(f"verify: OK ({len(recovered)} bytes match)")
        else:
            diff = sum(a != b for a, b in zip(recovered, expected))
            print(f"verify: MISMATCH ({diff} bytes differ)", file=sys.stderr)
            return 1
    return 0


def _render_report(report, grade_key=None) -> tuple[str, bool]:
    unique = np.count_nonzero(np.bitwise_count(report.offset_masks) == 1)
    known = np.count_nonzero(report.bits >= 0)
    codes, first, counts = np.unique(report.masking_status, return_index=True,
                                     return_counts=True)
    status_counts = {MASKING_STATUS[codes[i]]: int(counts[i]) for i in np.argsort(first)}
    lines = [f"blocks covered: {report.num_blocks}",
             f"R1 = {sorted(report.r1)}  candidates {sorted(report.ab_candidates1)}",
             f"R2 = {sorted(report.r2)}  candidates {sorted(report.ab_candidates2)}",
             f"unique frame offsets: {unique} / {2 * report.num_blocks}",
             f"controlling bits recovered: {known}",
             f"rotation-bit pair constraints: {np.count_nonzero(report.constraints)}",
             f"masking stage: {status_counts}"]
    if grade_key is None:
        return "\n".join(lines) + "\n", True
    g = grade(report, grade_key)
    true1 = (grade_key.alpha1, grade_key.beta1)
    true2 = (grade_key.alpha2, grade_key.beta2)
    lines += [f"grading: {known - g.wrong}/{known} recovered bits correct, "
              f"{g.wrong} wrong; {g.missed} constraint sets missing the truth",
              f"grading: true (alpha1, beta1) {true1} {'in' if g.found1 else 'NOT in'} "
              f"candidates; true (alpha2, beta2) {true2} "
              f"{'in' if g.found2 else 'NOT in'} candidates"]
    return "\n".join(lines) + "\n", g.ok


def cmd_recover_subkeys(args) -> int:
    ek = formats.read_equivalent_key(args.ekfile)
    report = recover_report(ek)
    grade_key = formats.read_key_file(args.grade_key) if args.grade_key else None
    text, graded_ok = _render_report(report, grade_key)
    _write_output(args.out, text.encode("ascii"))
    return 0 if graded_ok else 1


def cmd_stats(args) -> int:
    _check_range("--trials", args.trials, 1, math.inf if args.which == "ambiguity" else MAX_TRIALS)
    _check_range("--seed", args.seed, 0)
    if args.which == "prop1":
        cells = prop1_grid(trials=args.trials, seed=args.seed)
        bad = 0
        print(f"{'alpha':>5} {'beta':>4} {'p':>5} {'n':>2} {'exact':>10} "
              f"{'empirical':>10} {'3sigma':>9}")
        for c in cells:
            flag = "" if c.within_3_sigma else "  <-- OUT"
            bad += not c.within_3_sigma
            print(f"{c.alpha:>5} {c.beta:>4} {c.p:>5.2f} {c.n:>2} {c.exact:>10.6f} "
                  f"{c.empirical:>10.6f} {3 * c.sigma:>9.6f}{flag}")
        print(f"{len(cells)} cells, {bad} outside 3 sigma")
        return 1 if bad else 0
    if args.which == "ambiguity":
        ambiguous, total, _ = ambiguity_simulation(args.trials, seed=args.seed)
        rate = ambiguous / total
        print(f"blocks simulated: {total}")
        print(f"ambiguous expansion decisions: {ambiguous} (rate {rate:.3e})")
        print(f"bound 15/16^5 = {AMBIGUITY_BOUND:.4e}")
        return 0
    res = offset_ambiguity_model(args.trials, seed=args.seed)
    print(f"trials: {args.trials}")
    print(f"non-unique offset rate: {res['rate']:.6f} "
          f"(subset {res['subset_rate']:.6f} + symmetry {res['case_rate']:.6f})")
    print(f"model value: {res['model_value']:.6f} (3 sigma = {3 * res['sigma']:.6f})")
    print(f"reported lower bound with repeated probes: {res['lower_bound']:.6f}")
    return 0


def cmd_bench(args) -> int:
    entries = args.sizes.split(",") if args.sizes else []
    sizes = [decimal_integer(s, "--sizes entry") for s in entries]
    for n in sizes:
        _check_range("--sizes entry", n, 1, MAX_SIZE)
        if sizes.count(n) > 1:
            raise DomainError(f"--sizes entry {n} is repeated")
        if n % 15:
            print(f"error: size {n} not divisible by 15", file=sys.stderr)
            return 2
    _check_range("--seed", args.seed, 0)
    print(f"{'bytes':>10} {'encrypt(s)':>12} {'decrypt(s)':>12} {'attack(s)':>12}")
    rng = np.random.default_rng(args.seed)
    attack_s = []
    for n in sizes:
        key = _random_key(rng)
        plain = rng.bytes(n)
        t0 = time.perf_counter()
        cipher = encrypt(plain, key)
        t1 = time.perf_counter()
        decrypt(cipher, key)
        t2 = time.perf_counter()
        attack_key = _random_key(rng)  # its own key: the PRBS of `key` is still kept
        run_attack(lambda p: encrypt(p, attack_key), plain)
        t3 = time.perf_counter()
        attack_s.append(t3 - t2)
        print(f"{n:>10} {t1 - t0:>12.4f} {t2 - t1:>12.4f} {t3 - t2:>12.4f}")
    if len(attack_s) >= 2:
        slope = np.polyfit(np.log2(sizes), np.log2(attack_s), 1)[0]
        print(f"attack per-doubling ratio (fit): {2 ** slope:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a uniformly random key file")
    p.add_argument("--seed", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a file or stream")
    p.add_argument("input", help="input path or - for stdin")
    p.add_argument("--key", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--pad", action="store_true",
                   help="zero-pad input to a multiple of 15 bytes")
    p.add_argument("--pgm", action="store_true", help="treat input as binary PGM")
    p.set_defaults(fn=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a file or stream")
    p.add_argument("input", help="input path or - for stdin")
    p.add_argument("--key", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--trim", default=None,
                   help="cut decrypted output to this many bytes")
    p.add_argument("--pgm", action="store_true", help="treat input as binary PGM")
    p.set_defaults(fn=cmd_decrypt)

    p = sub.add_parser("attack", help="run the chosen-plaintext attack")
    p.add_argument("--key", default=None,
                   help="key file for the local oracle (never read by the attack)")
    p.add_argument("--oracle-cmd", default=None,
                   help="external oracle command: plaintext on stdin, ciphertext on "
                        f"stdout; each query may take at most {ORACLE_TIMEOUT_S} s")
    p.add_argument("--base", required=True, help="base plaintext file")
    p.add_argument("--out", required=True, help="equivalent-key output file")
    p.add_argument("--verify", default=None,
                   help="ciphertext file to decrypt with the recovered key")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("recover-subkeys", help="derive sub-keys and controlling bits")
    p.add_argument("ekfile", help="equivalent-key file")
    p.add_argument("--grade-key", default=None,
                   help="true key file, for grading the recovery")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_recover_subkeys)

    p = sub.add_parser("stats", help="probability statistics harnesses")
    p.add_argument("which", choices=("prop1", "ambiguity", "stilde"))
    p.add_argument("--trials", default=10 ** 5)
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("bench", help="timing table for encrypt/decrypt/attack")
    p.add_argument("--sizes", default="",
                   help="comma-separated byte sizes, each divisible by 15")
    p.add_argument("--seed", default=0)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("seed", "trials", "trim"):  # given as text, or the int default
            if isinstance(getattr(args, flag, None), str):
                setattr(args, flag, decimal_integer(getattr(args, flag), f"--{flag}"))
        return args.fn(args)
    except McsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path the user gave cannot be read or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
