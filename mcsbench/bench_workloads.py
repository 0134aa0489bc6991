"""Workloads of the mcs benchmark: inputs, timed calls and output checks.

Each workload runs in one process with one closed-loop caller: an operation
starts only after the previous one returned. The seed draws every key's x0
and secret byte and every plaintext; the (alpha, beta) pairs are fixed per
workload because key-recovery cost depends on the rotation class. An
operation's time is the sum of its timed calls into the program; input
generation and output checks run outside the timed calls.

Every call goes through a module attribute (``cipher.encrypt``, not an
imported name), so the tracer in ``bench_trace`` sees it.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from mcs import attack, cipher, formats, keyrecovery, prbg
from mcs.core import Fixed129, SecretKey

from bench_trace import Target, Tracer

# Set-up runs at least SETUP_REPEATS times and for SETUP_SHARE of the run's
# measuring time, so that a set-up of a few milliseconds still gets a
# steady median.
SETUP_REPEATS = 5
SETUP_SHARE = 0.04

# The host this benchmark was defined on is a 2-vCPU share of a machine whose
# other tenants slow computations by up to half, for seconds to minutes at a
# time; over 25 s, the mean time of one operation moves by up to a third
# between runs with them. A fixed computation that belongs to the benchmark, the
# reference, is therefore timed between the measured calls, taking REF_SHARE
# of the measured time, and op_ms and setup_s are scaled to a host on which
# one reference call takes REF_MS: a time t measured in one phase of a run
# (set-up or operations) is reported as t * REF_MS / (mean reference time of
# that phase). The program never runs the reference, so a change to the
# program moves the scaled times exactly as it moves the measured ones; the
# measured times are printed too. REF_MS is about the reference's typical
# time on that host.
REF_MS = 10.0
REF_SHARE = 0.25
REF_MIN_CALLS = 5  # per phase, so that short set-ups still get a steady mean

# Known answer: this key, this plaintext, and the SHA-256 of its ciphertext
# as the cipher produced it when the benchmark was defined.
KAT_KEY = SecretKey(2, 5, 3, 4, 20, Fixed129.from_decimal_string("0.251"))
KAT_PLAIN = bytes((37 * i + 11) & 0xFF for i in range(15 * 1024))
KAT_SHA256 = "549234a887cc1c25ae657095cdd1fe3a9f309e7dd75c423a3dbf6221bf98a675"


class CheckFailed(Exception):
    """A program output differs from what the workload expects."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def draw_key(rng: np.random.Generator, pair) -> SecretKey:
    (a1, b1), (a2, b2) = pair
    secret = int(rng.integers(0, 256))
    x0 = Fixed129(int.from_bytes(rng.bytes(17), "big") >> 7)
    return SecretKey(a1, b1, a2, b2, secret, x0)


def known_answer() -> None:
    """The fixed-key ciphertext digest still matches and decrypts back."""
    c = cipher.encrypt(KAT_PLAIN, KAT_KEY)
    check(hashlib.sha256(c).hexdigest() == KAT_SHA256, "known-answer digest changed")
    check(cipher.decrypt(c, KAT_KEY) == KAT_PLAIN, "known-answer round trip")


class Oracle:
    """Chosen-plaintext encryption oracle holding the key; counts queries."""

    def __init__(self, key: SecretKey):
        self.key = key
        self.queries = 0

    def __call__(self, plaintext: bytes) -> bytes:
        self.queries += 1
        return cipher.encrypt(plaintext, self.key)


def break_key(key: SecretKey, base: bytes, wrap):
    """run_attack against an in-process oracle; exactly 7 queries."""
    oracle = Oracle(key)
    ek, seconds = timed(attack.run_attack, wrap(oracle, "attack.oracle", _plain_bytes), base)
    check(oracle.queries == 7, f"attack made {oracle.queries} oracle queries, not 7")
    return ek, seconds


def grade(report, key: SecretKey) -> None:
    """The checks of ``mcs recover-subkeys --grade-key``, all required to pass."""
    truth = prbg.generate_prbs(key.x0, report.num_blocks).bits.reshape(-1)
    idx = np.fromiter(report.known_bits.keys(), dtype=np.int64, count=len(report.known_bits))
    val = np.fromiter(report.known_bits.values(), dtype=np.uint8, count=len(report.known_bits))
    check(not (truth[idx] != val).any(), "a recovered controlling bit is wrong")
    masks: dict[frozenset, int] = {}
    for s in report.constrained.values():
        if s not in masks:
            masks[s] = sum(1 << (2 * p + m) for p, m in s)
    pairs = np.array(list(report.constrained.keys()), dtype=np.int64).reshape(-1, 2)
    allowed = np.fromiter((masks[s] for s in report.constrained.values()), dtype=np.int64,
                          count=len(pairs))
    truth_pair = 2 * truth[pairs[:, 0]].astype(np.int64) + truth[pairs[:, 1]]
    check(((allowed >> truth_pair) & 1).all(), "a rotation constraint set misses the truth")
    check((key.alpha1, key.beta1) in report.ab_candidates1, "true (alpha1, beta1) not a candidate")
    check((key.alpha2, key.beta2) in report.ab_candidates2, "true (alpha2, beta2) not a candidate")


def _median_rate(samples, nbytes: str, seconds: str) -> float:
    return statistics.median(s[nbytes] / s[seconds] for s in samples) / 1e6


def _median(samples, key: str) -> float:
    return statistics.median(s[key] for s in samples)


# ---------------------------------------------------------------------------
# Workloads. ``setup`` builds the inputs and warms up; ``prepare`` draws the
# inputs of operation i (untimed, untraced); ``run`` performs it.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BulkCipher:
    name = "bulk-cipher"
    named = {"encrypt_MBps": "MB/s", "decrypt_MBps": "MB/s"}
    pairs: tuple = (((1, 2), (3, 4)), ((2, 5), (4, 1)))
    blocks: int = 16384
    pool: int = 4

    def setup(self, rng):
        plains = [rng.bytes(15 * self.blocks) for _ in range(self.pool)]
        self.run(plains, self.prepare(plains, rng, 0), _untraced)
        return plains

    def prepare(self, plains, rng, i):
        (a1, b1), (a2, b2) = self.pairs[i % len(self.pairs)]
        secret = int(rng.integers(0, 256))
        raw = int.from_bytes(rng.bytes(17), "big") >> 7
        return (a1, b1, a2, b2, secret, raw), plains[i % len(plains)]

    def run(self, state, inputs, wrap):
        params, plain = inputs
        start = time.perf_counter()
        key = SecretKey(*params[:5], Fixed129(params[5]))  # a fresh key per message
        c = cipher.encrypt(plain, key)
        t_enc = time.perf_counter() - start
        p, t_dec = timed(cipher.decrypt, c, key)
        check(p == plain, "bulk round trip")
        return {"op": t_enc + t_dec, "encrypt": t_enc, "decrypt": t_dec, "bytes": len(plain)}

    def summarize(self, samples):
        return {"encrypt_MBps": _median_rate(samples, "bytes", "encrypt"),
                "decrypt_MBps": _median_rate(samples, "bytes", "decrypt")}


@dataclass(frozen=True)
class PacketCipher:
    name = "packet-cipher"
    named = {"encrypt_MBps": "MB/s", "decrypt_MBps": "MB/s"}
    pairs: tuple = (((1, 2), (3, 4)), ((2, 5), (4, 1)), ((1, 6), (2, 2)), ((3, 3), (5, 1)))
    lengths: tuple = (1, 8, 64)
    messages: int = 4

    def setup(self, rng):
        keys = [draw_key(rng, pair) for pair in self.pairs]
        plains = {n: [rng.bytes(15 * n) for _ in range(self.messages)] for n in self.lengths}
        state = (keys, plains)
        self.run(state, self.prepare(state, rng, 0), _untraced)
        return state

    def prepare(self, state, rng, i):
        keys, plains = state
        return [(key, plains[n][i % self.messages]) for key in keys for n in self.lengths]

    def run(self, state, inputs, wrap):
        t_enc = t_dec = 0.0
        nbytes = 0
        for key, plain in inputs:
            c, te = timed(cipher.encrypt, plain, key)
            p, td = timed(cipher.decrypt, c, key)
            check(p == plain, f"packet round trip at {len(plain)} bytes")
            t_enc += te
            t_dec += td
            nbytes += len(plain)
        return {"op": t_enc + t_dec, "encrypt": t_enc, "decrypt": t_dec, "bytes": nbytes}

    def summarize(self, samples):
        return {"encrypt_MBps": _median_rate(samples, "bytes", "encrypt"),
                "decrypt_MBps": _median_rate(samples, "bytes", "decrypt")}


@dataclass(frozen=True)
class ImageBreak:
    name = "image-break"
    named = {"attack_s": "s", "ees_decrypt_MBps": "MB/s",
             "mek1_write_s": "s", "mek1_read_s": "s"}
    pairs: tuple = (((2, 5), (3, 4)), ((1, 1), (4, 2)))
    blocks: int = 16384
    warm_blocks: int = 2048

    def setup(self, rng):
        self.run(None, self._draw(rng, 0, self.warm_blocks), _untraced)

    def prepare(self, state, rng, i):
        return self._draw(rng, i, self.blocks)

    def _draw(self, rng, i, blocks):
        key = draw_key(rng, self.pairs[i % len(self.pairs)])
        base = rng.bytes(15 * blocks)
        fresh = rng.bytes(15 * blocks)
        return key, base, fresh, cipher.encrypt(fresh, key)

    def run(self, state, inputs, wrap):
        key, base, fresh, fresh_cipher = inputs
        ek, t_attack = break_key(key, base, wrap)
        data, t_write = timed(formats.equivalent_key_to_bytes, ek)
        back, t_read = timed(formats.equivalent_key_from_bytes, data)
        before, t_ees1 = timed(attack.ees_decrypt, fresh_cipher, ek)
        after, t_ees2 = timed(attack.ees_decrypt, fresh_cipher, back)
        check(before == fresh, "ees_decrypt before the MEK1 round trip")
        check(after == fresh, "ees_decrypt after the MEK1 round trip")
        return {"op": t_attack + t_write + t_read + t_ees1 + t_ees2,
                "attack": t_attack, "mek1_write": t_write, "mek1_read": t_read,
                "ees": t_ees1 + t_ees2, "ees_bytes": 2 * len(fresh),
                "ambiguous_l": len(ek.l_candidates),
                "unreliable_blocks": len(ek.unreliable_blocks)}

    def summarize(self, samples):
        return {"attack_s": _median(samples, "attack"),
                "ees_decrypt_MBps": _median_rate(samples, "ees_bytes", "ees"),
                "mek1_write_s": _median(samples, "mek1_write"),
                "mek1_read_s": _median(samples, "mek1_read")}


@dataclass(frozen=True)
class SubkeyRecovery:
    name = "subkey-recovery"
    named = {"recover_s": "s"}
    # (2,4) gives the rotationally symmetric set {2,6} (unique pair), (1,3)
    # the two-way set {1,4,7}, (1,1) the four-way set {1,2,6,7}, (3,2) the
    # unique set {3,5}.
    pairs: tuple = (((2, 4), (1, 3)), ((1, 1), (3, 2)))
    blocks: int = 4096

    def setup(self, rng):
        keys = []
        for pair in self.pairs:
            key = draw_key(rng, pair)
            ek, _ = break_key(key, rng.bytes(15 * self.blocks), _untraced)
            keys.append((key, formats.equivalent_key_to_bytes(ek)))
        return keys

    def prepare(self, state, rng, i):
        return state

    def run(self, state, inputs, wrap):
        sample = {"op": 0.0, "recover": [], "known_bits": 0, "constrained_pairs": 0,
                  "unique_offsets": 0, "offset_slots": 0}
        for key, data in inputs:
            start = time.perf_counter()
            ek = formats.equivalent_key_from_bytes(data)
            report, t_recover = timed(keyrecovery.recover_report, ek)
            grade(report, key)
            sample["op"] += time.perf_counter() - start
            sample["recover"].append(t_recover)
            sample["known_bits"] += len(report.known_bits)
            sample["constrained_pairs"] += len(report.constrained)
            sample["unique_offsets"] += sum(not isinstance(t, frozenset)
                                            for off in report.s_offsets for t in off)
            sample["offset_slots"] += 2 * report.num_blocks
        return sample

    def summarize(self, samples):
        # Recovery cost differs several-fold between the keys, so each key's
        # own median is taken before averaging over the fixed key list.
        per_key = zip(*(s["recover"] for s in samples))
        return {"recover_s": statistics.fmean(statistics.median(t) for t in per_key)}


WORKLOADS = {w.name: w for w in (BulkCipher(), PacketCipher(), ImageBreak(), SubkeyRecovery())}


def _untraced(fn, span, size_of):
    return fn


def _plain_bytes(args) -> int:
    return len(args[0])


def _blocks(width):
    return lambda args: len(args[0]) // width


def _none(args) -> int:
    return 0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def trace_targets() -> list[Target]:
    """The public names wrapped in a traced run, with their span names."""
    return [
        Target(cipher, "generate_prbs", "prbg.generate", lambda a: a[1]),
        Target(prbg, "generate_prbs", "prbg.generate", lambda a: a[1]),
        Target(cipher, "encrypt", "cipher.encrypt", _blocks(15)),
        Target(cipher, "decrypt", "cipher.decrypt", _blocks(16)),
        Target(attack, "run_attack", "attack.run", lambda a: len(a[1]) // 15),
        Target(formats, "equivalent_key_to_bytes", "formats.mek1_write", lambda a: a[0].num_blocks),
        Target(formats, "equivalent_key_from_bytes", "formats.mek1_read", _plain_bytes),
        Target(keyrecovery, "recover_report", "keyrecovery.report", lambda a: a[0].num_blocks),
        Target(keyrecovery, "recover_rotation_sets", "keyrecovery.rotation_sets", _none),
        Target(keyrecovery, "determine_s_offsets", "keyrecovery.offsets", _none),
        Target(keyrecovery, "recover_swap_bits_9to35", "keyrecovery.swap_bits", _none),
        Target(keyrecovery, "recover_masking_bits", "keyrecovery.masking_bits", _none),
        Target(keyrecovery, "constrain_rotation_bits", "keyrecovery.rotation_constraints", _none),
    ]


class Reference:
    """Times a fixed computation of the kinds the program does (a numpy sort,
    numpy element-wise passes, a Python loop filling a dict from numpy
    scalars) to track the host's speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.words = rng.integers(0, 1 << 32, 200_000, dtype=np.uint64)
        self.bytes = rng.integers(0, 256, 1 << 18, dtype=np.uint8)
        self.small = rng.integers(0, 8, (1500, 8), dtype=np.uint8)
        self.sets = [frozenset({(v & 1, v >> 1)}) for v in range(8)]
        self.times: list[float] = []
        self.followed = 0.0

    def _call(self) -> int:
        a = self.words.copy()
        a.sort()
        b = self.bytes
        for _ in range(10):
            b = np.roll(b ^ (b >> 1), 3)
        d = {}
        for k in range(len(self.small)):
            for j in range(8):
                lo = 129 * k + 2 * j
                d[(lo, lo + 1)] = self.sets[(int(self.small[k, j]) - 3) % 8]
        return int(a[7]) + int(b[0]) + len(d)

    def follow(self, seconds: float) -> None:
        """Account for ``seconds`` of measured time, timing reference calls
        until they add up to REF_SHARE of all time accounted for."""
        self.followed += seconds
        while len(self.times) < REF_MIN_CALLS or sum(self.times) < REF_SHARE * self.followed:
            start = time.perf_counter()
            self._call()
            self.times.append(time.perf_counter() - start)

    def scaled(self, seconds: float) -> float:
        """``seconds`` as they would read on a host where a call takes REF_MS."""
        return seconds * REF_MS / (1e3 * statistics.fmean(self.times))


@dataclass
class Run:
    workload: object
    setup_s: list[float]
    setup_ref: Reference
    op_ref: Reference
    samples: list[dict] = field(default_factory=list)  # successful operations
    attempted: int = 0
    failed: int = 0
    tracer: Tracer | None = None
    peak_rss_mb: float = 0.0

    def untraced(self) -> list[dict]:
        return [s for s in self.samples if not s["traced"]]

    def traced(self) -> list[dict]:
        return [s for s in self.samples if s["traced"]]


def _attempt(run: Run, fn, label: str):
    """Count one operation; a raise or a failed check marks it failed."""
    run.attempted += 1
    try:
        return fn()
    except CheckFailed as exc:
        print(f"{label} failed its check: {exc}", file=sys.stderr)
    except Exception:  # the loop must go on; the failure is counted and shown
        print(f"{label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    run.failed += 1
    return None


def measure(workload, seed: int, seconds: float, trace: bool) -> Run:
    """Set up, then run operations for ``seconds``; in a traced run every
    other operation is traced, so traced and untraced times interleave."""
    setup_s = []
    setup_ref = Reference()
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SHARE * seconds:
        start = time.perf_counter()
        state = workload.setup(np.random.default_rng([seed, 0]))
        setup_s.append(time.perf_counter() - start)
        setup_ref.follow(setup_s[-1])
    run = Run(workload, setup_s, setup_ref, Reference(),
              tracer=Tracer(trace_targets()) if trace else None)
    _attempt(run, known_answer, "known-answer check")

    min_ops = 2 if trace else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        inputs = workload.prepare(state, np.random.default_rng([seed, 1, i]), i)
        gc.collect()  # every operation starts without the garbage of the last
        traced = trace and i % 2 == 1

        def op(i=i, inputs=inputs, traced=traced):
            if not traced:
                return workload.run(state, inputs, _untraced)
            run.tracer.install(i)
            try:
                return workload.run(state, inputs, run.tracer.wrap)
            finally:
                run.tracer.restore()

        op_start = time.perf_counter()
        sample = _attempt(run, op, f"operation {i}")
        run.op_ref.follow(time.perf_counter() - op_start)
        if sample is not None:
            sample.update(index=i, traced=traced)
            run.samples.append(sample)
        i += 1
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def end_to_end(run: Run) -> dict[str, float]:
    """Every end-to-end figure of the run, from its untraced operations.
    setup_s is the median set-up and op_ms the mean operation, both scaled
    by the reference; the *_wall_* figures and the workload's own figures
    are as measured."""
    setup_wall = statistics.median(run.setup_s)
    out = {"setup_s": run.setup_ref.scaled(setup_wall),
           "setup_wall_s": setup_wall,
           "ref_ms": 1e3 * statistics.fmean(run.op_ref.times),
           "peak_rss_MB": run.peak_rss_mb,
           "failure_ratio": run.failed / run.attempted,
           "success_ratio": 1 - run.failed / run.attempted}
    samples = run.untraced()
    if samples:
        # A mean, like the reference's: both average the host's speed over
        # the same stretch of time, which a median would not.
        op_wall = statistics.fmean(s["op"] for s in samples)
        out["op_ms"] = 1e3 * run.op_ref.scaled(op_wall)
        out["op_wall_ms"] = 1e3 * op_wall
        out.update(run.workload.summarize(samples))
    return out


# ---------------------------------------------------------------------------
# Per-layer figures of a traced run
# ---------------------------------------------------------------------------

# name: (unit, layer, the end-to-end figure it should move and on which workload).
# Times and counts are per operation, the median over traced operations.
PER_LAYER = {
    "prbg.generate_s": ("s", "prbg", "encrypt/decrypt_MBps on bulk-cipher (~20% share); attack_s via the oracle on image-break; little on packet-cipher"),
    "prbg.calls": ("count", "prbg", "op_ms on packet-cipher, where per-call cost dominates"),
    "prbg.blocks": ("count", "prbg", "drops when PRBS work is cached: packet-cipher, the image-break oracle; never bulk-cipher"),
    "cipher.encrypt_self_s": ("s", "cipher", "encrypt_MBps on bulk-cipher and packet-cipher; attack_s via attack.oracle_s on image-break"),
    "cipher.decrypt_self_s": ("s", "cipher", "decrypt_MBps on bulk-cipher and packet-cipher"),
    "cipher.calls": ("count", "cipher", "op_ms on packet-cipher, where per-call cost dominates"),
    "cipher.blocks": ("count", "cipher", "encrypt/decrypt_MBps on both cipher workloads"),
    "attack.oracle_s": ("s", "attack", "attack_s on image-break"),
    "attack.analysis_s": ("s", "attack", "attack_s on image-break"),
    "attack.queries": ("count", "attack", "nothing: exactly 7 per attack on image-break"),
    "attack.oracle_bytes": ("count", "attack", "attack_s on image-break, through attack.oracle_s"),
    "attack.prep.expansion_s": ("s", "attack", "attack_s on image-break"),
    "attack.prep.swap_s": ("s", "attack", "attack_s on image-break"),
    "attack.prep.vertical_s": ("s", "attack", "attack_s on image-break"),
    "attack.prep.horizontal_s": ("s", "attack", "attack_s on image-break"),
    "attack.finish_s": ("s", "attack", "attack_s on image-break"),
    "attack.ambiguous_l": ("count", "attack", "attack_s on image-break"),
    "attack.unreliable_blocks": ("count", "attack", "attack_s on image-break"),
    "formats.mek1_bytes": ("count", "formats", "mek1_write_s and mek1_read_s on image-break"),
    "keyrecovery.rotation_sets_s": ("s", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.offsets_s": ("s", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.swap_bits_s": ("s", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.masking_bits_s": ("s", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.rotation_constraints_s": ("s", "keyrecovery", "recover_s on subkey-recovery (~90% share)"),
    "keyrecovery.report_self_s": ("s", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.known_bits": ("count", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.constrained_pairs": ("count", "keyrecovery", "recover_s on subkey-recovery"),
    "keyrecovery.unique_offset_ratio": ("ratio", "keyrecovery", "recover_s on subkey-recovery"),
    "trace.overhead_ms": ("ms", "trace", "nothing: traced minus untraced median operation time, as measured, in the same run"),
}

_PREP_STAGES = (("attack.prep.expansion_s", 0), ("attack.prep.swap_s", 2),
                ("attack.prep.vertical_s", 4), ("attack.prep.horizontal_s", 5))


def _op_layers(spans, self_times, sample) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    dur = lambda name: sum(s.duration for s in by[name])
    slf = lambda name: sum(self_times[s.index] for s in by[name])
    size = lambda name: sum(s.size for s in by[name])
    v = {
        "prbg.generate_s": dur("prbg.generate"),
        "prbg.calls": len(by["prbg.generate"]),
        "prbg.blocks": size("prbg.generate"),
        "cipher.encrypt_self_s": slf("cipher.encrypt"),
        "cipher.decrypt_self_s": slf("cipher.decrypt"),
        "cipher.calls": len(by["cipher.encrypt"]) + len(by["cipher.decrypt"]),
        "cipher.blocks": size("cipher.encrypt") + size("cipher.decrypt"),
        "attack.oracle_s": dur("attack.oracle"),
        "attack.analysis_s": dur("attack.run") - dur("attack.oracle"),
        "attack.queries": len(by["attack.oracle"]),
        "attack.oracle_bytes": size("attack.oracle"),
        "attack.ambiguous_l": sample.get("ambiguous_l", 0),
        "attack.unreliable_blocks": sample.get("unreliable_blocks", 0),
        "formats.mek1_bytes": size("formats.mek1_read"),
        "keyrecovery.rotation_sets_s": dur("keyrecovery.rotation_sets"),
        "keyrecovery.offsets_s": dur("keyrecovery.offsets"),
        "keyrecovery.swap_bits_s": dur("keyrecovery.swap_bits"),
        "keyrecovery.masking_bits_s": dur("keyrecovery.masking_bits"),
        "keyrecovery.rotation_constraints_s": dur("keyrecovery.rotation_constraints"),
        "keyrecovery.report_self_s": slf("keyrecovery.report"),
        "keyrecovery.known_bits": sample.get("known_bits", 0),
        "keyrecovery.constrained_pairs": sample.get("constrained_pairs", 0),
        "keyrecovery.unique_offset_ratio":
            sample.get("unique_offsets", 0) / sample["offset_slots"] if "offset_slots" in sample else 0.0,
    }
    # Stage gaps come from the oracle's span timestamps: prep of a stage is
    # the gap from the end of the previous query to the stage's first query.
    for name, _ in _PREP_STAGES:
        v[name] = 0.0
    v["attack.finish_s"] = 0.0
    for r in by["attack.run"]:
        q = sorted((s for s in by["attack.oracle"] if s.parent == r.index), key=lambda s: s.start)
        if len(q) == 7:
            for name, prev in _PREP_STAGES:
                v[name] += q[prev + 1].start - q[prev].end
            v["attack.finish_s"] += r.end - q[-1].end
    return v


def per_layer(run: Run) -> tuple[dict[str, float], set[str], set[str]]:
    """Median per traced operation of every per-layer figure, the layers
    that ran, and the layers whose wrapped names are missing."""
    tracer = run.tracer
    missing = {t.span.split(".")[0] for t in tracer.missing}
    self_times = tracer.self_times()
    by_op = defaultdict(list)
    for s in tracer.spans:
        by_op[s.op].append(s)
    traced = run.traced()
    rows = [_op_layers(by_op[s["index"]], self_times, s) for s in traced]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]} if rows else {}
    ran = {s.name.split(".")[0] for s in tracer.spans}
    untraced = run.untraced()
    if traced and untraced:
        out["trace.overhead_ms"] = 1e3 * (_median(traced, "op") - _median(untraced, "op"))
    return out, ran, missing
