"""Smoke test of the benchmark at a tiny size: every figure prints with its
unit, tracing leaves the program as it found it, and a corrupted oracle
shows up as failed operations."""

import dataclasses
import json

import pytest

import bench_workloads as bw
import run
from mcs import cipher

TINY = {
    "bulk-cipher": dict(blocks=64, pool=2),
    "packet-cipher": dict(lengths=(1, 8), messages=2),
    "image-break": dict(blocks=64, warm_blocks=48),
    "subkey-recovery": dict(blocks=256),
}
LAYERS = {
    "bulk-cipher": {"prbg", "cipher"},
    "packet-cipher": {"prbg", "cipher"},
    "image-break": {"prbg", "cipher", "attack", "formats"},
    "subkey-recovery": {"prbg", "formats", "keyrecovery"},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(bw.WORKLOADS[name], **TINY[name])


def printed_units(lines):
    return {w[0]: w[2] for w in map(str.split, lines) if len(w) >= 3}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace):
    encrypt = cipher.encrypt
    result = bw.measure(tiny(name), seed=5, seconds=0, trace=trace)
    assert cipher.encrypt is encrypt
    assert result.failed == 0
    lines, metrics = run.report(result, SPEC, trace)

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    if trace:
        expected = {k: unit for k, (unit, layer, _) in bw.PER_LAYER.items()
                    if layer in LAYERS[name] | {"trace"}}
    else:
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        expected.update(failure_ratio="ratio", **bw.WORKLOADS[name].named)
    units = printed_units(lines)
    assert {k: units.get(k) for k in expected} == expected


class FlippingOracle(bw.Oracle):
    """Flips one byte of the first ciphertext of each measured attack; the
    smaller warm-up attack in set-up is left intact."""

    def __call__(self, plaintext):
        out = super().__call__(plaintext)
        if self.queries == 1 and len(plaintext) == 15 * TINY["image-break"]["blocks"]:
            out = bytes([out[0] ^ 1]) + out[1:]
        return out


def test_corrupted_oracle_raises_failure_ratio(monkeypatch):
    monkeypatch.setattr(bw, "Oracle", FlippingOracle)
    result = bw.measure(tiny("image-break"), seed=5, seconds=0, trace=False)
    lines, _ = run.report(result, SPEC, False)
    ratio = next(float(w[1]) for w in map(str.split, lines) if w[0] == "failure_ratio")
    assert ratio > 0
    assert result.failed == result.attempted - 1  # only the known-answer check passes
