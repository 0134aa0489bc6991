#!/usr/bin/env python3
"""The mcs benchmark: one workload, one process, one closed-loop caller.

Run from the root of a source checkout:

    python3 mcsbench/run.py --workload bulk-cipher --seed 1 --seconds 15 --trace 0
    python3 mcsbench/run.py --workload all --seed 1 --seconds 15 --trace 1

It imports the program from ``src/`` of the checkout, prints every figure as
``name value unit`` and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. A traced run also writes its spans to
``.mcsbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bulk-cipher", "packet-cipher", "image-break", "subkey-recovery")


def git_revision(root: Path) -> str | None:
    """The commit a checkout's .git points at, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, numpy_version: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mcs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_revision": git_revision(ROOT), "src_sha256": src.hexdigest()}


def report(run, spec: dict, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines and the metrics of the result line."""
    import bench_workloads as bw

    lines = []
    e2e = bw.end_to_end(run)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(failure_ratio="ratio", op_wall_ms="ms", setup_wall_s="s", ref_ms="ms",
                 **run.workload.named)
    for name, unit in units.items():
        lines.append(f"{name} {e2e[name]:.6g} {unit}" if name in e2e else f"{name} missing")
    lines.append(f"operations {run.attempted} attempted, {run.failed} failed, "
                 f"{len(run.untraced())} untraced and {len(run.traced())} traced samples")
    wanted = "per_layer" if trace else "end_to_end"
    if not trace:
        values = e2e
    else:
        values, ran, missing = bw.per_layer(run)
        if run.tracer.missing:
            lines.append("wrapped names missing: "
                         + ", ".join(t.qualname for t in run.tracer.missing))
        for name, (unit, layer, moves) in bw.PER_LAYER.items():
            if layer in missing:
                lines.append(f"{name} missing")
            elif layer == "trace" or layer in ran:
                lines.append(f"{name} {values[name]:.6g} {unit}  [{layer}; moves {moves}]")
        values = {k: v for k, v in values.items()
                  if bw.PER_LAYER[k][1] not in missing}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[wanted] if m["name"] in values}
    return lines, metrics


def write_spans(run, prov: dict) -> Path:
    out = ROOT / ".mcsbench" / f"spans-{prov['workload']}-{prov['seed']}.json"
    out.parent.mkdir(exist_ok=True)
    t0 = min((s.start for s in run.tracer.spans), default=0.0)
    doc = {"provenance": prov, "missing": [t.qualname for t in run.tracer.missing],
           "columns": ["name", "op", "start_s", "end_s", "parent", "size"],
           "spans": [[s.name, s.op, round(s.start - t0, 9), round(s.end - t0, 9),
                      s.parent, s.size] for s in run.tracer.spans]}
    out.write_text(json.dumps(doc))
    return out


def run_one(args) -> int:
    import numpy
    import bench_workloads as bw

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args, numpy.__version__)
    print("provenance " + json.dumps(prov))
    run = bw.measure(bw.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    lines, metrics = report(run, spec, bool(args.trace))
    print("\n".join(lines))
    if args.trace:
        print(f"spans written to {write_spans(run, prov).relative_to(ROOT)}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name} exited with code {proc.returncode}", flush=True)
            status = 1
            continue
        results[name] = json.loads(out[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mcs" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'mcs'}; "
              "run from the root of an mcs checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import mcs
    if Path(mcs.__file__).resolve().parent != ROOT / "src" / "mcs":
        print(f"error: imported mcs from {mcs.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
