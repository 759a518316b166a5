"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py

Every workload runs once on tiny instances and must report error rate 0.
Then each workload runs again with one library call corrupted: a witness
letter changed, a decision flipped, one byte of CLI output altered, the
known-red harness record flipped.  Each must report an error rate above
0, which shows the output checks can fail.  A tiny traced run, memory
probes included, must report every per-layer metric with the same exact
counts twice, and
``BENCHMARK.json``, when present, must name the metrics the code reports.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import run
import tracing
import workloads

SEED = 7


def tiny_error_rate(lib, name, reference):
    workload = workloads.build(name, lib, SEED, "tiny")
    m = run.Measurement()
    run.run_pass(workload, m)
    attempted, failed, reasons = run.judge(workload, [m], reference, SEED)
    return failed / attempted, reasons


def corrupt_witness(lib):
    original = lib.reset_threshold

    def corrupted(dfa, *args, **kwargs):
        r = original(dfa, *args, **kwargs)
        if r.witness:
            r = dataclasses.replace(r, witness=((r.witness[0] + 1) % dfa.k,) + r.witness[1:])
        return r

    return lib, "reset_threshold", corrupted


def flip_decision(lib):
    original = lib.is_synchronizing
    return lib, "is_synchronizing", lambda dfa: not original(dfa)


def alter_cli_byte(lib):
    cli = sys.modules["idemsync.cli"]
    original = cli.main

    def altered(argv):
        code = original(argv)
        out = sys.stdout.getvalue()
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stdout.write(out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1:])
        return code

    return cli, "main", altered


def flip_known_red(lib):
    original = lib.run_harness

    def flipped(*args, **kwargs):
        report = original(*args, **kwargs)
        records = tuple(
            dataclasses.replace(r, passed=not r.passed)
            if (r.claim, r.params) in workloads.KNOWN_RED
            else r
            for r in report.records
        )
        return dataclasses.replace(report, records=records)

    return lib, "run_harness", flipped


CORRUPTIONS = {
    "exact-search": corrupt_witness,
    "pair-graph": flip_decision,
    "cli-pipeline": alter_cli_byte,
    "claims": flip_known_red,
}


def check_benchmark_json(problems):
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != tracing.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.BY_NAME):
        problems.append(f"BENCHMARK.json workloads {names}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    problems = []
    for name, corruption in CORRUPTIONS.items():
        rate, reasons = tiny_error_rate(lib, name, reference)
        print(f"{name}: clean error_rate={rate:.3f} {reasons or ''}")
        if rate != 0:
            problems.append(f"{name}: clean run failed {reasons}")
        target, attr, replacement = corruption(lib)
        original = getattr(target, attr)
        setattr(target, attr, replacement)
        try:
            rate, reasons = tiny_error_rate(lib, name, reference)
        finally:
            setattr(target, attr, original)
        print(f"{name}: {corruption.__name__} error_rate={rate:.3f} {sorted(reasons)}")
        if rate == 0:
            problems.append(f"{name}: {corruption.__name__} went undetected")

        args = argparse.Namespace(workload=name, seed=SEED, profile="tiny")
        probes = run.memory_probes(args)
        counts = []
        for _ in range(2):
            workload = workloads.build(name, lib, SEED, "tiny")
            _, metrics, _, _ = run.traced_run(lib, workload, SEED, 0.05, probes, "tiny")
            if list(metrics) != list(tracing.PER_LAYER):
                problems.append(f"{name}: traced run reports {sorted(metrics)}")
            counts.append({k: metrics[k] for k in tracing.COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between traced runs {counts}")
    check_benchmark_json(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
