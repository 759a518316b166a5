"""Benchmark for idemsync: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
of that checkout.  One process runs one workload: it sets up (imports
``idemsync`` afresh and builds the inputs from the seed), then runs
passes over the workload's fixed item list, each call waiting for the
previous one, until ``--seconds`` have passed.  ``setup_s`` is the median
of the set-ups timed before the passes and, once a second, between
items.  ``wall_s`` is the mean time of a complete pass (the inverse of
the pass rate), ``slowest_item_s`` the largest mean call time of an
item.  Every output is checked afterwards.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, and reports the per-layer metrics.
Its memory figures come from probes: each search and pair-test item runs
once more in a fresh child process (``--probe ITEM``), which reports its
peak RSS growth.  The last line of standard output is the result object;
the line before it is a report with samples, percentiles and run
metadata, also written with the traced spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # before the passes; more follow between items
SETUP_GAP_S = 1.0  # at most one set-up between items per second
PROBE_TIMEOUT_S = 120
MB = float(1 << 20)
END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_item_s": "s", "peak_rss_mb": "MB"}


def load_library():
    """Import ``idemsync`` (and its CLI module) afresh out of ``SRC``."""
    for name in [m for m in sys.modules if m == "idemsync" or m.startswith("idemsync.")]:
        del sys.modules[name]
    lib = importlib.import_module("idemsync")
    importlib.import_module("idemsync.cli")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"idemsync was imported from {lib.__file__}, not from {SRC}")
    return lib


@dataclass
class Measurement:
    pass_times: list = field(default_factory=list)  # complete passes only
    item_times: dict = field(default_factory=dict)  # item name -> seconds, every call
    outcomes: list = field(default_factory=list)  # (item index, canonical JSON or None)
    firsts: dict = field(default_factory=dict)  # (item index, canonical JSON) -> raw output
    raised: dict = field(default_factory=dict)  # item index -> first exception text


def run_pass(workload, m: Measurement, deadline=None, between=None) -> bool:
    """One pass over the items; stops early, returning False, once the
    deadline has passed before an item starts.  ``between`` runs after
    each item, outside the item times."""
    state: dict = {}
    times = []
    for index, item in enumerate(workload.items):
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        start = time.perf_counter()
        try:
            raw = item.run(state)
        except Exception as exc:  # a failed call is counted, never fatal
            elapsed = time.perf_counter() - start
            m.raised.setdefault(index, f"{type(exc).__name__}: {exc}")
            key = None
        else:
            elapsed = time.perf_counter() - start
            key = json.dumps(item.canon(raw), sort_keys=True)
            m.firsts.setdefault((index, key), raw)
        times.append(elapsed)
        m.item_times.setdefault(item.name, []).append(elapsed)
        m.outcomes.append((index, key))
        if between:
            between()
    m.pass_times.append(sum(times))
    return True


def measure(workload, seconds, tracer=None, between=None) -> Measurement:
    """Passes until ``seconds`` have elapsed; at least one completes."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.start_pass(record=True)
        complete = run_pass(workload, m, deadline if m.pass_times else None, between)
        if tracer:
            tracer.end_pass(complete)
        if not complete or time.perf_counter() >= deadline:
            return m


def judge(workload, measurements, reference, seed):
    """Check every output.  Returns (attempted, failed, first reason per item)."""
    expected = reference["outputs"].get(workload.name, {})
    compare = seed == reference["default_seed"]
    verdicts = {}
    reasons: dict[str, str] = {}
    attempted = failed = 0
    for m in measurements:
        for (index, key), raw in m.firsts.items():
            if (index, key) in verdicts:
                continue
            item = workload.items[index]
            try:
                reason = item.check(raw)
            except Exception as exc:  # a malformed output can break its parser
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and item.name in expected and (compare or not item.seeded):
                if json.loads(key) != expected[item.name]:
                    reason = "output differs from the reference"
            verdicts[(index, key)] = reason
        for index, key in m.outcomes:
            attempted += 1
            reason = m.raised[index] if key is None else verdicts[(index, key)]
            if reason is not None:
                failed += 1
                reasons.setdefault(workload.items[index].name, reason)
    return attempted, failed, reasons


def percentiles(samples):
    """Mean, median and the highest percentile with at least ten samples
    beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "mean": statistics.mean(s), "median": statistics.median(s)}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(len(s) * p / 100)
        if len(s) - rank >= 10:
            out[f"p{p:g}"] = s[rank - 1]
            break
    return out


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "idemsync").glob("*.py"))
    )


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "src.lines": src_lines(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


PROBED = ("analysis.reset_threshold", "analysis.is_synchronizing")


def probe(workload, name):
    """In a child process: ``-`` lists the items to probe; an item name
    runs that item once and reports its peak RSS growth and subsets."""
    if name == "-":
        return [[item.name, item.entry] for item in workload.items if item.entry in PROBED]
    item = next(i for i in workload.items if i.name == name)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = item.run({})
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    subsets = getattr(result, "states_explored", 0)
    return {"growth_bytes": (after - before) * 1024, "subsets": subsets}


def memory_probes(args) -> dict:
    """Peak RSS growth of each search and pair-test item, each in a fresh
    child process.  A child starts with its parent's high-water mark, so
    this runs before the parent imports or builds anything.
    (``tracemalloc`` slows the subset search about 30-fold, too much for
    the searches this benchmark runs.)"""

    def child(name):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--profile", args.profile,
                "--probe", name]
        done = subprocess.run(argv, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        return json.loads(done.stdout.splitlines()[-1])

    return {name: {"entry": entry, **child(name)} for name, entry in child("-")}


def memory_metrics(probes) -> dict:
    searches = [p for p in probes.values() if p["entry"] == "analysis.reset_threshold"]
    pairs = [p for p in probes.values() if p["entry"] == "analysis.is_synchronizing"]
    largest = max(searches, key=lambda p: p["subsets"], default=None)
    per_subset = largest["growth_bytes"] / largest["subsets"] if largest else 0.0
    return {
        "analysis.search_peak_mb": max((p["growth_bytes"] for p in searches), default=0) / MB,
        "analysis.bytes_per_subset": per_subset,
        "analysis.pair_peak_mb": max((p["growth_bytes"] for p in pairs), default=0) / MB,
    }


def traced_run(lib, workload, seed, seconds, probes, profile="full"):
    """Half the time untraced, half traced.  Per-layer figures are means
    over the complete traced passes, like ``wall_s``; the overhead is the
    traced mean pass time minus the untraced one."""
    half = seconds / 2.0
    untraced = measure(workload, half)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        tracer.start_pass()
        workloads.build(workload.name, lib, seed, profile)
        setup_gen = tracing.generator_time(tracer)
        tracer.end_pass(complete=False)
        traced = measure(workload, half, tracer)
    finally:
        tracer.uninstall()
    untraced_wall = statistics.mean(untraced.pass_times)
    traced_wall = statistics.mean(traced.pass_times)
    metrics = tracing.layer_metrics(
        tracer.passes, memory_metrics(probes), untraced_wall, traced_wall, setup_gen
    )
    accounted = metrics["trace.accounted_s"]
    overhead = metrics["trace.overhead_s"]
    summary = {
        "untraced_passes": len(untraced.pass_times),
        "traced_passes": len(traced.pass_times),
        "accounted_share_of_traced_pass": accounted / traced_wall,
        "accounted_share_of_untraced_wall": accounted / untraced_wall,
        "accounted_within_overhead": abs(untraced_wall - accounted) <= abs(overhead),
        "spans_recorded": len(tracer.recorded_spans),
        "memory_probes": probes,
    }
    return [untraced, traced], metrics, summary, tracer.recorded_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(workloads.SIZES), default="full",
                        help="instance sizes; 'tiny' is a quick smoke run")
    parser.add_argument("--probe", metavar="ITEM", help="report one item's peak RSS growth")
    args = parser.parse_args(argv)

    if not (SRC / "idemsync" / "__init__.py").is_file():
        print(f"error: no idemsync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The CLI reads this override; the benchmark passes every budget itself.
    os.environ.pop("IDEMSYNC_MAX_SUBSETS", None)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    probes = memory_probes(args) if args.trace and not args.probe else {}

    setup_times = []

    def set_up():
        start = time.perf_counter()
        lib = load_library()
        workload = workloads.build(args.workload, lib, args.seed, args.profile)
        setup_times.append(time.perf_counter() - start)
        return lib, workload

    for _ in range(SETUP_REPEATS):
        lib, workload = set_up()
        if args.probe:
            print(json.dumps(probe(workload, args.probe)))
            return 0
    last_setup = [time.perf_counter()]

    def set_up_again():
        """A set-up timed between items, so that ``setup_s`` samples the
        whole run and not only its first fraction of a second.  Its
        library and inputs are dropped (the passes keep the ones built
        before them) and collected at once, so that neither the items'
        garbage collections nor the peak RSS see them."""
        if time.perf_counter() - last_setup[0] >= SETUP_GAP_S:
            set_up()
            gc.collect()
            last_setup[0] = time.perf_counter()

    report = metadata(args)
    if args.trace:
        measurements, metrics, report["trace"], spans = traced_run(
            lib, workload, args.seed, args.seconds, probes, args.profile
        )
        units = tracing.PER_LAYER
    else:
        m = measure(workload, args.seconds, between=set_up_again)
        measurements = [m]
        slowest = max(m.item_times, key=lambda name: statistics.mean(m.item_times[name]))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.mean(m.pass_times),
            "slowest_item_s": statistics.mean(m.item_times[slowest]),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        report["wall_s"] = percentiles(m.pass_times)
        report["slowest_item_s"] = {"item": slowest, **percentiles(m.item_times[slowest])}
        report["items_s"] = {name: percentiles(t) for name, t in m.item_times.items()}
        report["samples_s"] = {"setup": setup_times, "passes": m.pass_times, **m.item_times}
        spans = None
    report["setup_s"] = percentiles(setup_times)

    attempted, failed, report["failures"] = judge(workload, measurements, reference, args.seed)
    report["error_rate"] = failed / attempted
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    if args.profile != "full":
        stem += f"-{args.profile}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if spans:
        columns = ["name", "start", "end", "id", "parent"]
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"columns": columns, "spans": spans}) + "\n", encoding="utf-8"
        )
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
