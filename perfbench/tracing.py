"""Spans around the calls into each ``idemsync`` module, taken from outside.

:class:`Tracer` replaces every public function of the eight library
modules, wherever a module holds a reference to it, with a wrapper that
records a span (name, start, end, parent).  ``Dfa.__post_init__`` stands
for ``core`` validation, the entries of ``harness.CLAIMS`` give one span
per claim, and ``cli.main`` spans are named after the subcommand.  No
library source changes; :meth:`Tracer.uninstall` restores every binding.

Aggregates are kept per pass: per-layer times are means over the
traced passes, and counts are exact per-pass values.  Raw spans are kept for the first
recorded pass only and written out when the benchmark ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("saf", "core", "analysis", "generators", "two_idempotent", "dot", "harness", "cli")
CLAIM_IDS = ("cerny", "cor3", "gusev7", "ladder", "lemma1", "prop5", "thm2")
SUBCOMMANDS = ("gen", "transform", "export-dot", "chi", "analyze", "shortest-word")

# name -> unit, in the order they are reported.  Times are per pass.
PER_LAYER = {
    "analysis.search_s": "s",
    "analysis.us_per_subset": "us",
    "analysis.subsets": "count",
    "analysis.truncated": "count",
    "analysis.search_calls": "count",
    "analysis.search_peak_mb": "MB",
    "analysis.bytes_per_subset": "B",
    "analysis.pretest_s": "s",
    "analysis.pair_s": "s",
    "analysis.ns_per_pair": "ns",
    "analysis.pair_calls": "count",
    "analysis.pairs": "count",
    "analysis.pair_peak_mb": "MB",
    "analysis.proper_s": "s",
    "analysis.verify_word_s": "s",
    "two_idempotent.sync_s": "s",
    "two_idempotent.word_letters": "count",
    "generators.gen_s": "s",
    "generators.setup_s": "s",
    "generators.transform_s": "s",
    "generators.chi_s": "s",
    "saf.parse_s": "s",
    "saf.render_s": "s",
    "saf.bytes": "B",
    "core.validate_s": "s",
    "dot.export_s": "s",
    "dot.bytes": "B",
    **{f"cli.main_s.{sub}": "s" for sub in SUBCOMMANDS},
    **{f"harness.claim_s.{cid}": "s" for cid in CLAIM_IDS},
    "harness.records": "count",
    "harness.red_records": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_s": "s",
}

COUNTS = (
    "analysis.subsets",
    "analysis.truncated",
    "analysis.search_calls",
    "analysis.pair_calls",
    "analysis.pairs",
    "two_idempotent.word_letters",
    "harness.records",
    "harness.red_records",
    "saf.bytes",
    "dot.bytes",
)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_search(counts, args, kwargs, result):
    counts["analysis.search_calls"] += 1
    counts["analysis.subsets"] += result.states_explored
    counts["analysis.truncated"] += int(result.truncated)


def _count_pairs(counts, args, kwargs, result):
    n = _first(args, kwargs, "dfa").n
    counts["analysis.pair_calls"] += 1
    counts["analysis.pairs"] += n * (n - 1) // 2


def _count_word(counts, args, kwargs, result):
    counts["two_idempotent.word_letters"] += len(result)


def _count_parsed(counts, args, kwargs, result):
    counts["saf.bytes"] += len(_first(args, kwargs, "text"))


def _count_rendered(counts, args, kwargs, result):
    counts["saf.bytes"] += len(result)


def _count_dot(counts, args, kwargs, result):
    counts["dot.bytes"] += len(result)


def _count_records(counts, args, kwargs, result):
    counts["harness.records"] += len(result.records)
    counts["harness.red_records"] += sum(
        1 for r in result.records if not r.passed and not r.informative
    )


# Counters taken at span boundaries; SAF and DOT text is ASCII, so its
# length in characters is its size in bytes.
HOOKS = {
    "analysis.reset_threshold": _count_search,
    "analysis.is_synchronizing": _count_pairs,
    "two_idempotent.synchronize_sink_2idem": _count_word,
    "saf.parse_automaton": _count_parsed,
    "saf.render_automaton": _count_rendered,
    "dot.export_dot": _count_dot,
    "harness.run_harness": _count_records,
}


class _Pass:
    """Aggregates of one pass."""

    def __init__(self):
        self.incl = defaultdict(float)  # (name, parent name) -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> self seconds
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self._stack = []  # [name, start, child seconds, span id]
        self._restore = []
        self._next_id = 0
        self.current = _Pass()
        self.passes: list[_Pass] = []
        self.spans: list[tuple] | None = None  # spans of the pass being recorded
        self.recorded_spans: list[tuple] = []  # spans of the first complete traced pass

    # -- installation ---------------------------------------------------
    def install(self, lib) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"idemsync.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name == "idemsync" or module_name.startswith("idemsync."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._patch(module, attr, wrappers[id(obj)])
        self._patch(lib.Dfa, "__post_init__", self._wrap(lib.Dfa.__post_init__, "core.Dfa"))
        claims = lib.harness.CLAIMS
        for cid, fn in list(claims.items()):
            claims[cid] = self._wrap(fn, f"harness.claim.{cid}")
            self._restore.append(lambda cid=cid, fn=fn: claims.__setitem__(cid, fn))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _patch(self, target, attr, value) -> None:
        old = getattr(target, attr)
        self._restore.append(lambda: setattr(target, attr, old))
        setattr(target, attr, value)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        by_subcommand = name == "cli.main"

        def wrapper(*args, **kwargs):
            label = name
            if by_subcommand:
                argv = _first(args, kwargs, "argv")
                label = f"cli.main.{argv[0]}"
            self._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(self.current.counts, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- spans ----------------------------------------------------------
    def _enter(self, name) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        current = self.current
        current.incl[(name, parent[0] if parent else None)] += duration
        current.self_time[name] += duration - child
        if parent is not None:
            parent[2] += duration
        if self.spans is not None:
            self.spans.append((name, start, end, span_id, parent[3] if parent else 0))

    # -- passes ---------------------------------------------------------
    def start_pass(self, record: bool = False) -> None:
        self.current = _Pass()
        self.spans = [] if record and not self.recorded_spans else None

    def end_pass(self, complete: bool) -> None:
        """Keep the pass's aggregates (and its spans, if recorded) only when
        it ran to the end."""
        if complete:
            self.passes.append(self.current)
            if self.spans is not None:
                self.recorded_spans = self.spans
        self.spans = None
        self.current = _Pass()


def _group_time(p: _Pass, names) -> float:
    """Inclusive time of the spans named ``names``, without double counting
    spans of the group nested inside each other."""
    return sum(t for (name, parent), t in p.incl.items() if name in names and parent not in names)


def _names(p: _Pass, prefix: str) -> set[str]:
    return {name for name, _ in p.incl if name.startswith(prefix)}


def _pass_metrics(p: _Pass) -> dict[str, float]:
    m = {name: float(p.counts[name]) for name in COUNTS}
    m["analysis.search_s"] = p.self_time["analysis.reset_threshold"]
    m["analysis.pretest_s"] = p.incl[("analysis.is_synchronizing", "analysis.reset_threshold")]
    m["analysis.pair_s"] = _group_time(p, {"analysis.is_synchronizing"})
    m["analysis.proper_s"] = _group_time(p, {"analysis.is_proper"})
    m["analysis.verify_word_s"] = _group_time(p, {"analysis.verify_reset_word"})
    m["two_idempotent.sync_s"] = _group_time(p, {"two_idempotent.synchronize_sink_2idem"})
    m["generators.gen_s"] = _group_time(p, _names(p, "generators.gen_"))
    m["generators.transform_s"] = _group_time(p, {"generators.higgins_transform"})
    m["generators.chi_s"] = _group_time(p, {"generators.chi_encode", "generators.chi_decode"})
    m["saf.parse_s"] = _group_time(p, {"saf.parse_automaton"})
    m["saf.render_s"] = _group_time(p, {"saf.render_automaton"})
    m["core.validate_s"] = _group_time(p, {"core.Dfa"})
    m["dot.export_s"] = _group_time(p, {"dot.export_dot"})
    for sub in SUBCOMMANDS:
        m[f"cli.main_s.{sub}"] = _group_time(p, {f"cli.main.{sub}"})
    for cid in CLAIM_IDS:
        m[f"harness.claim_s.{cid}"] = _group_time(p, {f"harness.claim.{cid}"})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for name, t in p.self_time.items() if name.split(".", 1)[0] == layer
        )
    m["trace.accounted_s"] = sum(p.self_time.values())
    subsets = m["analysis.subsets"]
    m["analysis.us_per_subset"] = m["analysis.search_s"] / subsets * 1e6 if subsets else 0.0
    pairs = m["analysis.pairs"]
    m["analysis.ns_per_pair"] = m["analysis.pair_s"] / pairs * 1e9 if pairs else 0.0
    return m


def layer_metrics(passes: list[_Pass], memory: dict, untraced_wall: float,
                  traced_wall: float, setup_gen: float) -> dict:
    """Per-layer metrics: means over the traced passes (counts are equal
    in every pass), the memory figures measured apart, and the tracing
    overhead."""
    per_pass = [_pass_metrics(p) for p in passes]
    out = {name: sum(m[name] for m in per_pass) / len(per_pass) for name in per_pass[0]}
    for name in COUNTS:
        out[name] = int(per_pass[0][name])
    out.update(memory)
    out["generators.setup_s"] = setup_gen
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: out[name] for name in PER_LAYER}


def generator_time(tracer: Tracer) -> float:
    """Time spent in the generators layer during the current pass."""
    p = tracer.current
    return _group_time(p, _names(p, "generators."))
