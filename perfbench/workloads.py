"""The benchmark's four workloads: inputs from a seed, calls, outputs, checks.

Each workload is a fixed list of items.  An item's ``run`` is the timed
call into the public ``idemsync`` API; ``canon`` turns its result into the
JSON form that is compared across passes and with the recorded reference;
``check`` judges the result against independent computations
(:mod:`oracles`) and the published formulas, and returns a reason when
it is wrong.  Every search runs under an explicit budget.

Library functions are looked up on the module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import oracles
from tracing import CLAIM_IDS

DEFAULT_SEED = 1
FAMILY_BUDGET = 1 << 20
# Random searches on 60..63 states have a heavy-tailed subset count
# (a few in a hundred need over 2**18); this cap keeps a pass's cost
# nearly independent of the seed, and the capped ones exercise truncation.
RANDOM_BUDGET = 1 << 15

SIZES = {
    "full": {
        "cerny": (16, 17, 18),
        "doubled_base": (15, 16, 17),
        "random": (60, 61, 62, 63),
        "random_copies": 2,
        "truncated": (30, 1 << 19),
        "pair_random": (600, 900),
        "pair_idem": 800,
        "proper_base": 150,
        "ladders": (1000, 1500),
        "permuted_ladder": 1500,
        "cli_states": 100000,
        "chi_letters": 4000,
        "cli_cerny": 12,
    },
    "tiny": {
        "cerny": (5, 6),
        "doubled_base": (3, 4),
        "random": (10, 11),
        "random_copies": 1,
        "truncated": (10, 1 << 6),
        "pair_random": (30, 40),
        "pair_idem": 40,
        "proper_base": 8,
        "ladders": (10, 15),
        "permuted_ladder": 15,
        "cli_states": 50,
        "chi_letters": 20,
        "cli_cerny": 5,
    },
}

# Records per claim, and the one gating record that is meant to fail:
# the 4-state doubled instance is not proper.
CLAIM_RECORDS = {
    "cerny": 9, "cor3": 7, "gusev7": 6, "ladder": 15, "lemma1": 1, "prop5": 1, "thm2": 8,
}
KNOWN_RED = {("cor3", "n=4")}


@dataclass
class Item:
    name: str
    run: Callable[[dict], Any]
    canon: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]
    entry: str  # the public function the item calls, as layer.name
    seeded: bool = False  # the input depends on the workload seed


@dataclass
class Workload:
    name: str
    items: list[Item]


def _word(word) -> "str | None":
    return None if word is None else "".join(map(str, word))


# -- exact-search -------------------------------------------------------------


def _search_item(lib, name, dfa, budget, threshold=None, truncated=False, seeded=False):
    rows = dfa.delta

    def canon(r):
        # states_explored is reported by the tracer and deliberately not gated.
        return {
            "synchronizing": r.synchronizing,
            "threshold": r.threshold,
            "witness": _word(r.witness),
            "truncated": r.truncated,
        }

    def check(r):
        claims_nothing = not r.synchronizing and r.threshold is None and r.witness is None
        if truncated or r.truncated:
            if not r.truncated:
                return "expected the budget to truncate the search"
            if threshold is not None:
                return "a family search ran out of budget"
            return None if claims_nothing else "a truncated result makes a claim"
        if r.synchronizing != oracles.synchronizes(rows):
            return "decision disagrees with the pair oracle"
        if not r.synchronizing:
            return None if claims_nothing else "a negative result carries a witness"
        if len(r.witness) != r.threshold:
            return f"witness has {len(r.witness)} letters, threshold {r.threshold}"
        if not (lib.verify_reset_word(dfa, r.witness) and oracles.resets(rows, r.witness)):
            return "witness does not reset"
        if threshold is not None and r.threshold != threshold:
            return f"threshold {r.threshold}, formula gives {threshold}"
        return None

    return Item(
        name, lambda state: lib.reset_threshold(dfa, budget), canon, check,
        "analysis.reset_threshold", seeded,
    )


def exact_search(lib, seed, size) -> Workload:
    rng = random.Random(f"exact-search:{seed}")
    family = lib.SearchBudget(max_subsets=FAMILY_BUDGET)
    items = []
    for n in size["cerny"]:
        items.append(_search_item(lib, f"cerny-{n}", lib.gen_cerny(n), family, (n - 1) ** 2))
    for m in size["doubled_base"]:
        n = 2 * m
        doubled = lib.higgins_transform(lib.gen_cerny(m)).result
        items.append(
            _search_item(lib, f"doubled-cerny-{n}", doubled, family, n * n // 2 - 2 * n + 2)
        )
    capped = lib.SearchBudget(max_subsets=RANDOM_BUDGET)
    for n in size["random"]:
        for copy in "abcd"[: size["random_copies"]]:
            dfa = lib.gen_random_dfa(n, 2, rng.randrange(1 << 32))
            items.append(_search_item(lib, f"random-{n}{copy}", dfa, capped, seeded=True))
    n, cap = size["truncated"]
    items.append(
        _search_item(
            lib, f"cerny-{n}-truncated", lib.gen_cerny(n),
            lib.SearchBudget(max_subsets=cap), truncated=True,
        )
    )
    return Workload("exact-search", items)


# -- pair-graph ---------------------------------------------------------------


def _decision_item(name, call, entry, oracle, rows):
    def check(decision):
        if decision != oracle(rows):
            return f"decision {decision} disagrees with the oracle"
        return None

    return Item(name, call, lambda d: d, check, entry, seeded=True)


def _peel_item(lib, name, dfa, seeded=False):
    rows = dfa.delta

    def check(word):
        sinks = oracles.sinks(rows)
        expected = oracles.peel_word(rows, sinks[0]) if len(sinks) == 1 else None
        if expected is None:
            return "input has no peeling order"
        if list(word) != expected:
            return "word differs from the lowest-free-index peeling order"
        return None if oracles.resets(rows, word) else "word does not reset"

    return Item(
        name, lambda state: lib.synchronize_sink_2idem(dfa), _word, check,
        "two_idempotent.synchronize_sink_2idem", seeded,
    )


def _relabel(lib, dfa, rng):
    perm = list(range(dfa.n))
    rng.shuffle(perm)
    rows = []
    for row in dfa.delta:
        new = [0] * dfa.n
        for q, t in enumerate(row):
            new[perm[q]] = perm[t]
        rows.append(tuple(new))
    return lib.Dfa(dfa.n, dfa.letters, tuple(rows))


def pair_graph(lib, seed, size) -> Workload:
    rng = random.Random(f"pair-graph:{seed}")
    items = []
    for n in size["pair_random"]:
        dfa = lib.gen_random_dfa(n, 2, rng.randrange(1 << 32))
        items.append(
            _decision_item(
                f"sync-random-{n}", lambda state, d=dfa: lib.is_synchronizing(d),
                "analysis.is_synchronizing", oracles.synchronizes, dfa.delta,
            )
        )
    n = size["pair_idem"]
    idem = lib.gen_random_idempotent(n, 2, rng.randrange(1 << 32))
    items.append(
        _decision_item(
            f"sync-random-idem-{n}", lambda state: lib.is_synchronizing(idem),
            "analysis.is_synchronizing", oracles.synchronizes, idem.delta,
        )
    )
    base = size["proper_base"]
    doubled = lib.higgins_transform(lib.gen_random_dfa(base, 2, rng.randrange(1 << 32))).result
    items.append(
        _decision_item(
            f"proper-doubled-random-{2 * base}", lambda state: lib.is_proper(doubled),
            "analysis.is_proper", oracles.proper, doubled.delta,
        )
    )
    for n in size["ladders"]:
        items.append(_peel_item(lib, f"ladder-{n}", lib.gen_ladder(n)))
    n = size["permuted_ladder"]
    permuted = _relabel(lib, lib.gen_ladder(n), rng)
    items.append(_peel_item(lib, f"ladder-{n}-permuted", permuted, seeded=True))
    return Workload("pair-graph", items)


# -- cli-pipeline -------------------------------------------------------------


def _call_cli(cli, argv, stdin_text):
    """``idemsync.cli.main`` in-process, with memory buffers for the
    standard streams.  Returns (exit code, stdout, stderr, stdin)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), stdin_text
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _cli_canon(raw, ignore_prefix=None):
    code, out, err, _ = raw
    if ignore_prefix:
        out = "".join(line for line in out.splitlines(True) if not line.startswith(ignore_prefix))
    return {
        "exit": code,
        "stdout_bytes": len(out),
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": err,
    }


def _cli_item(cli, name, argv, source, expect, seeded=False, ignore_prefix=None):
    """``expect(stdin, stdout)`` returns a reason when stdout is wrong."""

    def run(state):
        raw = _call_cli(cli, argv, state[source] if source else "")
        state[name] = raw[1]
        return raw

    def check(raw):
        code, out, err, stdin = raw
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()!r}"
        return expect(stdin, out)

    return Item(name, run, lambda raw: _cli_canon(raw, ignore_prefix), check, "cli.main", seeded)


def _expect_random_idem(n):
    def expect(stdin, out):
        names, rows = oracles.parse_saf(out)
        if names != ["x1", "x2"] or len(rows[0]) != n:
            return "wrong shape"
        return None if all(map(oracles.idempotent, rows)) else "a letter is not idempotent"

    return expect


def _expect_equal(render):
    def expect(stdin, out):
        if out != render(*oracles.parse_saf(stdin)):
            return "output differs from the oracle's"
        return None

    return expect


def _expect_chi(letters):
    def expect(stdin, out):
        names, _ = oracles.parse_saf(stdin)
        want = " ".join(f"b a{names.index(x) + 1}" for x in letters) + "\n"
        return None if out == want else "encoding differs from the b a_j blocks"

    return expect


def _expect_cerny_text(n):
    def expect(stdin, out):
        if out != oracles.saf_text(["s1", "s2"], oracles.cerny_rows(n)):
            return "wrong Cerny table"
        return None

    return expect


def _reset_word_reason(names, rows, word_text, n):
    word = [names.index(x) for x in word_text.split()]
    if len(word) != (n - 1) ** 2:
        return f"reset word has {len(word)} letters, formula gives {(n - 1) ** 2}"
    return None if oracles.resets(rows, word) else "reset word does not reset"


def _expect_analyze(stdin, out):
    names, rows = oracles.parse_saf(stdin)
    n = len(rows[0])
    lines = out.splitlines()
    want = [f"states: {n}", f"letters: {' '.join(names)}"]
    want += [
        f"letter {x}: rank={len(set(row))} idempotent={str(oracles.idempotent(row)).lower()}"
        for x, row in zip(names, rows)
    ]
    sinks = oracles.sinks(rows)
    want += [
        f"sinks: {' '.join(map(str, sinks)) if sinks else '-'}",
        f"strongly_connected: {str(oracles.strongly_connected(rows)).lower()}",
        "synchronizing: true",
        f"reset_threshold: {(n - 1) ** 2}",
    ]
    head = len(want)
    if lines[:head] != want or len(lines) != head + 3:
        return "report lines differ from the oracle's"
    word_line, explored, truncated = lines[head:]
    if not word_line.startswith("shortest_reset_word: ") or truncated != "truncated: false":
        return "malformed witness or truncation line"
    if not explored.startswith("states_explored: "):
        return "missing states_explored line"
    return _reset_word_reason(names, rows, word_line.split(": ", 1)[1], n)


def _expect_shortest(stdin, out):
    names, rows = oracles.parse_saf(stdin)
    return _reset_word_reason(names, rows, out, len(rows[0]))


def cli_pipeline(lib, seed, size) -> Workload:
    cli = importlib.import_module("idemsync.cli")
    rng = random.Random(f"cli-pipeline:{seed}")
    n = size["cli_states"]
    letters = [rng.choice(("x1", "x2")) for _ in range(size["chi_letters"])]
    gen_seed = str(rng.randrange(1 << 32))
    gen_argv = ["gen", "random-idem", "-n", str(n), "-k", "2", "--seed", gen_seed]
    c = size["cli_cerny"]
    cerny = f"gen-cerny-{c}"
    source = f"gen-random-idem-{n}"
    budget = ["--budget", str(FAMILY_BUDGET)]
    items = [
        _cli_item(cli, source, gen_argv, None, _expect_random_idem(n), True),
        _cli_item(
            cli, f"transform-higgins-{n}", ["transform", "higgins", "-"], source,
            _expect_equal(lambda names, rows: oracles.saf_text(
                oracles.doubled_names(len(rows)), oracles.doubled_rows(rows))),
            True,
        ),
        _cli_item(cli, f"export-dot-{n}", ["export-dot", "-"], source,
                  _expect_equal(oracles.dot_text), True),
        _cli_item(cli, f"chi-encode-{len(letters)}", ["chi", "encode", "-", *letters], source,
                  _expect_chi(letters), True),
        _cli_item(cli, cerny, ["gen", "cerny", "-n", str(c)], None, _expect_cerny_text(c)),
        # states_explored is not gated, so its line is left out of the digest.
        _cli_item(cli, f"analyze-cerny-{c}", ["analyze", "-", *budget], cerny, _expect_analyze,
                  ignore_prefix="states_explored:"),
        _cli_item(cli, f"shortest-word-cerny-{c}", ["shortest-word", "-", *budget], cerny,
                  _expect_shortest),
    ]
    return Workload("cli-pipeline", items)


# -- claims -------------------------------------------------------------------


def _records(report):
    """Harness records without their timings."""
    return [
        [r.claim, r.params, r.expected, r.measured, r.passed, r.informative]
        for r in report.records
    ]


def _claim_check(cid):
    def check(report):
        records = report.records
        if len(records) != CLAIM_RECORDS[cid] or any(r.claim != cid for r in records):
            return f"expected {CLAIM_RECORDS[cid]} {cid} records"
        for r in records:
            red = (r.claim, r.params) in KNOWN_RED
            if not r.informative and r.passed == red:
                return f"{r.claim} {r.params} {'passed' if r.passed else 'failed'} unexpectedly"
        return None

    return check


def claims(lib, seed, size) -> Workload:
    budget = lib.SearchBudget(max_subsets=FAMILY_BUDGET)
    items = [
        Item(f"claim-{cid}", lambda state, cid=cid: lib.run_harness([cid], budget),
             _records, _claim_check(cid), "harness.run_harness")
        for cid in CLAIM_IDS
    ]
    return Workload("claims", items)


BY_NAME = {
    "exact-search": exact_search,
    "pair-graph": pair_graph,
    "cli-pipeline": cli_pipeline,
    "claims": claims,
}


def build(name: str, lib, seed: int, profile: str = "full") -> Workload:
    return BY_NAME[name](lib, seed, SIZES[profile])
