"""Verification harness: the library's named claims as a report suite.

The harness owns the checks of the paper's claims: :func:`check_lemma1`,
:func:`check_theorem2` and :func:`check_corollary3` return one-shot
reports for Lemma 1, Theorem 2 and Corollary 3.  Each claim checks one
quantitative fact about the shipped automaton families, at the exact
values, and produces one record per checked parameter.  Records marked
informative document measurements that are reported but intentionally
not gated (the generalization of the ``gusev7`` construction to other
odd sizes is a hypothesis, so sizes other than 7 never fail the suite).

Claim ids: ``cerny``, ``lemma1``, ``thm2``, ``cor3``, ``prop5``,
``ladder``, ``gusev7``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .analysis import (
    DEFAULT_BUDGET,
    SearchBudget,
    SyncResult,
    _letter_shapes,
    is_proper,
    reset_threshold,
    verify_reset_word,
)
from .core import Dfa, UsageError, _check_int, _read_once
from .generators import (
    chi_encode,
    gen_cerny,
    gen_gusev_like,
    gen_ladder,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
)

# Frozen transition table of the 7-state near-idempotent automaton; the
# gusev7 claim checks the generator reproduces it transition for
# transition.
GUSEV7_ROWS = ((0, 2, 2, 4, 4, 6, 6), (1, 1, 3, 3, 5, 5, 0))

LEMMA1_SAMPLES = 200
LEMMA1_SEED = 11
PROP5_SAMPLES = 500
PROP5_SEED = 55


@dataclass(frozen=True)
class Lemma1Report:
    """Shape facts about a doubled automaton: idempotency and half rank."""

    base_n: int
    letter_ranks: tuple[int, ...]
    letter_idempotent: tuple[bool, ...]
    ok: bool


def check_lemma1(dfa: Dfa) -> Lemma1Report:
    """Check that every letter of the doubled automaton is an idempotent
    of rank equal to the base state count."""
    ranks, idem = _letter_shapes(higgins_transform(dfa).result)
    ok = all(idem) and all(r == dfa.n for r in ranks)
    return Lemma1Report(dfa.n, ranks, idem, ok)


@dataclass(frozen=True)
class Theorem2Report:
    """Doubling-transform synchronization facts for one base automaton.

    ``threshold_doubled`` and ``encoded_witness_resets`` are ``None``
    when the base does not synchronize (there is nothing to double).
    ``sync_agrees`` compares the two results' ``synchronizes``, which a
    truncated search also answers; a truncated search still fails ``ok``.
    """

    base: SyncResult
    transformed: SyncResult
    sync_agrees: bool
    threshold_doubled: bool | None
    encoded_witness_resets: bool | None
    ok: bool


def check_theorem2(dfa: Dfa, budget: SearchBudget = DEFAULT_BUDGET) -> Theorem2Report:
    """Check that doubling preserves synchronizability, exactly doubles
    the reset threshold, and that the encoded base witness resets the
    doubled automaton at exactly twice the length."""
    image = higgins_transform(dfa)
    base = reset_threshold(dfa, budget)
    transformed = reset_threshold(image.result, budget)
    sync_agrees = base.synchronizes == transformed.synchronizes
    threshold_doubled: bool | None = None
    encoded_resets: bool | None = None
    if base.synchronizing and transformed.synchronizing:
        threshold_doubled = transformed.threshold == 2 * base.threshold
        encoded = chi_encode(image, base.witness)
        encoded_resets = len(encoded) == 2 * len(base.witness) and verify_reset_word(
            image.result, encoded
        )
    ok = (
        not base.truncated
        and not transformed.truncated
        and sync_agrees
        and threshold_doubled is not False
        and encoded_resets is not False
    )
    return Theorem2Report(
        base, transformed, sync_agrees, threshold_doubled, encoded_resets, ok
    )


@dataclass(frozen=True)
class Corollary3Report:
    """Facts about the doubling of the classic binary family member:
    three idempotent letters of half rank, properness, and the
    threshold ``n**2/2 - 2n + 2``."""

    n: int
    expected_threshold: int
    sync: SyncResult
    letter_ranks: tuple[int, ...]
    letter_idempotent: tuple[bool, ...]
    proper: bool
    ok: bool


def check_corollary3(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> Corollary3Report:
    """Build the doubled automaton on ``n`` states (``n`` even, at least
    4) from the binary family on ``n/2`` states and check its advertised
    shape: 3 letters, all idempotent of rank ``n/2``, proper, threshold
    ``n**2/2 - 2n + 2``."""
    _check_int("state count", n)
    if n < 4 or n % 2 != 0:
        raise UsageError(f"need an even state count of at least 4, got {n}")
    doubled = higgins_transform(gen_cerny(n // 2)).result
    expected = n * n // 2 - 2 * n + 2
    sync = reset_threshold(doubled, budget)
    ranks, idem = _letter_shapes(doubled)
    proper = is_proper(doubled)
    ok = (
        doubled.k == 3
        and sync.synchronizing
        and sync.threshold == expected
        and all(idem)
        and all(r == n // 2 for r in ranks)
        and proper
    )
    return Corollary3Report(n, expected, sync, ranks, idem, proper, ok)


@dataclass(frozen=True)
class ClaimRecord:
    """Outcome of one checked parameter of one claim."""

    claim: str
    params: str
    expected: str
    measured: str
    passed: bool
    millis: float
    informative: bool = False


@dataclass(frozen=True)
class HarnessReport:
    """All records of a harness run, ordered by claim id."""

    records: tuple[ClaimRecord, ...]

    @property
    def ok(self) -> bool:
        """True when every gating record passed."""
        return all(r.passed for r in self.records if not r.informative)

    def text_lines(self) -> list[str]:
        out = []
        for r in self.records:
            tag = "info" if r.informative else ("PASS" if r.passed else "FAIL")
            out.append(
                f"[{tag}] {r.claim} {r.params}: expected {r.expected}, "
                f"measured {r.measured} ({r.millis:.1f} ms)"
            )
        return out

    def jsonl_lines(self) -> list[str]:
        return [
            json.dumps(
                {
                    "claim": r.claim,
                    "params": r.params,
                    "expected": r.expected,
                    "measured": r.measured,
                    "pass": r.passed,
                    "millis": round(r.millis, 3),
                    "informative": r.informative,
                },
                sort_keys=True,
            )
            for r in self.records
        ]


def _records(
    claim: str,
    key: str,
    values: Iterable[int],
    check: Callable[[int], tuple[str, str, bool]],
    informative: bool = False,
) -> list[ClaimRecord]:
    """One timed record per value ``v``, with params ``key=v`` and
    ``check(v)`` giving the expected and measured text and whether ``v``
    passed."""
    records = []
    for v in values:
        start = time.perf_counter()
        expected, measured, passed = check(v)
        millis = (time.perf_counter() - start) * 1000.0
        params = f"{key}={v}"
        records.append(ClaimRecord(claim, params, expected, measured, passed, millis, informative))
    return records


def _threshold(
    family: Callable[[int], Dfa], want: Callable[[int], int], budget: SearchBudget
) -> Callable[[int], tuple[str, str, bool]]:
    """The check of the reset threshold of ``family(n)`` against ``want(n)``."""

    def check(n: int) -> tuple[str, str, bool]:
        res = reset_threshold(family(n), budget)
        return f"ret={want(n)}", _ret("ret", res), res.threshold == want(n)

    return check


def _ret(key: str, res: SyncResult, *others: SyncResult) -> str:
    """``key=<threshold of res>``, marked ``truncated=1`` when the budget
    cut that search or one of ``others``, as ``prop5`` counts its
    truncated samples."""
    return f"{key}={res.threshold}" + " truncated=1" * any(r.truncated for r in (res, *others))


def _claim_cerny(budget: SearchBudget) -> list[ClaimRecord]:
    check = _threshold(gen_cerny, lambda n: (n - 1) ** 2, budget)
    return _records("cerny", "n", range(2, 11), check)


def _claim_lemma1(budget: SearchBudget) -> list[ClaimRecord]:
    def check(samples: int) -> tuple[str, str, bool]:
        rng = random.Random(LEMMA1_SEED)
        violations = 0
        for _ in range(samples):
            n = rng.randint(1, 10)
            k = rng.randint(1, 3)
            dfa = gen_random_dfa(n, k, rng.randrange(2**32))
            if not check_lemma1(dfa).ok:
                violations += 1
        return (
            "all letters idempotent of half rank",
            f"violations={violations}",
            violations == 0,
        )

    return _records("lemma1", "samples", (LEMMA1_SAMPLES,), check)


def _claim_thm2(budget: SearchBudget) -> list[ClaimRecord]:
    def check(n: int) -> tuple[str, str, bool]:
        want = 2 * (n - 1) ** 2
        report = check_theorem2(gen_cerny(n), budget)
        measured = (
            f"{_ret('ret_doubled', report.transformed, report.base)} "
            f"agree={report.sync_agrees} "
            f"encoded_resets={report.encoded_witness_resets}"
        )
        good = report.ok and report.transformed.threshold == want
        return f"ret_doubled={want} agree=True encoded_resets=True", measured, good

    return _records("thm2", "n", range(2, 10), check)


def _claim_cor3(budget: SearchBudget) -> list[ClaimRecord]:
    def check(m: int) -> tuple[str, str, bool]:
        report = check_corollary3(m, budget)
        expected = f"ret={report.expected_threshold} rank={m // 2} idempotent proper"
        measured = (
            f"{_ret('ret', report.sync)} ranks={sorted(set(report.letter_ranks))} "
            f"idempotent={all(report.letter_idempotent)} proper={report.proper}"
        )
        return expected, measured, report.ok

    return _records("cor3", "n", range(4, 17, 2), check)


def _claim_prop5(budget: SearchBudget) -> list[ClaimRecord]:
    def check(samples: int) -> tuple[str, str, bool]:
        rng = random.Random(PROP5_SEED)
        synchronizing = violations = truncated = 0
        for _ in range(samples):
            n = rng.randint(2, 12)
            res = reset_threshold(gen_random_idempotent(n, 2, rng.randrange(2**32)), budget)
            synchronizing += res.synchronizes
            truncated += res.truncated
            violations += res.synchronizing and res.threshold > n - 1
        measured = f"synchronizing={synchronizing} violations={violations}"
        if truncated:
            measured += f" truncated={truncated}"
        return (
            "ret <= n-1 for every synchronizing sample",
            measured,
            violations == 0 and not truncated,
        )

    return _records("prop5", "samples", (PROP5_SAMPLES,), check)


def _claim_ladder(budget: SearchBudget) -> list[ClaimRecord]:
    return _records("ladder", "n", range(1, 16), _threshold(gen_ladder, lambda n: n - 1, budget))


def _claim_gusev7(budget: SearchBudget) -> list[ClaimRecord]:
    check = _threshold(gen_gusev_like, lambda n: (n * n - 3 * n + 4) // 2, budget)

    def frozen(n: int) -> tuple[str, str, bool]:
        expected, measured, passed = check(n)
        table = "ok" if gen_gusev_like(n).delta == GUSEV7_ROWS else "mismatch"
        return f"{expected} table=frozen", f"{measured} table={table}", passed and table == "ok"

    exact = _records("gusev7", "n", (7,), frozen)
    return exact + _records("gusev7", "n", (3, 5, 9, 11, 13), check, informative=True)


CLAIMS: dict[str, Callable[[SearchBudget], list[ClaimRecord]]] = {
    "cerny": _claim_cerny,
    "cor3": _claim_cor3,
    "gusev7": _claim_gusev7,
    "ladder": _claim_ladder,
    "lemma1": _claim_lemma1,
    "prop5": _claim_prop5,
    "thm2": _claim_thm2,
}


def run_harness(
    claims: Iterable[str] | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> HarnessReport:
    """Run the selected claims (all of them by default).

    Records are ordered by claim id and then by the claim's own
    parameter order; failures are recorded, never raised.  A claim id
    that is not a ``str``, or not a known claim, raises ``UsageError``.
    """
    if claims is None:
        claims = CLAIMS
    elif isinstance(claims, str):  # which would be read as its characters
        raise UsageError(f"claim ids {claims!r} is a string, expected an iterable of claim ids")
    ids = _read_once("claim ids", claims, "claim ids")
    for claim in ids:
        if not isinstance(claim, str):  # unhashable, or unsortable beside the others
            raise UsageError(f"claim id {claim!r} has type {type(claim).__name__}, expected str")
    selected = sorted(set(ids))
    unknown = [c for c in selected if c not in CLAIMS]
    if unknown:
        raise UsageError(f"unknown claim ids {unknown}; known: {sorted(CLAIMS)}")
    records: list[ClaimRecord] = []
    for claim in selected:
        records.extend(CLAIMS[claim](budget))
    return HarnessReport(tuple(records))
