"""Constructive synchronization for automata with two idempotent letters.

For this class the reset threshold never exceeds ``n - 1``.  The two
functions here realize the constructive content behind the bound:
:func:`classify_strongly_connected_2idem` shows that a strongly
connected instance is either the two-state flip-flop or not
synchronizing at all (exhibiting an alternating cycle as the obstacle),
and :func:`synchronize_sink_2idem` builds a reset word of length
``n - 1`` for the unique-sink case by repeatedly peeling off a state
without predecessors, the lowest-index one when there is a choice.  The
peeling counts in-degrees once and keeps the predecessor-free states in
a min-heap, and checks the word against the peel order, so the whole
construction takes ``O(k * n log n)`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush

from .core import (
    Dfa,
    StateSet,
    UsageError,
    Word,
    _sink_list,
    is_idempotent_letter,
    is_strongly_connected,
)


class TwoIdemKind(Enum):
    FLIP_FLOP = "flip-flop"
    NOT_SYNCHRONIZING = "not-synchronizing"
    NOT_APPLICABLE = "not-applicable"


class ContradictionError(RuntimeError):
    """Every remaining non-sink state has a predecessor.

    This can only happen when the input violates the synchronizing
    precondition: the offending states form a letter-closed set from
    which the sink is unreachable.
    """


@dataclass(frozen=True)
class TwoIdemClassification:
    """Verdict for a strongly connected automaton with two idempotent letters.

    ``NOT_SYNCHRONIZING`` verdicts carry the alternating cycle that
    blocks synchronization: ``cycle_q[i]`` is fixed by the passive
    letter and moved to ``cycle_p[i]`` by ``moving_letter``, and
    ``cycle_p[i]`` flows on to ``cycle_q[(i + 1) % cycle_length]``.
    """

    kind: TwoIdemKind
    cycle_length: int | None = None
    cycle_q: tuple[int, ...] | None = None
    cycle_p: tuple[int, ...] | None = None
    moving_letter: int | None = None
    reason: str | None = None


def _two_idempotent_fault(dfa: Dfa) -> str | None:
    """Why ``dfa`` lacks exactly two letters, both idempotent, or ``None``."""
    if dfa.k != 2:
        return f"expected exactly 2 letters, got {dfa.k}"
    for j in range(2):
        if not is_idempotent_letter(dfa, j):
            return f"letter {dfa.letters[j]!r} is not idempotent"
    return None


def classify_strongly_connected_2idem(dfa: Dfa) -> TwoIdemClassification:
    """Classify a strongly connected two-idempotent-letter automaton.

    Starting from state 0, pick the first letter that moves it and trace
    the orbit that alternates the two letters until it closes.  A cycle
    of length 1 forces the flip-flop on two states; any longer cycle is
    a proof that no word can merge its states, so the automaton does not
    synchronize.  Inputs failing a precondition (exactly two letters,
    both idempotent, strong connectivity, at least two states) get a
    ``NOT_APPLICABLE`` verdict with the reason.
    """
    reason = _two_idempotent_fault(dfa)
    if reason is None and dfa.n < 2:
        reason = "expected at least 2 states"
    if reason is None and not is_strongly_connected(dfa):
        reason = "not strongly connected"
    if reason is not None:
        return TwoIdemClassification(TwoIdemKind.NOT_APPLICABLE, reason=reason)

    start = 0
    mover = next(
        (j for j in range(2) if dfa.delta[j][start] != start), None
    )
    # A state fixed by both letters would be a sink, impossible here.
    assert mover is not None
    passive = 1 - mover
    cycle_q = []
    cycle_p = []
    state = start
    for _ in range(dfa.n):
        cycle_q.append(state)
        moved = dfa.delta[mover][state]
        cycle_p.append(moved)
        state = dfa.delta[passive][moved]
        if state == start:
            break
    else:
        raise RuntimeError("alternating orbit failed to close")
    if len(cycle_q) == 1:
        # {start, moved} is closed under both letters; strong
        # connectivity then forces exactly these two states.
        assert dfa.n == 2
        return TwoIdemClassification(TwoIdemKind.FLIP_FLOP, moving_letter=mover)
    return TwoIdemClassification(
        TwoIdemKind.NOT_SYNCHRONIZING,
        cycle_length=len(cycle_q),
        cycle_q=tuple(cycle_q),
        cycle_p=tuple(cycle_p),
        moving_letter=mover,
    )


def _in_degrees(dfa: Dfa) -> list[int]:
    """Per state, the transitions from other states into it, counted
    once per letter and source."""
    degree = [0] * dfa.n
    for row in dfa.delta:
        for p, q in enumerate(row):
            if q != p:
                degree[q] += 1
    return degree


def predecessor_free_states(dfa: Dfa) -> StateSet:
    """States that are not the image of any other state under any letter."""
    return StateSet.of(
        (q for q, degree in enumerate(_in_degrees(dfa)) if not degree), dfa.n
    )


def synchronize_sink_2idem(dfa: Dfa) -> Word:
    """Reset word of length ``n - 1`` for a synchronizing automaton with
    two idempotent letters and a unique sink.

    Each round removes a state without predecessors among the remaining
    ones (lowest index when there is a choice) and emits the first
    letter that moves it; the removed state's image stays inside the
    remainder, so the concatenated letters drive everything into the
    sink.  In-degrees are counted once; the predecessor-free non-sink
    states wait in a min-heap, which keeps the lowest-index choice, and
    removing a state decrements the in-degrees of its images, so the
    peeling takes ``O(k * n log n)`` steps.  The word is verified in
    ``O(k * n)`` against the peel order: every transition between
    distinct states leads to a state removed later (the sink last), and
    each round's letter moves that round's state, so the image after
    round ``i`` lies in the states not yet removed.

    Raises ``UsageError`` when the automaton does not have exactly two
    idempotent letters and a unique sink, and
    :class:`ContradictionError` when no predecessor-free state exists,
    which means the automaton was not synchronizing to begin with.
    """
    if fault := _two_idempotent_fault(dfa):
        raise UsageError(fault)
    sinks = _sink_list(dfa.delta)
    if len(sinks) != 1:
        raise UsageError(f"expected a unique sink, found {len(sinks)}")
    sink = sinks[0]

    in_degree = _in_degrees(dfa)
    # ascending, hence already a heap
    free = [q for q, degree in enumerate(in_degree) if not degree and q != sink]
    position = [dfa.n - 1] * dfa.n
    order = []
    word = []
    for _ in range(dfa.n - 1):
        if not free:
            raise ContradictionError(
                "every remaining state has a predecessor; "
                "the automaton is not synchronizing"
            )
        q = heappop(free)
        images = [row[q] for row in dfa.delta]
        # q is not the sink, so some letter moves it
        position[q] = len(order)
        order.append(q)
        word.append(0 if images[0] != q else 1)
        for t in images:
            if t != q:
                in_degree[t] -= 1
                if not in_degree[t] and t != sink:
                    heappush(free, t)
    if any(dfa.delta[j][q] == q for j, q in zip(word, order)) or any(
        position[p] >= position[t] for row in dfa.delta for p, t in enumerate(row) if t != p
    ):
        raise RuntimeError("constructed word failed verification")
    return tuple(word)
