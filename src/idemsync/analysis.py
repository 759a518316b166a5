"""Synchronization analysis: decision, exact thresholds, witness words.

Two complementary engines live here.  :func:`is_synchronizing` runs the
polynomial pair-merging test and never explores subsets: it closes the
merged pairs backward over per-letter inverse lists, keeps one flag per
ordered pair in an ``n**2``-byte table, and stops as soon as every pair
is merged.  :func:`reset_threshold` performs a breadth-first search
over the power automaton, starting from the full state set, and returns
the exact threshold together with the lexicographically least shortest
reset word.  The search is budgeted; the pair test runs first so
non-synchronizing inputs never trigger an exponential walk.

The search is level-synchronous.  Subsets are bit sets, and the image of
a whole level under a letter is computed from per-letter lookup tables,
one 256-entry table per byte of the state set, the bit-parallel image
trick of exact reset-word tools (Trahtman 2006; Kisielewicz, Kowalski
and Szykuła 2015).  The frontier is held as packed bytes, and each level
stores, per discovered subset, only the index of its parent in the
previous level and the letter taken; the witness is read back through
these per-level arrays.  Because subsets
are discovered in frontier order and letters are tried in index order,
the first singleton found ends the lexicographically least shortest
reset word.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from operator import or_

from .core import (
    Dfa,
    StateSet,
    UsageError,
    Word,
    _predecessors,
    _reaches_all,
    _sink_list,
    image_of_set,
    is_idempotent_letter,
    is_strongly_connected,
    letter_rank,
)


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the subset search.

    ``None`` means unlimited.  ``max_subsets`` bounds how many distinct
    subsets may be discovered; ``max_depth`` bounds the word length
    explored.
    """

    max_subsets: int | None = None
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_subsets is not None and self.max_subsets < 1:
            raise UsageError(f"max_subsets must be positive, got {self.max_subsets}")
        if self.max_depth is not None and self.max_depth < 1:
            raise UsageError(f"max_depth must be positive, got {self.max_depth}")


DEFAULT_BUDGET = SearchBudget(max_subsets=1 << 24)

#: Largest state count the bit-packed subset search accepts by default.
#: Callers with patience can raise it per call; the pair test has no limit.
DEFAULT_CAPACITY = 63

# Largest pair table, in bytes, the pair test allocates: n <= 16,384 states
_PAIR_TABLE_CAP = 1 << 28


@dataclass(frozen=True)
class SyncResult:
    """Outcome of an exact threshold search.

    When ``synchronizing`` is true, ``threshold`` and ``witness`` are
    present, the witness has exactly ``threshold`` letters, it maps the
    full state set to a singleton, and it is the lexicographically least
    word (by letter index) among all shortest reset words.

    When ``truncated`` is true the budget ran out before resolution and
    the result makes no synchronization claim: ``synchronizing`` is
    false and threshold and witness are absent.  Use
    :func:`is_synchronizing` for a budget-independent decision.
    """

    synchronizing: bool
    threshold: int | None
    witness: Word | None
    states_explored: int
    truncated: bool


@dataclass(frozen=True)
class AnalysisReport:
    """Structural and synchronization facts about one automaton.

    ``sync`` is the exact search's result, or ``None`` when the automaton
    has more states than the search capacity.  ``synchronizing`` is the
    search's verdict when it ran (false on truncation), and otherwise the
    pair test's.
    """

    n: int
    letters: tuple[str, ...]
    letter_ranks: tuple[int, ...]
    letter_idempotent: tuple[bool, ...]
    sinks: tuple[int, ...]
    strongly_connected: bool
    sync: SyncResult | None
    synchronizing: bool


def is_synchronizing(dfa: Dfa) -> bool:
    """Decide synchronizability by merging state pairs.

    An automaton synchronizes exactly when every pair of states can be
    mapped to a single state by some word.  The check closes the merged
    pairs backward: per-letter inverse lists name the states each letter
    sends to a state, so a merged pair ``(u, v)`` and a letter ``j``
    yield the merged pairs ``(p, q)`` with ``p`` in ``j``'s preimage of
    ``u`` and ``q`` in its preimage of ``v``.  Starting from the
    diagonal, the first pairs found are those that one letter merges.
    Each pair is expanded once, in ``O(k * n**2)`` steps; the side
    tables are the ``O(k * n)`` inverse lists and one ``n**2``-byte
    table of merged flags.  The closure stops as soon as every pair is
    merged, and it needs no budget.  Sinks answer in ``O(k * n)`` steps,
    before the table is allocated: two distinct sinks never merge, and
    with exactly one sink the automaton synchronizes exactly when every
    state reaches it.  A sink-free automaton whose table would exceed
    ``2**28`` bytes (more than 16,384 states) raises ``UsageError``.
    """
    n = dfa.n
    sinks = _sink_list(dfa)
    if len(sinks) > 1:
        return False
    if sinks:
        return _reaches_all(_predecessors(dfa), sinks[0])
    if n * n > _PAIR_TABLE_CAP:
        raise UsageError(
            f"{n} states without a sink need a {n * n}-byte pair table, "
            f"over the cap of {_PAIR_TABLE_CAP} bytes"
        )
    inverses = []
    for row in dfa.delta:
        inverse: list[list[int]] = [[] for _ in range(n)]
        for p, t in enumerate(row):
            inverse[t].append(p)
        inverses.append(inverse)
    # merged[p * n + q] is set, symmetrically, once (p, q) is merged
    merged = bytearray(n * n)
    merged[:: n + 1] = b"\x01" * n
    stack = array("q", range(0, n * n, n + 1))
    pop = stack.pop
    push = stack.append
    unmerged = n * (n - 1)  # ordered pairs of distinct states
    while stack:
        u, v = divmod(pop(), n)
        for inverse in inverses:
            sources = inverse[v]
            if not sources:
                continue
            for p in inverse[u]:
                base = p * n
                for q in sources:
                    if not merged[base + q]:
                        merged[base + q] = merged[q * n + p] = 1
                        push(base + q)
                        unmerged -= 2
                        if not unmerged:
                            return True
    return False


def reset_threshold(
    dfa: Dfa,
    budget: SearchBudget = DEFAULT_BUDGET,
    capacity: int = DEFAULT_CAPACITY,
) -> SyncResult:
    """Exact reset threshold and lexicographically least shortest witness.

    Runs the pair test first; a non-synchronizing automaton is reported
    without any subset exploration.  Otherwise a breadth-first search
    from the full state set walks subsets under the letter actions one
    level at a time.  Within a level, candidates are taken subset by
    subset in discovery order and, for each subset, letter by letter in
    index order.  Every subset is therefore first reached along the
    lexicographically least shortest word that reaches it, so the first
    singleton discovered yields the lexicographically least shortest
    reset word, and ``states_explored`` counts the subsets discovered up
    to and including it.

    Subsets are bit sets, kept as ints in the seen set and as
    little-endian bytes in the frontier.  Each letter carries one
    256-entry table per byte of the state set, mapping every byte value
    to the image of those states; a subset's image is the OR of one
    lookup per byte.  Each discovered subset records, in an array per
    level, the index of its parent in the previous level times ``k``
    plus the letter; the witness is read back through these arrays.

    Raises ``UsageError`` past ``capacity`` states; there :func:`is_synchronizing`
    alone decides, up to 16,384 states (its pair-table cap) for sink-free inputs.
    """
    n = dfa.n
    if n > capacity:
        raise UsageError(
            f"{n} states exceed the subset-search capacity {capacity}; "
            "the pair test (is_synchronizing) still applies"
        )
    if not is_synchronizing(dfa):
        return SyncResult(False, None, None, 0, False)
    full = (1 << n) - 1
    if n == 1:
        return SyncResult(True, 0, (), 1, False)
    k = dfa.k
    width = (n + 7) // 8
    tables = [_byte_tables(row) for row in dfa.delta]
    max_subsets = budget.max_subsets
    seen = {full}
    add_seen = seen.add
    # levels[d][i] = parent index * k + letter of the i-th subset at depth d + 1
    levels: list[array] = []
    # a frontier is its subsets' bytes, little-endian, ``width`` per subset
    frontier = full.to_bytes(width, "little")
    depth = 0
    while frontier:
        if budget.max_depth is not None and depth >= budget.max_depth:
            return SyncResult(False, None, None, len(seen), True)
        depth += 1
        # images[j] yields, lazily and in frontier order, each subset's
        # image under letter j: the OR of one table lookup per byte
        columns = [frontier[b::width] for b in range(width)]
        images = []
        for chunk_tables in tables:
            image = map(chunk_tables[0].__getitem__, columns[0])
            for table, column in zip(chunk_tables[1:], columns[1:]):
                image = map(or_, image, map(table.__getitem__, column))
            images.append(image)
        links = array("Q")
        next_frontier = bytearray()
        add_link = links.append
        add_next = next_frontier.extend
        # position = parent index * k + letter, in discovery order
        for position, img in enumerate(chain.from_iterable(zip(*images))):
            if img in seen:
                continue
            if max_subsets is not None and len(seen) >= max_subsets:
                return SyncResult(False, None, None, len(seen), True)
            add_seen(img)
            if img.bit_count() == 1:
                witness = _spell_back(levels, position, k)
                return SyncResult(True, depth, witness, len(seen), False)
            add_next(img.to_bytes(width, "little"))
            add_link(position)
        levels.append(links)
        frontier = next_frontier
    raise RuntimeError(
        "subset search exhausted without a singleton after a positive pair test"
    )


def _spell_back(levels: list[array], position: int, k: int) -> Word:
    """The word reaching the candidate at ``position`` (parent index in
    the last level times ``k`` plus letter) from the full set."""
    word = []
    for links in reversed(levels):
        position, j = divmod(position, k)
        word.append(j)
        position = links[position]
    word.append(position)  # a first-level position is the letter itself
    word.reverse()
    return tuple(word)


def _byte_tables(row: tuple[int, ...]) -> list[list[int]]:
    """One table per byte of a state set: entry ``v`` is the image, as
    bits, of the states whose bits are set in byte value ``v``."""
    tables = []
    for start in range(0, len(row), 8):
        table = [0]
        for target in row[start : start + 8]:
            bit = 1 << target
            table += [x | bit for x in table]
        tables.append(table)
    return tables


def verify_reset_word(dfa: Dfa, word: Word) -> bool:
    """True when ``word`` maps the full state set to a single state.

    Raises ``UsageError`` on a letter index outside the alphabet, even
    after the image has shrunk to one state.
    """
    return len(image_of_set(dfa, StateSet.full(dfa.n), word)) == 1


def is_proper(dfa: Dfa) -> bool:
    """True when every reset word needs every letter.

    Properness is defined for automata with more than two letters: the
    automaton must synchronize, and removing any single letter must
    leave a non-synchronizing automaton.  Each removal costs one pair
    test, so no search budget is involved.
    """
    if dfa.k <= 2:
        return False
    if not is_synchronizing(dfa):
        return False
    return all(
        not is_synchronizing(_without_letter(dfa, j)) for j in range(dfa.k)
    )


def _without_letter(dfa: Dfa, j: int) -> Dfa:
    letters = dfa.letters[:j] + dfa.letters[j + 1 :]
    rows = dfa.delta[:j] + dfa.delta[j + 1 :]
    return Dfa(dfa.n, letters, rows)


def analyze_automaton(
    dfa: Dfa,
    budget: SearchBudget = DEFAULT_BUDGET,
    capacity: int = DEFAULT_CAPACITY,
) -> AnalysisReport:
    """Collect the standard structural and synchronization facts; past
    ``capacity`` states the search is skipped and the pair test decides."""
    ranks, idempotent = _letter_shapes(dfa)
    sync = reset_threshold(dfa, budget, capacity) if dfa.n <= capacity else None
    return AnalysisReport(
        n=dfa.n,
        letters=dfa.letters,
        letter_ranks=ranks,
        letter_idempotent=idempotent,
        sinks=tuple(_sink_list(dfa)),
        strongly_connected=is_strongly_connected(dfa),
        sync=sync,
        synchronizing=is_synchronizing(dfa) if sync is None else sync.synchronizing,
    )


def _letter_shapes(dfa: Dfa) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Every letter's rank, and whether it is idempotent, in letter order."""
    letters = range(dfa.k)
    ranks = tuple(letter_rank(dfa, j) for j in letters)
    return ranks, tuple(is_idempotent_letter(dfa, j) for j in letters)
