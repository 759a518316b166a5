"""Synchronization analysis: decision, exact thresholds, witness words.

Two complementary engines live here.  :func:`is_synchronizing` runs the
polynomial pair-merging test and never explores subsets: on the terminal
strongly connected component it closes the merged pairs backward, keeps
one flag per ordered pair of the component in a byte table, and stops as
soon as every pair is merged.  The closure switches direction as
direction-optimizing breadth-first search does (Beamer, Asanović and
Patterson, SC 2012) on Eppstein's pair graph (SIAM J. Comput. 1990): a
narrow worklist is pushed through per-letter inverse lists, one Python
step per pair, and a wide one is dropped for pull rounds, which find
every pair one letter merges into the table with C-level row copies,
strided column gathers and block-wide integer ORs.

:func:`reset_threshold` performs a breadth-first search over the power
automaton, starting from the full state set, and returns the exact
threshold together with the lexicographically least shortest reset
word.  The search is budgeted; the pair test runs first so
non-synchronizing inputs never trigger an exponential walk.

The search is level-synchronous and uses the bit-parallel image trick of
exact reset-word tools (Trahtman 2006; Kisielewicz, Kowalski and Szykuła
2015): one 256-byte table per letter and pair of source byte and image
byte gives that image byte's share for every value of the source byte.
Each level's images land in one buffer of ``8 * k * W`` bytes per
frontier subset (``W`` 64-bit words per state set), built by one of two
kernels chosen by the frontier's width.  A wide level costs a few
C-level passes: the column kernel gathers byte columns, each holding one
byte of every frontier subset, and maps them through the tables with
``bytes.translate``.  A level of at most eight subsets, where those
passes cost more than the subsets do, takes the one-set kernel: each
subset's non-zero bytes are looked up in the same tables, one subset at
a time.  Both write the same bytes.  Each level stores, per discovered
subset, only its parent's index and the letter taken; the next frontier
and the witness are read through these arrays.  Because subsets are
discovered in frontier order and letters are tried in index order, the
first singleton found ends the lexicographically least shortest reset
word.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import lshift, or_
from typing import Iterable

from .core import (
    Dfa,
    StateSet,
    UsageError,
    Word,
    _check_int,
    _predecessors,
    _reaches_all,
    _sink_list,
    _terminal_component,
    image_of_set,
    is_idempotent_letter,
    is_strongly_connected,
    letter_rank,
)


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the subset search.

    ``max_subsets`` bounds how many distinct subsets may be discovered,
    ``2**24`` unless given; ``max_depth`` bounds the word length
    explored.  ``None`` means unlimited.
    """

    max_subsets: int | None = 1 << 24
    max_depth: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_subsets", "max_depth"):
            value = getattr(self, name)
            _check_int(name, value, optional=True)
            if value is not None and value < 1:
                raise UsageError(f"{name} must be positive, got {value}")


DEFAULT_BUDGET = SearchBudget()

#: Largest state count the bit-packed subset search accepts by default.
#: Callers with patience can raise it per call; the pair test is bounded
#: only by its table cap below.
DEFAULT_CAPACITY = 63

# byte c of a state set lies at byte c ^ _FLIP of its native 64-bit words,
# and _OR_BIT[b] translates each byte value v to v | 1 << b
_FLIP = 7 if sys.byteorder == "big" else 0
_OR_BIT = [bytes(map(or_, range(256), repeat(1 << b))) for b in range(8)]

# A search level of at most _THIN subsets maps them one at a time through
# the column kernel's tables; the column kernel's fixed cost per level pays
# off only on wider levels.  On the claims' levels (n <= 16) the one-set
# kernel took 1.1 µs for one subset and 4.9 µs for seven, the column
# kernel 4.5-5.5 µs; from eight subsets on they were level or the column
# kernel won (Python 3.11, two vCPUs)
_THIN = 8

# Largest pair table, in bytes, the pair test allocates: a terminal
# component of at most 16,384 states
_PAIR_TABLE_CAP = 1 << 28

# The pair closure pushes while its worklist holds at most m * m //
# _PULL_SHARE pairs, and pulls past that; a component of fewer than
# _PULL_FLOOR states only pushes.  A pull round ORs the table in blocks
# of whole rows, at most _PULL_BLOCK bytes unless one row is longer.
# Pulling below the floor took doubled Černý 34 from 0.52 to 2.0 ms, and
# random n = 10 from 15 to 30 µs, a cost the thousands of small
# pre-tests of the claims would pay; a queue in place of the LIFO
# worklist took Černý 1,000 from 0.32 to 0.45 s (Python 3.11, two vCPUs).
_PULL_SHARE = 128
_PULL_FLOOR = 128
_PULL_BLOCK = 4096


@dataclass(frozen=True)
class SyncResult:
    """Outcome of an exact threshold search.

    When ``synchronizing`` is true, ``threshold`` and ``witness`` are
    present, the witness has exactly ``threshold`` letters, it maps the
    full state set to a singleton, and it is the lexicographically least
    word (by letter index) among all shortest reset words.

    When ``truncated`` is true the budget ran out before resolution:
    ``synchronizing`` is false, threshold and witness are absent, and
    :attr:`synchronizes` is true.
    """

    synchronizing: bool
    threshold: int | None
    witness: Word | None
    states_explored: int
    truncated: bool

    @property
    def synchronizes(self) -> bool:
        """Whether the automaton synchronizes: the search runs only after the
        pair test passed, so a truncated result synchronizes too."""
        return self.synchronizing or self.truncated


@dataclass(frozen=True)
class AnalysisReport:
    """Structural and synchronization facts about one automaton.

    ``sync`` is the exact search's result, or ``None`` when the automaton
    has more states than the search capacity.  ``synchronizing`` is
    ``sync.synchronizes`` when the search ran (true on truncation), and
    otherwise the pair test's verdict.
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
    pairs backward from the diagonal, so the first pairs found are those
    that one letter merges, and it stops as soon as every pair is merged;
    it needs no budget.  It runs in two directions:

    - A push step pops a pair ``(u, v)`` from a LIFO worklist and, for
      each letter ``j``, merges the pairs ``(p, q)`` with ``p`` in ``j``'s
      preimage of ``u`` and ``q`` in its preimage of ``v``, read from
      per-letter inverse lists.  Each pair is pushed and expanded at most
      once, in ``O(k * m**2)`` Python steps over the whole closure.
    - When the worklist outgrows ``m**2 / 128`` pairs, it is dropped for
      a pull round: for each letter row ``r``, a pair ``(p, q)`` is merged
      when ``(r[p], r[q])`` is, for every pair at once.  A round costs
      ``O(k * m**2)`` bytes of C-level work and ``O(k * m)`` Python steps,
      and covers every pair merged before it, the dropped worklist's
      included.  A round that finds more than ``2 * m**2 / 128`` ordered
      pairs is followed by another; a smaller one lists them as the next
      worklist.  So each round is paid for by at least ``m**2 / 128``
      worklist pairs, or by the ``2 * m**2 / 128`` pairs the round before
      it found.  A round straight after a push step that finds no more
      than that has found fewer pairs than the worklist it replaced; the
      closure is thin there (doubled Černý automata pile up such
      worklists), and from then on it only pushes.  Components under 128
      states only push: their closures are too short to pay for a round.

    The side tables are the ``O(k * m)`` inverse lists, one
    ``m**2``-byte table of merged flags, and a worklist of four-byte pair
    indices.  While pulls may come, the worklist holds at most
    ``m**2 / 128`` pairs (``m**2 / 32`` bytes) and the inverse lists are
    dropped during the rounds, which copy the table's rows into a second
    ``m**2``-byte buffer.  A closure that only pushes keeps one index per
    unordered pair at most, about ``m**2 / 2`` indices or twice the
    table.  The peak is therefore the larger of the table with that
    worklist and two tables with ``O(m**2 / 32)`` bytes.

    Here ``m`` is the size of a terminal component, a strongly
    connected component that no transition leaves: the automaton
    synchronizes exactly when it has only one and its restriction to
    that one synchronizes (Volkov, LATA 2008).  Finding it, and checking
    that every state reaches it, takes ``O(k * n)`` steps, before the
    table is allocated.  Two distinct sinks never merge, and a single
    sink is a one-state component; a sink-free input gets a terminal
    component from a forest of backward searches, whose last root's
    forward search is that component.  One set of predecessor lists
    serves the forest and the reachability check, both ``O(k * n)``.
    The component's inverse lists are read from the transition rows,
    with no copy of the automaton.  When its table would exceed
    ``2**28`` bytes (more than 16,384 states), the automaton raises
    ``UsageError``; at the cap, the table and a worklist of every pair
    take about 768 MiB, and two tables 512 MiB.
    """
    return _pair_test(dfa.delta)


def _pair_test(delta: tuple[tuple[int, ...], ...]) -> bool:
    """The pair test on the transition rows of a valid automaton."""
    sinks = _sink_list(delta)
    if len(sinks) > 1:
        return False
    predecessors = _predecessors(delta)
    component = sinks or _terminal_component(delta, predecessors)
    n = len(component)
    # a state that cannot reach the component reaches a second terminal one
    if n < len(delta[0]) and not _reaches_all(predecessors, component[0]):
        return False
    if n == 1:
        return True
    if n * n > _PAIR_TABLE_CAP:
        raise UsageError(
            f"{n} states without a sink need a {n * n}-byte pair table, "
            f"over the cap of {_PAIR_TABLE_CAP} bytes"
        )
    component.sort()  # the closure's state p is the input's state component[p]
    index = dict(zip(component, range(n))).__getitem__
    rows = [[index(row[q]) for q in component] for row in delta]
    del predecessors, index  # freed before the table is built
    # merged[p * n + q] is set, symmetrically, once (p, q) is merged
    merged = bytearray(n * n)
    merged[:: n + 1] = b"\x01" * n
    # every index is below n * n <= 2**28 < 2**32, and each unordered pair
    # is pushed once, so the 4-byte slots take about twice the table at most
    stack = array("I", range(0, n * n, n + 1))
    # the widest worklist the push step keeps; small components never pull
    limit = n * n // _PULL_SHARE if n >= _PULL_FLOOR else n * n
    gathered = inverses = None
    unmerged = n * (n - 1)  # ordered pairs of distinct states
    while True:
        if inverses is None:
            inverses = [_predecessors([row]) for row in rows]
        unmerged = _push_step(merged, stack, inverses, unmerged, limit)
        if not unmerged or not stack:
            return not unmerged
        # the worklist and the inverse lists are freed while pull rounds run
        stack = inverses = None
        if gathered is None:
            gathered = bytearray(n * n)
        rounds = 0
        while stack is None:
            found, stack = _pull_round(merged, gathered, rows, 2 * limit)
            unmerged -= found
            if not found or not unmerged:
                return not unmerged
            rounds += 1
        if rounds == 1:
            # one round found fewer pairs than the worklist it replaced: the
            # closure is thin here, and only pushes from now on
            limit, gathered = n * n, None


def _push_step(
    merged: bytearray, stack: array, inverses: list[list[list[int]]], unmerged: int, limit: int
) -> int:
    """Expand the pairs of the LIFO worklist ``stack`` while it holds at
    most ``limit`` pairs; returns the ordered pairs still unmerged.

    On return the table is complete, the worklist is empty, or a push has
    taken it past ``limit``, which may leave the last popped pair part
    expanded; a pull round covers it, as it covers every merged pair.
    """
    n = len(inverses[0])
    pop = stack.pop
    push = stack.append
    # pushes left before the table may be complete or the worklist too
    # wide: the width is checked once per run of pushes, not per pop
    units = armed = min(unmerged // 2, limit + 1 - len(stack))
    if units <= 0:
        return unmerged
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
                        units -= 1
                        if not units:
                            unmerged -= 2 * armed
                            if not unmerged or len(stack) > limit:
                                return unmerged
                            units = armed = min(unmerged // 2, limit + 1 - len(stack))
    return unmerged - 2 * (armed - units)


def _pull_round(
    merged: bytearray, gathered: bytearray, rows: list[list[int]], cap: int
) -> tuple[int, array | None]:
    """One pull round of the pair closure on the symmetric table ``merged``.

    For each letter row ``r`` in turn, ``gathered`` takes row ``r[p]`` of
    the table as its row ``p``; its column ``r[q]`` is then the letter's
    pull into row ``q``, so ``(p, q)`` is set exactly when ``(r[p],
    r[q])`` is merged.  The columns are joined and ORed into the table a
    block of whole rows at a time.  Returns the number
    of ordered pairs found and, when it is at most ``cap``, the new
    unordered pairs as indices ``p * m + q`` with ``p < q``; else ``None``.

    Each letter reads the table as the letters before it left it, and
    the copy keeps that letter's own writes out of its reads, so the
    table stays symmetric: the push step counts two ordered pairs per
    merge.  A snapshot of the whole table per round, transposed block by
    block, was slower: 67-120 ms against 56-60 ms on a random 900-state
    input (Python 3.11, two vCPUs).
    """
    m = len(rows[0])
    height = max(1, _PULL_BLOCK // m)  # rows per block
    table = memoryview(merged)
    found = 0
    listed: array | None = array("I")
    for row in rows:
        for p, t in enumerate(row):
            gathered[p * m : p * m + m] = table[t * m : t * m + m]
        for start in range(0, m * m, height * m):
            stop = min(start + height * m, m * m)
            old = int.from_bytes(table[start:stop], "little")
            union = old | int.from_bytes(
                b"".join([gathered[t::m] for t in row[start // m : stop // m]]), "little"
            )
            if union == old:
                continue
            table[start:stop] = union.to_bytes(stop - start, "little")
            added = union ^ old
            found += added.bit_count()
            if listed is None:
                continue
            if found > cap:
                listed = None
                continue
            bits = added.to_bytes(stop - start, "little")
            at = bits.find(1)
            while at >= 0:
                p, q = divmod(start + at, m)
                if p < q:
                    listed.append(start + at)
                at = bits.find(1, at + 1)
    return found, listed


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

    Subsets are bit sets, kept as ints in the seen set.  Each image byte
    is the OR of one or a few lookups, one 256-byte table per pair of
    source byte and image byte.  A level of more than eight subsets
    gathers its frontier into byte columns and ``translate``s them, each
    column through each of its tables once.  A level of at most eight
    reads its subsets' records from the previous level's buffer, one at a
    time, and looks each non-zero byte up in the same tables.  Either
    way the candidates fill ``k`` records of ``W = ceil(n / 64)`` native
    64-bit words per frontier subset, read as ints in position order, the
    index of the parent in the previous level times ``k`` plus the
    letter.  Each discovered subset keeps its position in an array per
    level, for the next frontier and the witness.  So a thin search, such
    as the ladder's one subset a level, pays per subset rather than per
    state at every level.

    Raises ``UsageError`` past ``capacity`` states; there :func:`is_synchronizing`
    alone decides, for sink-free inputs up to a terminal component of
    16,384 states (its pair-table cap).
    """
    n = dfa.n
    _check_int("capacity", capacity)
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
    words = (n + 63) // 64
    step = 8 * words * k
    # offset of an image byte in the records -> its (source byte, table) pairs
    outputs: dict[int, list[tuple[int, bytes]]] = {}
    # offset of a source byte in a record -> its (image offset, table) pairs
    by_source: dict[int, list[tuple[int, bytes]]] = {}
    for j, row in enumerate(dfa.delta):
        for start in range(0, n, 8):
            targets = row[start : start + 8]
            for o in {t >> 3 for t in targets}:
                table = b"\0"  # doubled once per state of the byte, padded to 256
                for t in targets:
                    table += table.translate(_OR_BIT[t & 7]) if t >> 3 == o else table
                offset, table = 8 * words * j + (o ^ _FLIP), table.ljust(256, b"\0")
                outputs.setdefault(offset, []).append((start >> 3, table))
                by_source.setdefault((start >> 3) ^ _FLIP, []).append((offset, table))
    max_subsets = budget.max_subsets
    seen = {full}
    add_seen = seen.add
    # levels[d][i] = parent index * k + letter of the i-th subset at depth d + 1
    levels: list[array] = []
    # the frontier is the records at ``links`` of the 64-bit words ``cells``
    full_words = [full >> s & (1 << 64) - 1 for s in range(0, n, 64)]
    cells, links = memoryview(array("Q", full_words)), array("Q", [0])
    depth = 0
    while links:
        if budget.max_depth is not None and depth >= budget.max_depth:
            return SyncResult(False, None, None, len(seen), True)
        depth += 1
        if len(links) <= _THIN:
            buf = _one_set_images(cells.cast("B"), links, 8 * words, by_source.items(), step)
        else:
            gathered = [
                array("Q", map(cells[w::words].__getitem__, links)).tobytes()
                for w in range(words)
            ]
            columns = [gathered[c >> 3][(c ^ _FLIP) & 7 :: 8] for c in range(n + 7 >> 3)]
            buf = bytearray(step * len(links))
            for offset, sources in outputs.items():
                bits = 0
                for c, table in sources:
                    bits |= int.from_bytes(columns[c].translate(table), "little")
                buf[offset::step] = bits.to_bytes(len(links), "little")
            del gathered, columns  # freed before the seen set grows
        cells = memoryview(buf).cast("Q")
        candidates = cells[::words]
        for w in range(1, words):
            shifted = map(lshift, cells[w::words], repeat(64 * w))
            candidates = map(or_, candidates, shifted)
        links = array("Q")
        add_link = links.append
        for position, img in enumerate(candidates):
            if img in seen:
                continue
            if max_subsets is not None and len(seen) >= max_subsets:
                return SyncResult(False, None, None, len(seen), True)
            add_seen(img)
            if img.bit_count() == 1:
                witness = _spell_back(levels, position, k)
                return SyncResult(True, depth, witness, len(seen), False)
            add_link(position)
        levels.append(links)
    raise RuntimeError(
        "subset search exhausted without a singleton after a positive pair test"
    )


def _one_set_images(
    records: memoryview,
    links: array,
    width: int,
    sources: Iterable[tuple[int, list[tuple[int, bytes]]]],
    step: int,
) -> bytearray:
    """The candidate records of a thin level, one frontier subset at a time.

    Subset ``i`` is the ``width`` bytes of record ``links[i]`` in
    ``records``.  ``sources`` pairs the offset of each source byte in a
    record with its (image offset, table) pairs: a non-zero source byte is
    looked up in those tables and the results are ORed into the image
    bytes.  The records come out as the column kernel lays them out,
    ``step`` bytes per subset in frontier order, one letter's ``W`` words
    after another's.
    """
    buf = bytearray(step * len(links))
    base = 0
    for r in links:
        record = records[r * width : r * width + width]
        for at, pairs in sources:
            value = record[at]
            if value:
                for offset, table in pairs:
                    buf[base + offset] |= table[value]
        base += step
    return buf


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


def verify_reset_word(dfa: Dfa, word: Iterable[int]) -> bool:
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
    test on the other letters' rows, so no search budget is involved.
    """
    if dfa.k <= 2:
        return False
    if not is_synchronizing(dfa):
        return False
    delta = dfa.delta
    return not any(_pair_test(delta[:j] + delta[j + 1 :]) for j in range(dfa.k))


def analyze_automaton(
    dfa: Dfa,
    budget: SearchBudget = DEFAULT_BUDGET,
    capacity: int = DEFAULT_CAPACITY,
) -> AnalysisReport:
    """Collect the standard structural and synchronization facts; past
    ``capacity`` states the search is skipped and the pair test decides."""
    _check_int("capacity", capacity)
    ranks, idempotent = _letter_shapes(dfa)
    sync = reset_threshold(dfa, budget, capacity) if dfa.n <= capacity else None
    return AnalysisReport(
        n=dfa.n,
        letters=dfa.letters,
        letter_ranks=ranks,
        letter_idempotent=idempotent,
        sinks=tuple(_sink_list(dfa.delta)),
        strongly_connected=is_strongly_connected(dfa),
        sync=sync,
        synchronizing=is_synchronizing(dfa) if sync is None else sync.synchronizes,
    )


def _letter_shapes(dfa: Dfa) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Every letter's rank, and whether it is idempotent, in letter order."""
    letters = range(dfa.k)
    ranks = tuple(letter_rank(dfa, j) for j in letters)
    return ranks, tuple(is_idempotent_letter(dfa, j) for j in letters)
