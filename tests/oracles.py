"""Independent slow checks used to validate the fast implementations.

Nothing here shares code paths with the library's search or decision
procedures: the reset oracle enumerates words, the connectivity oracle
runs one reachability sweep per state, and the helpers build inputs with
known structure by construction.  The one exception is
:func:`reference_reset_threshold`, the library's earlier subset search
kept as a differential reference; it reuses only the pair test.
"""

from __future__ import annotations

import random

from idemsync import (
    DEFAULT_BUDGET,
    DEFAULT_CAPACITY,
    Dfa,
    SearchBudget,
    SyncResult,
    UsageError,
    is_synchronizing,
)


def brute_shortest_reset(dfa: Dfa) -> tuple[int, tuple[int, ...]] | None:
    """First reset word in length-then-lexicographic order, or None.

    Enumerates words level by level, letters in index order.  A word
    whose induced selfmap duplicates an earlier word's selfmap is not
    extended: each of its extensions behaves identically to the earlier
    word's matching extension, which is shorter or lexicographically
    smaller, so pruning cannot skip the first reset word.  The
    enumeration stops once the whole transformation monoid generated by
    the letters has been seen, which decides non-synchronizing inputs
    exactly.
    """
    n = dfa.n
    identity = tuple(range(n))
    if n == 1:
        return 0, ()
    seen = {identity}
    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(identity, ())]
    length = 0
    while frontier:
        length += 1
        next_frontier = []
        for selfmap, word in frontier:
            for j in range(dfa.k):
                row = dfa.delta[j]
                composed = tuple(row[x] for x in selfmap)
                if composed in seen:
                    continue
                seen.add(composed)
                extended = word + (j,)
                if len(set(composed)) == 1:
                    return length, extended
                next_frontier.append((composed, extended))
        frontier = next_frontier
    return None


def naive_strongly_connected(dfa: Dfa) -> bool:
    """Reachability sweep from every state."""
    n = dfa.n
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            q = stack.pop()
            for row in dfa.delta:
                if row[q] not in seen:
                    seen.add(row[q])
                    stack.append(row[q])
        if len(seen) != n:
            return False
    return True


def closure(dfa: Dfa, states: set[int]) -> set[int]:
    """Smallest letter-closed superset of ``states``."""
    out = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for row in dfa.delta:
            if row[q] not in out:
                out.add(row[q])
                stack.append(row[q])
    return out


def inflate(base: Dfa, sizes: list[int], seed: int) -> tuple[Dfa, list[int]]:
    """Blow each base state up into a block of copies.

    Returns the inflated automaton and the block map (state -> base
    state), which is a congruence by construction: a copy of base state
    ``b`` moves under letter ``j`` to some copy of ``b``'s image.
    """
    assert len(sizes) == base.n and all(s >= 1 for s in sizes)
    rng = random.Random(seed)
    first = []
    total = 0
    for s in sizes:
        first.append(total)
        total += s
    block_of = []
    for b, s in enumerate(sizes):
        block_of.extend([b] * s)
    rows = []
    for row in base.delta:
        new_row = []
        for q in range(total):
            target = row[block_of[q]]
            new_row.append(first[target] + rng.randrange(sizes[target]))
        rows.append(tuple(new_row))
    return Dfa(total, base.letters, tuple(rows)), block_of


def reference_reset_threshold(
    dfa: Dfa,
    budget: SearchBudget = DEFAULT_BUDGET,
    capacity: int = DEFAULT_CAPACITY,
) -> SyncResult:
    """The earlier ``reset_threshold``: one subset at a time, parents in a
    dict of tuples, images OR-ed one state bit at a time."""
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
    masks = [[1 << t for t in row] for row in dfa.delta]
    k = dfa.k
    # bits -> (parent bits, letter); the full set is its own root.
    seen: dict[int, tuple[int, int]] = {full: (full, -1)}
    frontier = [full]
    depth = 0
    while frontier:
        if budget.max_depth is not None and depth >= budget.max_depth:
            return SyncResult(False, None, None, len(seen), True)
        depth += 1
        next_frontier: list[int] = []
        for bits in frontier:
            for j in range(k):
                row_masks = masks[j]
                img = 0
                rest = bits
                while rest:
                    low = rest & -rest
                    img |= row_masks[low.bit_length() - 1]
                    rest ^= low
                if img in seen:
                    continue
                if (
                    budget.max_subsets is not None
                    and len(seen) >= budget.max_subsets
                ):
                    return SyncResult(False, None, None, len(seen), True)
                seen[img] = (bits, j)
                if img & (img - 1) == 0:
                    return SyncResult(
                        True, depth, _walk_back(seen, img, full), len(seen), False
                    )
                next_frontier.append(img)
        frontier = next_frontier
    raise RuntimeError(
        "subset search exhausted without a singleton after a positive pair test"
    )


def _walk_back(
    seen: dict[int, tuple[int, int]], bits: int, root: int
) -> tuple[int, ...]:
    word = []
    while bits != root:
        bits, j = seen[bits]
        word.append(j)
    word.reverse()
    return tuple(word)
