"""Independent slow checks used to validate the fast implementations.

Nothing here shares code paths with the library's search or decision
procedures: the reset oracle enumerates words, the connectivity oracle
runs one reachability sweep per state, and the helpers build inputs with
known structure by construction.  The exceptions are the library's
earlier engines, kept verbatim as differential references:
:func:`reference_reset_threshold` (the subset search, which reuses only
the pair test), :func:`reference_is_synchronizing` (the pair test over a
reverse dict of pair predecessors), :func:`reference_pair_test` (the
closure that only pushes, on the library's component helpers),
:func:`reference_synchronize_sink_2idem` (peeling by rescanning every
predecessor each round, which reuses the library's preconditions and
word check), the random generators :func:`reference_gen_random_idempotent`
(one bit test per state on the image set) and
:func:`reference_gen_random_dfa` (written out without the shared seeded
scaffold), the text layers
:func:`reference_export_dot` (one row lookup per state and letter) and
:func:`reference_render_automaton`, and :func:`reference_image_of_set`
(one n-bit walk per letter), :func:`reference_parse_automaton` (one
``int`` call and one range check per token),
:func:`reference_transition_error` (one ordered scan of every entry) and
:func:`reference_is_idempotent_word` (one ``apply_word`` per state).
:func:`reference_is_proper` builds every one-letter reduct as a
:class:`Dfa` and asks :func:`reference_is_synchronizing` about it.
"""

from __future__ import annotations

import random
from array import array

from idemsync import (
    DEFAULT_BUDGET,
    DEFAULT_CAPACITY,
    ContradictionError,
    Dfa,
    SearchBudget,
    StateSet,
    SyncResult,
    UsageError,
    apply_word,
    find_sinks,
    gen_cerny,
    is_idempotent_letter,
    is_synchronizing,
    verify_reset_word,
)
from idemsync.core import (
    _predecessors,
    _reaches_all,
    _sink_list,
    _terminal_component,
)
from idemsync.saf import ParseError, _significant_lines


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


def cerny_with_tail(m: int, tail: int) -> Dfa:
    """Černý ``m`` with a transient tail of ``tail`` states, none a sink.

    Under ``s1``, tail state ``m + i`` moves to ``m + i + 1`` and the last
    one to Černý state 0; under ``s2`` every tail state moves to 0.  The
    Černý states are the one terminal component.
    """
    cerny = gen_cerny(m)
    s1 = cerny.delta[0] + tuple(range(m + 1, m + tail)) + (0,)
    s2 = cerny.delta[1] + (0,) * tail
    return Dfa(m + tail, cerny.letters, (s1, s2))


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


def reference_is_synchronizing(dfa: Dfa) -> bool:
    """The earlier ``is_synchronizing``: every pair's successor pairs are
    inverted into a dict of lists before any pair is merged."""
    n = dfa.n
    if n == 1:
        return True
    mergeable = [False] * (n * n)
    reverse: dict[int, list[int]] = {}
    queue: list[int] = []
    for p in range(n):
        for q in range(p + 1, n):
            pair = p * n + q
            direct = False
            for row in dfa.delta:
                u, v = row[p], row[q]
                if u == v:
                    direct = True
                    continue
                if u > v:
                    u, v = v, u
                reverse.setdefault(u * n + v, []).append(pair)
            if direct:
                mergeable[pair] = True
                queue.append(pair)
    while queue:
        target = queue.pop()
        for pair in reverse.get(target, ()):
            if not mergeable[pair]:
                mergeable[pair] = True
                queue.append(pair)
    return all(
        mergeable[p * n + q] for p in range(n) for q in range(p + 1, n)
    )


def reference_pair_test(delta) -> bool:
    """The earlier pair closure: the same sink screen, terminal component
    and inverse lists, with every merged pair expanded from a LIFO
    worklist of 4-byte pair indices, however wide it grows."""
    sinks = _sink_list(delta)
    if len(sinks) > 1:
        return False
    predecessors = _predecessors(delta)
    component = sinks or _terminal_component(delta, predecessors)
    n = len(component)
    if n < len(delta[0]) and not _reaches_all(predecessors, component[0]):
        return False
    if n == 1:
        return True
    component.sort()
    index = dict(zip(component, range(n))).__getitem__
    inverses = [_predecessors([[index(row[q]) for q in component]]) for row in delta]
    merged = bytearray(n * n)
    merged[:: n + 1] = b"\x01" * n
    stack = array("I", range(0, n * n, n + 1))
    pop = stack.pop
    push = stack.append
    unmerged = n * (n - 1)
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


def reference_is_proper(dfa: Dfa) -> bool:
    """Properness from the whole-automaton pair test: more than two
    letters, synchronizing, and no reduct by one letter synchronizing."""
    if dfa.k <= 2 or not reference_is_synchronizing(dfa):
        return False
    for j in range(dfa.k):
        letters = dfa.letters[:j] + dfa.letters[j + 1 :]
        reduct = Dfa(dfa.n, letters, dfa.delta[:j] + dfa.delta[j + 1 :])
        if reference_is_synchronizing(reduct):
            return False
    return True


def reference_is_idempotent_word(dfa: Dfa, word) -> bool:
    """The earlier ``is_idempotent_word``: the word is walked from every
    state, checking its letters each time."""
    once = [apply_word(dfa, q, word) for q in range(dfa.n)]
    return all(once[once[q]] == once[q] for q in range(dfa.n))


def reference_synchronize_sink_2idem(dfa: Dfa) -> tuple[int, ...]:
    """The earlier ``synchronize_sink_2idem``: each round rescans the
    predecessors of every remaining state."""
    if dfa.k != 2:
        raise UsageError(f"expected exactly 2 letters, got {dfa.k}")
    for j in range(2):
        if not is_idempotent_letter(dfa, j):
            raise UsageError(f"letter {dfa.letters[j]!r} is not idempotent")
    sinks = find_sinks(dfa).members()
    if len(sinks) != 1:
        raise UsageError(f"expected a unique sink, found {len(sinks)}")
    sink = sinks[0]

    alive = [True] * dfa.n
    remaining = dfa.n
    word = []
    while remaining > 1:
        has_pred = [False] * dfa.n
        for row in dfa.delta:
            for p in range(dfa.n):
                if alive[p] and row[p] != p:
                    has_pred[row[p]] = True
        free = next(
            (
                q
                for q in range(dfa.n)
                if alive[q] and q != sink and not has_pred[q]
            ),
            None,
        )
        if free is None:
            raise ContradictionError(
                "every remaining state has a predecessor; "
                "the automaton is not synchronizing"
            )
        mover = next(j for j in range(2) if dfa.delta[j][free] != free)
        word.append(mover)
        alive[free] = False
        remaining -= 1
    result = tuple(word)
    if not verify_reset_word(dfa, result):
        raise RuntimeError("constructed word failed verification")
    return result


def reference_gen_random_idempotent(n: int, k: int, seed: int) -> Dfa:
    """The earlier ``gen_random_idempotent``: bit ``q`` of the image set
    is tested on the n-bit integer once per state, twice per letter."""
    if n < 1:
        raise UsageError(f"need at least 1 state, got {n}")
    if k < 1:
        raise UsageError(f"need at least 1 letter, got {k}")
    rng = random.Random(seed)
    rows = []
    for _ in range(k):
        bits = rng.randrange(1, 1 << n)
        image = [q for q in range(n) if bits >> q & 1]
        rows.append(
            tuple(q if bits >> q & 1 else rng.choice(image) for q in range(n))
        )
    return Dfa(n, tuple(f"x{j + 1}" for j in range(k)), tuple(rows))


def reference_gen_random_dfa(n: int, k: int, seed: int) -> Dfa:
    """The earlier ``gen_random_dfa``, written out on its own."""
    if n < 1:
        raise UsageError(f"need at least 1 state, got {n}")
    if k < 1:
        raise UsageError(f"need at least 1 letter, got {k}")
    rng = random.Random(seed)
    rows = tuple(
        tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)
    )
    return Dfa(n, tuple(f"x{j + 1}" for j in range(k)), rows)


def _reference_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_export_dot(dfa: Dfa) -> str:
    """The earlier ``export_dot``: every letter's row is indexed at every
    state, and every label is quoted where it is written."""
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in range(dfa.n):
        lines.append(f"  {q} [label={_reference_quote(str(q))}];")
    for q in range(dfa.n):
        by_target: dict[int, list[str]] = {}
        for name, row in zip(dfa.letters, dfa.delta):
            by_target.setdefault(row[q], []).append(name)
        for target in sorted(by_target):
            label = ",".join(by_target[target])
            lines.append(f"  {q} -> {target} [label={_reference_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_render_automaton(dfa: Dfa) -> str:
    """The earlier ``render_automaton``: targets formatted by a generator."""
    lines = ["SAF 1", f"{dfa.n} {dfa.k}"]
    for name, row in zip(dfa.letters, dfa.delta):
        lines.append(name + " " + " ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def reference_image_of_set(dfa: Dfa, s: StateSet, word) -> StateSet:
    """The earlier ``image_of_set``: each letter walks the set's bits,
    lowest first, and ORs the image bits into an n-bit integer."""
    if s.n != dfa.n:
        raise UsageError(f"set capacity {s.n} does not match state count {dfa.n}")
    bits = s.bits
    for j in word:
        if not 0 <= j < dfa.k:
            raise UsageError(f"letter index {j} leaves [0, {dfa.k})")
        row = dfa.delta[j]
        img = 0
        rest = bits
        while rest:
            low = rest & -rest
            img |= 1 << row[low.bit_length() - 1]
            rest ^= low
        bits = img
    return StateSet(bits, dfa.n)


def reference_parse_automaton(text: str) -> Dfa:
    """The earlier ``parse_automaton``: each target token is converted and
    range-checked on its own, in order."""
    lines = _significant_lines(text)
    if not lines:
        raise ParseError(1, "missing header (expected 'SAF 1')")
    lineno, header = lines[0]
    if header.split() != ["SAF", "1"]:
        raise ParseError(lineno, f"bad header {header!r} (expected 'SAF 1')")
    if len(lines) < 2:
        raise ParseError(lineno, "missing dimensions line after header")
    lineno, dims = lines[1]
    parts = dims.split()
    if len(parts) != 2:
        raise ParseError(lineno, f"expected '<n> <k>', got {dims!r}")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"expected integers in {dims!r}") from None
    if n < 1 or k < 1:
        raise ParseError(lineno, f"state and letter counts must be positive, got {dims!r}")
    rows = lines[2:]
    if len(rows) < k:
        raise ParseError(
            lines[-1][0], f"expected {k} letter rows, found {len(rows)}"
        )
    if len(rows) > k:
        raise ParseError(rows[k][0], f"unexpected extra line after {k} letter rows")
    # a dict keeps the row order and answers the duplicate check in O(1)
    letters: dict[str, None] = {}
    table: list[tuple[int, ...]] = []
    for lineno, row in rows:
        fields = row.split()
        name, targets = fields[0], fields[1:]
        if name in letters:
            raise ParseError(lineno, f"duplicate letter name {name!r}")
        if len(targets) != n:
            raise ParseError(
                lineno, f"letter {name!r} has {len(targets)} targets, expected {n}"
            )
        entries = []
        for t in targets:
            try:
                value = int(t)
            except ValueError:
                raise ParseError(lineno, f"bad state index {t!r}") from None
            if not 0 <= value < n:
                raise ParseError(
                    lineno, f"state index {value} out of range [0, {n})"
                )
            entries.append(value)
        letters[name] = None
        table.append(tuple(entries))
    return Dfa(n, tuple(letters), tuple(table))


def reference_transition_error(n: int, letters, delta) -> str | None:
    """The message ``Dfa`` gives for the first bad transition entry, found
    by one scan in row order and then state order (rows of the right
    length assumed), or None when every entry is an ``int`` in ``[0, n)``."""
    for name, row in zip(letters, delta):
        for q, t in enumerate(row):
            if type(t) is not int:
                return (
                    f"transition {name!r}: {q} -> {t!r} has type "
                    f"{type(t).__name__}, expected int"
                )
            if not 0 <= t < n:
                return f"transition {name!r}: {q} -> {t} leaves [0, {n})"
    return None
