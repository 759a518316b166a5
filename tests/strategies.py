"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import hypothesis.strategies as st

from idemsync import Dfa, SearchBudget


@st.composite
def dfas(draw, min_n: int = 1, max_n: int = 6, max_k: int = 3) -> Dfa:
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(k)
    )
    return Dfa(n, tuple(f"x{j + 1}" for j in range(k)), delta)


@st.composite
def dfas_with_words(
    draw, max_n: int = 6, max_k: int = 3, max_len: int = 8, min_len: int = 0
) -> tuple[Dfa, tuple[int, ...]]:
    dfa = draw(dfas(max_n=max_n, max_k=max_k))
    word = tuple(
        draw(
            st.lists(
                st.integers(0, dfa.k - 1), min_size=min_len, max_size=max_len
            )
        )
    )
    return dfa, word


@st.composite
def dfas_with_budgets(
    draw, max_n: int = 20, max_k: int = 3, max_subsets: int = 4096
) -> tuple[Dfa, SearchBudget]:
    """Automata with subset-search budgets of at most ``max_subsets``;
    unlimited subsets only where the whole power set is no larger."""
    dfa = draw(dfas(max_n=max_n, max_k=max_k))
    unlimited = st.none() if 1 << dfa.n <= max_subsets else st.nothing()
    subsets = draw(unlimited | st.integers(1, max_subsets))
    max_depth = draw(st.none() | st.integers(1, 40))
    return dfa, SearchBudget(subsets, max_depth)


@st.composite
def idempotent_sink_dfas(draw, max_n: int = 40) -> Dfa:
    """Two idempotent letters and a unique sink.

    Every state but the sink is fixed by at most one letter, and each
    letter sends the states it does not fix to states it fixes, so both
    letters are idempotent and the sink is their only common fixed
    point.  Synchronizing and non-synchronizing instances both occur.
    """
    n = draw(st.integers(1, max_n))
    sink = draw(st.integers(0, n - 1))
    # fixer[q]: the letter fixing q (0 or 1), 2 for neither; both fix the sink
    fixer = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    fixer[sink] = None
    rows = []
    for j in range(2):
        fixed = [q for q in range(n) if fixer[q] in (j, None)]
        rows.append(
            tuple(
                q if fixer[q] in (j, None) else draw(st.sampled_from(fixed))
                for q in range(n)
            )
        )
    return Dfa(n, ("a", "b"), tuple(rows))


@st.composite
def unconnected_sink_free_dfas(
    draw, max_core: int = 8, max_tail: int = 8, max_k: int = 3
) -> Dfa:
    """Sink-free automata that are not strongly connected.

    Either one random core with a transient tail that falls into it, or
    two disjoint random cores (with an optional tail), which give two
    terminal components.  The first letter cycles through each core, so
    every core is strongly connected and has no sink; every letter sends
    a tail state to a later tail state or into a core.  The states are
    then relabelled by a random permutation.
    """
    k = draw(st.integers(1, max_k))
    two_cores = draw(st.booleans())
    sizes = [draw(st.integers(2, max_core)) for _ in range(1 + two_cores)]
    core = sum(sizes)
    n = core + draw(st.integers(0 if two_cores else 1, max_tail))
    rows = [[0] * n for _ in range(k)]
    start = 0
    for size in sizes:
        for q in range(start, start + size):
            rows[0][q] = start + (q - start + 1) % size
            for row in rows[1:]:
                row[q] = draw(st.integers(start, start + size - 1))
        start += size
    for q in range(core, n):
        for row in rows:
            row[q] = draw(st.sampled_from([*range(core), *range(q + 1, n)]))
    perm = draw(st.permutations(range(n)))
    return relabelled(Dfa(n, tuple(f"x{j + 1}" for j in range(k)), rows), perm)


def relabelled(dfa: Dfa, perm) -> Dfa:
    """The automaton with each state ``q`` renamed ``perm[q]``."""
    delta = []
    for row in dfa.delta:
        new = [0] * dfa.n
        for q, t in enumerate(row):
            new[perm[q]] = perm[t]
        delta.append(new)
    return Dfa(dfa.n, dfa.letters, delta)
