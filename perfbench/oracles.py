"""Independent reference computations used to check the library's outputs.

Nothing here imports ``idemsync``: automata are plain transition tables
(``rows[j][q]`` is the image of state ``q`` under letter ``j``) and the
text formats are rebuilt from their published layout, so a defect in the
library cannot hide itself by also being present in its checker.
"""

from __future__ import annotations

import heapq


def resets(rows, word) -> bool:
    """True when ``word`` maps the full state set to a single state."""
    states = set(range(len(rows[0])))
    for j in word:
        row = rows[j]
        states = {row[q] for q in states}
    return len(states) == 1


def synchronizes(rows) -> bool:
    """Pair-merging decision, by backward search from the diagonal.

    Uses per-letter inverse lists and a flat byte table of pairs, a
    different representation from the library's forward pair graph.
    """
    n = len(rows[0])
    inverse = []
    for row in rows:
        inv = [[] for _ in range(n)]
        for q, t in enumerate(row):
            inv[t].append(q)
        inverse.append(inv)
    merged = bytearray(n * n)
    queue = []
    for t in range(n):
        merged[t * n + t] = 1
        queue.append(t * n + t)
    found = 0
    while queue:
        u, v = divmod(queue.pop(), n)
        for inv in inverse:
            for p in inv[u]:
                for q in inv[v]:
                    if p == q:
                        continue
                    key = p * n + q if p < q else q * n + p
                    if not merged[key]:
                        merged[key] = 1
                        found += 1
                        queue.append(key)
    return found == n * (n - 1) // 2


def proper(rows) -> bool:
    """More than two letters, synchronizing, and no letter is dispensable."""
    if len(rows) <= 2 or not synchronizes(rows):
        return False
    return all(not synchronizes(rows[:j] + rows[j + 1 :]) for j in range(len(rows)))


def peel_word(rows, sink):
    """The two-idempotent synchronizer's word, by in-degree peeling.

    Each round removes the lowest-indexed non-sink state that no
    remaining state maps to, and emits the first letter that moves it.
    Returns ``None`` when the peeling gets stuck.
    """
    n = len(rows[0])
    indegree = [0] * n
    for row in rows:
        for p, t in enumerate(row):
            if t != p:
                indegree[t] += 1
    free = [q for q in range(n) if indegree[q] == 0 and q != sink]
    heapq.heapify(free)
    word = []
    while free:
        q = heapq.heappop(free)
        word.append(next(j for j, row in enumerate(rows) if row[q] != q))
        for row in rows:
            t = row[q]
            if t != q:
                indegree[t] -= 1
                if indegree[t] == 0 and t != sink:
                    heapq.heappush(free, t)
    return word if len(word) == n - 1 else None


def cerny_rows(n):
    return (
        tuple(0 if i == n - 1 else i for i in range(n)),
        tuple((i + 1) % n for i in range(n)),
    )


def doubled_rows(rows):
    """Transition table of the state-doubling transform of ``rows``."""
    n = len(rows[0])
    out = [tuple(range(n)) + tuple(row) for row in rows]
    primed = tuple(range(n, 2 * n))
    out.append(primed + primed)
    return out


def doubled_names(k):
    return [f"a{j + 1}" for j in range(k)] + ["b"]


def sinks(rows):
    return [q for q in range(len(rows[0])) if all(row[q] == q for row in rows)]


def strongly_connected(rows) -> bool:
    n = len(rows[0])
    forward = [[row[q] for row in rows] for q in range(n)]
    backward = [[] for _ in range(n)]
    for q, targets in enumerate(forward):
        for t in targets:
            backward[t].append(q)
    for graph in (forward, backward):
        seen = {0}
        stack = [0]
        while stack:
            for t in graph[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != n:
            return False
    return True


def idempotent(row) -> bool:
    return all(row[t] == t for t in row)


def parse_saf(text):
    """Parse canonical SAF text (no comments) into ``(names, rows)``."""
    lines = text.split("\n")
    if lines[0] != "SAF 1" or lines[-1] != "":
        raise ValueError("not canonical SAF")
    n, k = map(int, lines[1].split())
    if len(lines) != k + 3:
        raise ValueError(f"expected {k} letter rows")
    names, rows = [], []
    for line in lines[2 : 2 + k]:
        name, *targets = line.split(" ")
        row = tuple(map(int, targets))
        if len(row) != n or not all(0 <= t < n for t in row):
            raise ValueError(f"bad row for letter {name!r}")
        names.append(name)
        rows.append(row)
    return names, rows


def saf_text(names, rows) -> str:
    lines = ["SAF 1", f"{len(rows[0])} {len(rows)}"]
    lines += [name + " " + " ".join(map(str, row)) for name, row in zip(names, rows)]
    return "\n".join(lines) + "\n"


def dot_text(names, rows) -> str:
    n = len(rows[0])
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    lines += [f'  {q} [label="{q}"];' for q in range(n)]
    for q in range(n):
        labels: dict[int, list[str]] = {}
        for name, row in zip(names, rows):
            labels.setdefault(row[q], []).append(name)
        for t in sorted(labels):
            lines.append(f'  {q} -> {t} [label="{",".join(labels[t])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
