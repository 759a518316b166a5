"""Deterministic DOT export for automata diagrams."""

from __future__ import annotations

from .core import Dfa


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(dfa: Dfa) -> str:
    """Render the transition graph as DOT text.

    One node per state, numbered.  Parallel transitions are merged into
    a single edge whose label joins the letter names with commas in
    letter order.  Node and edge order is fixed by state index, so the
    output is bit-identical across runs.
    """
    lines = ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];"]
    # state numbers are digits, which need no escaping
    lines.extend(f'  {q} [label="{q}"];' for q in range(dfa.n))
    # quoted edge label for each tuple of letter indices, built once
    labels: dict[tuple[int, ...], str] = {}
    for q, column in enumerate(zip(*dfa.delta)):
        by_target: dict[int, list[int]] = {}
        for j, target in enumerate(column):
            by_target.setdefault(target, []).append(j)
        for target, indices in sorted(by_target.items()):
            key = tuple(indices)
            label = labels.get(key)
            if label is None:
                label = labels[key] = _quote(",".join(dfa.letters[j] for j in key))
            lines.append(f"  {q} -> {target} [label={label}];")
    # the closing line carries the final newline: one join, and no
    # second full copy of the text at the point of peak memory
    lines.append("}\n")
    return "\n".join(lines)
