"""Deterministic DOT export for automata diagrams."""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, groupby, islice, repeat, tee
from typing import Iterator, Sequence

from .core import Dfa

# states per block of lines: each block is joined into one string, so no
# line outlives the block it belongs to
_BLOCK = 4096


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _shapes(delta: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """For each state ``q``, the tuple whose entry ``j`` counts the letters
    that send ``q`` strictly lower than letter ``j`` does.

    Two states have the same shape exactly when their targets share the
    same ties and the same order, which is all the edge layout depends on.
    Each state's targets are sorted once and each letter's target is
    placed among them by bisection, one C-level pass per letter; the
    copies of the sorted targets advance together, so ``tee`` holds few.
    """
    ordered = tee(map(sorted, zip(*delta)), len(delta))
    return zip(*map(map, repeat(bisect_left), ordered, delta))


class _EdgeLines(dict):
    """Tuple of letter indices -> ``str.format`` template of the edge line
    they share: field 0 is the state and field ``j + 1`` the target of
    letter ``j``; each label is quoted once."""

    def __init__(self, letters: Sequence[str]):
        super().__init__()
        self.letters = letters

    def __missing__(self, indices: tuple[int, ...]) -> str:
        label = _quote(",".join(map(self.letters.__getitem__, indices)))
        label = label.replace("{", "{{").replace("}", "}}")
        line = self[indices] = f"  {{0}} -> {{{indices[0] + 1}}} [label={label}];"
        return line


class _EdgeTemplates(dict):
    """Shape -> template of one state's edge lines, built on first use:
    the letters in order of their targets, tied letters on one line in
    letter order (``sorted`` is stable)."""

    def __init__(self, letters: Sequence[str]):
        super().__init__()
        self.lines = _EdgeLines(letters)

    def __missing__(self, shape: tuple[int, ...]) -> str:
        rank = shape.__getitem__
        order = sorted(range(len(shape)), key=rank)
        lines = self.lines
        template = self[shape] = "\n".join([lines[tuple(g)] for _, g in groupby(order, rank)])
        return template


def _node_lines(states: range) -> str:
    """The node lines of ``states`` in one ``%`` format: only state
    numbers, which are digits and need no escaping, are formatted."""
    template = "\n".join(['  %d [label="%d"];'] * len(states))
    return template % tuple(chain.from_iterable(zip(states, states)))


def export_dot(dfa: Dfa) -> str:
    """Render the transition graph as DOT text.

    One node per state, numbered.  Parallel transitions are merged into
    a single edge whose label joins the letter names with commas in
    letter order.  Node and edge order is fixed by state index, so the
    output is bit-identical across runs.

    Peak memory is at most two copies of the text and the lines of one
    block: the lines of each 4,096 states are joined as they are made,
    and the blocks once at the end.
    """
    states = range(dfa.n)
    blocks = [states[lo : lo + _BLOCK] for lo in range(0, dfa.n, _BLOCK)]
    nodes = list(map(_node_lines, blocks))
    templates = map(_EdgeTemplates(dfa.letters).__getitem__, _shapes(dfa.delta))
    edges = map(str.format, templates, states, *dfa.delta)
    edge_blocks = ["\n".join(islice(edges, len(block))) for block in blocks]
    # the closing line carries the final newline: one join, and no
    # second full copy of the text at the point of peak memory
    return "\n".join(
        ["digraph automaton {", "  rankdir=LR;", "  node [shape=circle];", *nodes, *edge_blocks, "}\n"]
    )
