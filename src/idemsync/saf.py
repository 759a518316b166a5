"""The SAF v1 text format for automata.

Line-oriented UTF-8; ``#`` starts a comment that runs to the end of the
line, and blank lines are ignored.  The significant lines are::

    SAF 1
    <n> <k>
    <letter-name> t_0 t_1 ... t_{n-1}     (one line per letter)

Targets are 0-based state indices.  Rendering is canonical and
bit-exact: parsing a rendered automaton reproduces it, and rendering a
parsed file yields its canonical form.
"""

from __future__ import annotations

import json
from typing import Sequence

from .core import Dfa, UsageError


class ParseError(UsageError):
    """Malformed SAF input; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def parse_automaton(text: str) -> Dfa:
    """Parse SAF text into a validated automaton."""
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
        name, *rest = row.split(None, 1)
        if name in letters:
            raise ParseError(lineno, f"duplicate letter name {name!r}")
        letters[name] = None
        table.append(_state_indices(lineno, name, rest[0] if rest else "", n))
    # every Dfa rule is checked above: n and k are positive ints, a split
    # name is nonempty with no whitespace and no "#" (comments are cut),
    # names are distinct, and each row holds n ints in [0, n)
    return Dfa._from_checked(n, tuple(letters), tuple(table))


def _state_indices(lineno: int, name: str, text: str, n: int) -> tuple[int, ...]:
    """The targets of letter ``name``, the rest of its row, as integers in
    ``[0, n)``.

    An ASCII row without commas is decoded in one C-level pass by the JSON
    decoder, with spaces read as commas, and taken when it gives ``n``
    values, all of type ``int`` and in range: the JSON decoder reads a
    signed digit run as ``int`` does and refuses a leading zero, and each
    other spelling it reads gives a value of another type.  Any other row
    takes the token-by-token scan, which names the first fault.
    """
    if text.isascii() and "," not in text:  # a comma would split a token
        try:
            row = json.loads("[" + text.replace(" ", ",") + "]")
        # a leading zero, two spaces in a row, too many digits or brackets
        except (ValueError, RecursionError):
            pass
        else:
            if len(row) == n and set(map(type, row)) == {int} and min(row) >= 0 and max(row) < n:
                return tuple(row)
    targets = text.split()
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
    return tuple(entries)


def render_automaton(dfa: Dfa) -> str:
    """Canonical SAF text for an automaton; stable across runs."""
    return _saf_text(list(zip(dfa.letters, dfa.delta)))


def _saf_text(letters: Sequence[tuple]) -> str:
    """The SAF text of the letters ``(name, *parts)``, whose parts joined
    are the row and give the state count.  Each distinct part object is
    formatted once, as a tuple, and a name is joined on, never formatted;
    the pieces and their one join are at most two copies of the text.
    """
    # entries are exact ints (a Dfa guarantee), which %d writes as str does
    distinct = {id(part): part for _, *parts in letters for part in parts}
    text = {key: " %d" * len(part) % tuple(part) for key, part in distinct.items()}
    pieces = [f"SAF 1\n{sum(map(len, letters[0][1:]))} {len(letters)}\n"]
    for name, *parts in letters:
        pieces += [name, *map(text.__getitem__, map(id, parts)), "\n"]
    return "".join(pieces)
