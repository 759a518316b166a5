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
    letters: list[str] = []
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
        letters.append(name)
        table.append(tuple(entries))
    return Dfa(n, tuple(letters), tuple(table))


def render_automaton(dfa: Dfa) -> str:
    """Canonical SAF text for an automaton; stable across runs."""
    lines = ["SAF 1", f"{dfa.n} {dfa.k}"]
    for name, row in zip(dfa.letters, dfa.delta):
        lines.append(name + " " + " ".join(map(str, row)))
    # an empty last line gives the final newline: one join, and no
    # second full copy of the text at the point of peak memory
    lines.append("")
    return "\n".join(lines)
