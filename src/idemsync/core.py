"""Complete deterministic automata and their structural operations.

States are the integers ``0 .. n-1`` and letters are indexed ``0 .. k-1``;
a word is a tuple of letter indices applied left to right.  The transition
table is stored letter-major, so ``delta[j]`` is the full selfmap induced
by letter ``j`` and a word application walks one contiguous row per step.

Automata here carry no initial or accepting states: the objects of
interest are the selfmaps that letters and words induce on the state set.
Everything in this module is immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]
"""A finite, possibly empty sequence of letter indices."""


class UsageError(ValueError):
    """An operation was invoked with arguments that violate its contract."""


class ClosureViolation(UsageError):
    """A state set is not closed under the letter actions.

    Carries a witness: ``state`` escapes the set under ``letter``
    (an index), landing on ``target``.
    """

    def __init__(self, state: int, letter: int, letter_name: str, target: int):
        self.state = state
        self.letter = letter
        self.letter_name = letter_name
        self.target = target
        super().__init__(
            f"set not closed: state {state} maps to {target} "
            f"under letter {letter_name!r}"
        )


class CongruenceViolation(UsageError):
    """A partition is not compatible with the letter actions.

    Carries a witness: states ``p`` and ``q`` share a class but their
    images under ``letter`` do not.
    """

    def __init__(self, p: int, q: int, letter: int, letter_name: str):
        self.p = p
        self.q = q
        self.letter = letter
        self.letter_name = letter_name
        super().__init__(
            f"partition not compatible: states {p} and {q} share a class "
            f"but their images under letter {letter_name!r} do not"
        )


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic automaton.

    Attributes
    ----------
    n : int
        Number of states, at least 1.
    letters : tuple of str
        Distinct non-empty letter names without whitespace or ``#``, the
        characters SAF text cannot carry in a name.
    delta : tuple of tuple of int
        Letter-major transition table; ``delta[j][q]`` is the image of
        state ``q`` under letter ``j``.  Every entry is an ``int`` (not a
        ``bool``) in ``[0, n)`` and every row has exactly ``n`` entries.
    """

    n: int
    letters: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "delta", tuple(map(tuple, self.delta)))
        if self.n < 1:
            raise UsageError(f"state count must be positive, got {self.n}")
        if not self.letters:
            raise UsageError("at least one letter is required")
        seen: set[str] = set()
        for name in self.letters:
            if not name or "#" in name or any(map(str.isspace, name)):
                raise UsageError(f"bad letter name {name!r}")
            if name in seen:
                raise UsageError(f"duplicate letter name {name!r}")
            seen.add(name)
        if len(self.delta) != len(self.letters):
            raise UsageError(
                f"expected {len(self.letters)} transition rows, got {len(self.delta)}"
            )
        n = self.n
        for name, row in zip(self.letters, self.delta):
            if len(row) != n:
                raise UsageError(
                    f"row for letter {name!r} has {len(row)} entries, expected {n}"
                )
            # a bare loop: on CPython 3.11 it beats C-level type and
            # min/max passes on short rows and matches them on long ones;
            # the ordered scan runs only to name the first bad entry
            for t in row:
                if type(t) is not int or not 0 <= t < n:
                    break
            else:
                continue
            for q, t in enumerate(row):
                if type(t) is not int:
                    raise UsageError(
                        f"transition {name!r}: {q} -> {t!r} has type "
                        f"{type(t).__name__}, expected int"
                    )
                if not 0 <= t < n:
                    raise UsageError(f"transition {name!r}: {q} -> {t} leaves [0, {n})")

    @property
    def k(self) -> int:
        """Alphabet size."""
        return len(self.letters)

    def letter_index(self, name: str) -> int:
        """Index of the letter called ``name``; raises ``UsageError`` if absent."""
        try:
            return self.letters.index(name)
        except ValueError:
            raise UsageError(f"no letter named {name!r}") from None


@dataclass(frozen=True)
class StateSet:
    """A bit-packed subset of the states of an automaton with ``n`` states.

    Bit ``q`` of ``bits`` is set exactly when state ``q`` is a member.
    Cardinality, membership and iteration are exact; the capacity ``n``
    is carried along so that sets of different automata cannot be mixed
    up silently.
    """

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise UsageError(f"capacity must be nonnegative, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise UsageError(f"bits 0x{self.bits:x} exceed capacity {self.n}")

    @classmethod
    def empty(cls, n: int) -> "StateSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def of(cls, states: Iterable[int], n: int) -> "StateSet":
        # set bits in little-endian bytes, in O(1) each, and convert once
        packed = bytearray((max(n, 0) + 7) // 8)
        for q in states:
            if not 0 <= q < n:
                raise UsageError(f"state {q} leaves [0, {n})")
            packed[q >> 3] |= 1 << (q & 7)
        return cls(int.from_bytes(packed, "little"), n)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, q: int) -> bool:
        return 0 <= q < self.n and self.bits >> q & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # one O(n) pass over the binary digits, lowest bit first
        for q, digit in enumerate(bin(self.bits)[:1:-1]):
            if digit == "1":
                yield q

    def members(self) -> tuple[int, ...]:
        """Members in ascending order."""
        return tuple(self)


@dataclass(frozen=True)
class Congruence:
    """A partition of the state set compatible with every letter action.

    ``class_of[q]`` is the class index of state ``q``; class indices are
    contiguous in ``[0, num_classes)``.  Build through
    :func:`make_congruence`, which checks compatibility.
    """

    class_of: tuple[int, ...]
    num_classes: int


def apply_letter(dfa: Dfa, q: int, j: int) -> int:
    """Image of state ``q`` under letter ``j``."""
    return apply_word(dfa, q, (j,))


def apply_word(dfa: Dfa, q: int, word: Sequence[int]) -> int:
    """Image of state ``q`` under ``word``; the empty word fixes ``q``."""
    if not 0 <= q < dfa.n:
        raise UsageError(f"state {q} leaves [0, {dfa.n})")
    _check_letters(dfa.k, word)
    for j in word:
        q = dfa.delta[j][q]
    return q


def _check_letters(k: int, word: Sequence[int]) -> None:
    """Raise ``UsageError`` at the first letter index outside ``[0, k)``."""
    for j in word:
        if not 0 <= j < k:
            raise UsageError(f"letter index {j} leaves [0, {k})")


def image_of_set(dfa: Dfa, s: StateSet, word: Sequence[int]) -> StateSet:
    """Image of the state set ``s`` under ``word``.

    The cardinality of the image never increases along any prefix of the
    word, since each letter acts as a function on states.
    """
    if s.n != dfa.n:
        raise UsageError(f"set capacity {s.n} does not match state count {dfa.n}")
    _check_letters(dfa.k, word)
    image = set(s)
    for j in word:
        image = set(map(dfa.delta[j].__getitem__, image))
    return StateSet.of(image, dfa.n)


def letter_rank(dfa: Dfa, j: int) -> int:
    """Cardinality of the image of the whole state set under letter ``j``."""
    _check_letters(dfa.k, (j,))
    return len(set(dfa.delta[j]))


def is_idempotent_letter(dfa: Dfa, j: int) -> bool:
    """True when letter ``j`` induces an idempotent selfmap.

    Equivalently, the letter fixes every state of its own image.
    """
    _check_letters(dfa.k, (j,))
    row = dfa.delta[j]
    return all(row[row[q]] == row[q] for q in range(dfa.n))


def is_idempotent_word(dfa: Dfa, word: Sequence[int]) -> bool:
    """True when the selfmap induced by ``word`` equals its own square."""
    _check_letters(dfa.k, word)
    once = list(range(dfa.n))
    for j in word:
        once = list(map(dfa.delta[j].__getitem__, once))
    return list(map(once.__getitem__, once)) == once


def find_sinks(dfa: Dfa) -> StateSet:
    """States fixed by every letter."""
    return StateSet.of(_sink_list(dfa.delta), dfa.n)


def _sink_list(delta: Sequence[Sequence[int]]) -> list[int]:
    """States fixed by every row of ``delta``, ascending, in ``O(k * n)``
    steps and without building a :class:`StateSet`."""
    fixed: Iterable[int] = range(len(delta[0]))
    for row in delta:
        fixed = [q for q in fixed if row[q] == q]
    return list(fixed)


def is_strongly_connected(dfa: Dfa) -> bool:
    """True when every state is reachable from every other state.

    Equivalently, state 0 reaches every state along the transitions and
    along the reversed transitions.
    """
    return _reaches_all(list(zip(*dfa.delta))) and _reaches_all(_predecessors(dfa.delta))


def _predecessors(delta: Sequence[Sequence[int]]) -> list[list[int]]:
    """Entry ``t`` lists, with repeats, every state some row sends to ``t``."""
    inverse: list[list[int]] = [[] for _ in delta[0]]
    for row in delta:
        for q, t in enumerate(row):
            inverse[t].append(q)
    return inverse


def _reaches_all(adjacency: Sequence[Sequence[int]], start: int = 0) -> bool:
    """True when ``start`` reaches every state, ``adjacency[q]`` listing
    the successors of ``q``."""
    seen = [False] * len(adjacency)
    seen[start] = True
    stack = [start]
    count = 1
    while stack:
        for t in adjacency[stack.pop()]:
            if not seen[t]:
                seen[t] = True
                count += 1
                stack.append(t)
    return count == len(adjacency)


def _terminal_component(delta: Sequence[Sequence[int]]) -> list[int]:
    """The states of a strongly connected component that no transition
    of ``delta`` leaves, in discovery order: the first component an
    iterative Tarjan search from state 0 completes.  All ``n`` states
    exactly when the transitions are strongly connected."""
    successors = list(zip(*delta))
    # nothing is completed before the first component, so the search
    # stack of Tarjan's algorithm is the discovery order itself
    order = [0]
    index = [-1] * len(successors)
    index[0] = 0
    low = [0] * len(successors)
    path = [(0, iter(successors[0]))]
    while True:
        q, targets = path[-1]
        for t in targets:
            if index[t] < 0:
                index[t] = low[t] = len(order)
                order.append(t)
                path.append((t, iter(successors[t])))
                break
            if low[t] < low[q]:
                low[q] = low[t]
        else:
            if low[q] == index[q]:
                return order[index[q] :]
            path.pop()
            parent = path[-1][0]
            if low[q] < low[parent]:
                low[parent] = low[q]


def subautomaton(dfa: Dfa, s: StateSet) -> Dfa:
    """Restriction of the automaton to the letter-closed state set ``s``.

    States are re-indexed in ascending order of the members of ``s``;
    letter names are preserved.  Raises :class:`ClosureViolation` with a
    witness transition when some member escapes the set.
    """
    if s.n != dfa.n:
        raise UsageError(f"set capacity {s.n} does not match state count {dfa.n}")
    members = s.members()
    if not members:
        raise UsageError("cannot restrict to the empty state set")
    index = {q: i for i, q in enumerate(members)}
    for q in members:
        for j, row in enumerate(dfa.delta):
            if row[q] not in index:
                raise ClosureViolation(q, j, dfa.letters[j], row[q])
    rows = tuple(tuple(index[row[q]] for q in members) for row in dfa.delta)
    return Dfa(len(members), dfa.letters, rows)


def make_congruence(dfa: Dfa, class_of: Sequence[int]) -> Congruence:
    """Validate a partition of the states as a congruence.

    ``class_of`` must be total on the states and use contiguous class
    indices ``0 .. c-1``.  Compatibility means that states sharing a
    class have images sharing a class, for every letter; the first
    violating triple is reported in a :class:`CongruenceViolation`.
    """
    class_of = tuple(class_of)
    if len(class_of) != dfa.n:
        raise UsageError(
            f"partition covers {len(class_of)} states, expected {dfa.n}"
        )
    num_classes = max(class_of) + 1
    if set(class_of) != set(range(num_classes)):
        raise UsageError("class indices must be contiguous starting at 0")
    for j, row in enumerate(dfa.delta):
        rep: dict[int, tuple[int, int]] = {}
        for q in range(dfa.n):
            c = class_of[q]
            image_class = class_of[row[q]]
            if c in rep:
                p, expected = rep[c]
                if image_class != expected:
                    raise CongruenceViolation(p, q, j, dfa.letters[j])
            else:
                rep[c] = (q, image_class)
    return Congruence(class_of, num_classes)


def quotient(dfa: Dfa, pi: Congruence) -> Dfa:
    """Automaton induced on the classes of the congruence ``pi``.

    Well-defined because :func:`make_congruence` checks ``pi`` against
    ``dfa`` first: any member of a class yields the same image class.
    """
    if len(pi.class_of) != dfa.n:
        raise UsageError(
            f"congruence covers {len(pi.class_of)} states, expected {dfa.n}"
        )
    pi = make_congruence(dfa, pi.class_of)
    rep = [-1] * pi.num_classes
    for q in range(dfa.n - 1, -1, -1):
        rep[pi.class_of[q]] = q
    rows = tuple(
        tuple(pi.class_of[row[rep[c]]] for c in range(pi.num_classes))
        for row in dfa.delta
    )
    return Dfa(pi.num_classes, dfa.letters, rows)


def word_from_names(dfa: Dfa, names: Iterable[str]) -> Word:
    """Translate letter names into a word of letter indices."""
    index = dict(zip(dfa.letters, range(dfa.k)))
    try:
        return tuple(map(index.__getitem__, names))
    except KeyError as missing:
        dfa.letter_index(*missing.args)  # raises the "no letter named" error
        raise


def word_to_names(dfa: Dfa, word: Sequence[int]) -> tuple[str, ...]:
    """Translate a word of letter indices into letter names."""
    _check_letters(dfa.k, word)
    return tuple(map(dfa.letters.__getitem__, word))
