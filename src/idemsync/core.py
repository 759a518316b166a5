"""Complete deterministic automata and their structural operations.

States are the integers ``0 .. n-1`` and letters are indexed ``0 .. k-1``;
a word is a finite iterable of letter indices, read once and applied left
to right.  The transition table is stored letter-major, so ``delta[j]`` is
the full selfmap induced by letter ``j`` and a word application walks one
contiguous row per step.

Automata here carry no initial or accepting states: the objects of
interest are the selfmaps that letters and words induce on the state set.
Everything in this module is immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
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
        Number of states, an ``int`` (not a ``bool``), at least 1.
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
        _check_int("state count", self.n)
        if self.n < 1:
            raise UsageError(f"state count must be positive, got {self.n}")
        if not self.letters:
            raise UsageError("at least one letter is required")
        seen: set[str] = set()
        for name in self.letters:
            _check_str("letter name", name)
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
                    for q, entry in enumerate(row):
                        _check_int(f"transition {name!r}: {q} ->", entry, n)

    @classmethod
    def _from_checked(
        cls, n: int, letters: tuple[str, ...], delta: tuple[tuple[int, ...], ...]
    ) -> "Dfa":
        """An automaton from fields its caller has already checked against
        every invariant above, as tuples, with no second scan of the entries.

        Only the SAF parser, the doubling transform and the seeded
        generators call it, where their own checks or construction cover
        every rule; ``Dfa(...)`` checks everything.
        """
        dfa = object.__new__(cls)
        object.__setattr__(dfa, "n", n)
        object.__setattr__(dfa, "letters", letters)
        object.__setattr__(dfa, "delta", delta)
        return dfa

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
        _check_int("bits", self.bits)
        _check_int("capacity", self.n)
        if self.n < 0:
            raise UsageError(f"capacity must be nonnegative, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise UsageError(f"bits 0x{self.bits:x} exceed capacity {self.n}")

    @classmethod
    def empty(cls, n: int) -> "StateSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "StateSet":
        _check_int("capacity", n)
        return cls((1 << max(n, 0)) - 1, n)

    @classmethod
    def of(cls, states: Iterable[int], n: int) -> "StateSet":
        _check_int("capacity", n)
        states = tuple(states)  # read once, checked, then set
        for q in states:
            if type(q) is not int or not 0 <= q < n:
                _check_int("state", q, n)
        # set bits in little-endian bytes, in O(1) each, and convert once;
        # the bytes reach the largest member, whatever the capacity
        packed = bytearray(max(states, default=-1) // 8 + 1)
        for q in states:
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


def apply_word(dfa: Dfa, q: int, word: Iterable[int]) -> int:
    """Image of state ``q`` under ``word``; the empty word fixes ``q``."""
    _check_int("state", q, dfa.n)
    for j in _check_letters(dfa.k, word):
        q = dfa.delta[j][q]
    return q


def _check_letters(k: int, word: Iterable[int]) -> Word:
    """``word`` read once, as a tuple; raise ``UsageError`` if it is not
    iterable or at the first letter index that is not an ``int`` or lies
    outside ``[0, k)``."""
    word = _read_once("word", word, "letter indices")
    for j in word:
        if type(j) is not int or not 0 <= j < k:
            _check_int("letter index", j, k)
    return word


def _read_once(what: str, items: object, kind: str) -> tuple:
    """The items of ``items`` in one tuple, read once, so a one-shot
    iterator is never walked twice; ``UsageError`` names a value that is
    not iterable."""
    try:
        it = iter(items)
    except TypeError:
        raise UsageError(
            f"{what} {items!r} has type {type(items).__name__}, expected an iterable of {kind}"
        ) from None
    return tuple(it)


def _check_int(what: str, value: object, hi: int | None = None, *, optional: bool = False) -> None:
    """Raise ``UsageError`` unless ``value`` is exactly an ``int``, not a ``bool``
    or other subclass (or is ``None`` when ``optional``), in ``[0, hi)`` if ``hi`` is given."""
    if type(value) is not int and not (optional and value is None):
        raise UsageError(
            f"{what} {value!r} has type {type(value).__name__}, expected int" + " or None" * optional
        )
    if hi is not None and not 0 <= value < hi:
        raise UsageError(f"{what} {value} leaves [0, {hi})")


def _check_str(what: str, value: object) -> None:
    """Raise ``UsageError`` unless ``value`` is a ``str``."""
    if not isinstance(value, str):
        raise UsageError(f"{what} {value!r} has type {type(value).__name__}, expected str")


def image_of_set(dfa: Dfa, s: StateSet, word: Iterable[int]) -> StateSet:
    """Image of the state set ``s`` under ``word``.

    The cardinality of the image never increases along any prefix of the
    word, since each letter acts as a function on states.
    """
    if s.n != dfa.n:
        raise UsageError(f"set capacity {s.n} does not match state count {dfa.n}")
    word = _check_letters(dfa.k, word)
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
    return is_idempotent_word(dfa, (j,))


def is_idempotent_word(dfa: Dfa, word: Iterable[int]) -> bool:
    """True when the selfmap induced by ``word`` equals its own square."""
    word = _check_letters(dfa.k, word)
    if not word:
        return True
    # composed from the first letter's row and compared pointwise, so a
    # letter builds no n-entry sequence (building one tuple per call
    # raised the peak RSS of repeated harness passes by about 1 MB)
    once = dfa.delta[word[0]]
    for j in word[1:]:
        once = list(map(dfa.delta[j].__getitem__, once))
    return all(map(eq, map(once.__getitem__, once), once))


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
    return len(_reached(adjacency, start, [False] * len(adjacency))) == len(adjacency)


def _reached(adjacency: Sequence[Sequence[int]], start: int, seen: list[bool]) -> list[int]:
    """Flag and list, in discovery order, the unflagged states ``start`` reaches."""
    seen[start] = True
    found = [start]
    for q in found:  # the list grows as it is walked
        for t in adjacency[q]:
            if not seen[t]:
                seen[t] = True
                found.append(t)
    return found


def _terminal_component(
    delta: Sequence[Sequence[int]], predecessors: Sequence[Sequence[int]]
) -> list[int]:
    """The states, in discovery order, of a strongly connected component
    that no transition of ``delta`` leaves: all ``n`` exactly when the
    transitions are strongly connected.  ``predecessors`` is
    ``_predecessors(delta)``.

    Backward searches start from each state not yet seen, highest first,
    and the component is what the last root ``c`` reaches forward.  No
    earlier search found a state that ``c`` reaches, or it would have
    found ``c``; so ``c``'s own search found it, and it reaches ``c``.
    """
    seen = [False] * len(predecessors)
    for root in range(len(predecessors) - 1, -1, -1):
        if not seen[root]:
            _reached(predecessors, root, seen)
            last = root
    return _reached(list(zip(*delta)), last, [False] * len(predecessors))


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
    indices ``0 .. c-1``, each an ``int`` (not a ``bool``).
    Compatibility means that states sharing a class have images sharing
    a class, for every letter; the first violating triple is reported in
    a :class:`CongruenceViolation`.
    """
    class_of = tuple(class_of)
    if len(class_of) != dfa.n:
        raise UsageError(
            f"partition covers {len(class_of)} states, expected {dfa.n}"
        )
    for c in class_of:
        _check_int("class index", c)
    num_classes = max(class_of) + 1
    # contiguous from 0, checked without building range(num_classes)
    if min(class_of) != 0 or len(set(class_of)) != num_classes:
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
    """Translate letter names into a word of letter indices; ``UsageError``
    names the first item that is not a ``str`` or not a letter."""
    names = _read_once("word", names, "letter names")
    index = dict(zip(dfa.letters, range(dfa.k)))
    try:
        return tuple(map(index.__getitem__, names))
    except (KeyError, TypeError):  # an unknown or an unhashable name
        for name in names:
            _check_str("letter name", name)
            if name not in index:
                dfa.letter_index(name)  # raises the "no letter named" error
        raise


def word_to_names(dfa: Dfa, word: Iterable[int]) -> tuple[str, ...]:
    """Translate a word of letter indices into letter names."""
    return tuple(map(dfa.letters.__getitem__, _check_letters(dfa.k, word)))
