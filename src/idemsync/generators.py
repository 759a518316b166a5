"""Constructors for the automaton families shipped with the library.

The centerpiece is :func:`higgins_transform`, which doubles the state set
of any automaton and yields one with all-idempotent letters of half rank
while exactly doubling the reset threshold.  The other generators build
the classic extremal families used by the verification harness and the
test suite.

State numbering is 0-based throughout; where a family is traditionally
drawn with states ``1 .. n``, state ``i`` of the drawing is index
``i - 1`` here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .core import Dfa, UsageError, Word, _check_int, _check_letters


@dataclass(frozen=True)
class NotInImage:
    """Result of decoding a word that does not factor into encoder blocks.

    ``position`` is the index of the first symbol at which the block
    structure fails; for a word that ends in the middle of a block it is
    the length of the word.
    """

    position: int


@dataclass(frozen=True)
class HigginsImage:
    """A doubled automaton together with its letter bookkeeping.

    ``result`` has ``2 * base_n`` states: indices ``0 .. base_n-1`` are
    the original states and ``base_n + i`` is the primed copy of ``i``.
    ``a_index[j]`` is the letter of ``result`` that simulates base letter
    ``j``, and ``b_index`` is the collapsing letter that sends every
    state to its primed copy.
    """

    result: Dfa
    base_n: int
    a_index: tuple[int, ...]
    b_index: int


def higgins_transform(dfa: Dfa) -> HigginsImage:
    """Double the state set, making every letter idempotent of half rank.

    Each base letter ``j`` becomes a letter ``a{j+1}`` that fixes all
    original states and maps the primed copy of ``i`` to the base image
    of ``i`` under ``j``.  One extra letter ``b`` sends both ``i`` and
    its primed copy to the primed copy.  Every letter of the result is
    idempotent with rank equal to the base state count, and the result
    synchronizes exactly when the base does, with twice the threshold.
    """
    names, originals, primeds = zip(*_doubled_letters(dfa, tuples=True))
    rows = tuple(map(tuple.__add__, originals, primeds))
    # rows of a checked automaton, extended by entries below 2n
    result = Dfa._from_checked(2 * dfa.n, names, rows)
    return HigginsImage(result, dfa.n, tuple(range(dfa.k)), dfa.k)


def _doubled_letters(dfa: Dfa, tuples: bool = False) -> list[tuple[str, Sequence, Sequence]]:
    """The doubled letters as ``(name, original half, primed half)``, the
    halves being the targets of states ``0 .. n-1`` and ``n .. 2n-1``:
    ``a{j+1}`` is the identity then base row ``j``, and ``b`` the primed
    states twice.  Those two are made once and shared, as tuples when
    ``tuples``, else as ranges, which hold no int per new state.
    """
    identity, primed = range(dfa.n), range(dfa.n, 2 * dfa.n)
    if tuples:
        identity, primed = tuple(identity), tuple(primed)
    letters = [(f"a{j + 1}", identity, row) for j, row in enumerate(dfa.delta)]
    return letters + [("b", primed, primed)]


def chi_encode(image: HigginsImage, word: Iterable[int]) -> Word:
    """Encode a base word as a word of the doubled automaton.

    Each base letter ``j`` maps to the two-letter block ``b a_j``, so
    the encoded word is exactly twice as long.  The encoded word acts on
    the doubled automaton the way the original acts on the base: the
    image of the full doubled state set equals the image of the full
    base state set whenever the word is nonempty.
    """
    out = []
    for j in _check_letters(len(image.a_index), word):
        out.append(image.b_index)
        out.append(image.a_index[j])
    return tuple(out)


def chi_decode(image: HigginsImage, word: Iterable[int]) -> Word | NotInImage:
    """Invert :func:`chi_encode` when possible.

    Returns the unique base word whose encoding is ``word``, or a
    :class:`NotInImage` carrying the position of the first symbol that
    breaks the ``b a_j`` block structure.  A failed decode is a normal
    return, not an error.
    """
    word = _check_letters(image.result.k, word)
    base_of = {a: j for j, a in enumerate(image.a_index)}
    out = []
    i = 0
    while i < len(word):
        if word[i] != image.b_index:
            return NotInImage(i)
        if i + 1 >= len(word):
            return NotInImage(len(word))
        j = base_of.get(word[i + 1])
        if j is None:
            return NotInImage(i + 1)
        out.append(j)
        i += 2
    return tuple(out)


def gen_cerny(n: int) -> Dfa:
    """The classic binary family with reset threshold ``(n - 1) ** 2``.

    Letter ``s1`` fixes every state except the last, which it sends to
    state 0; letter ``s2`` is the cyclic shift.  No synchronizing
    automaton with a larger threshold for its state count is known.
    """
    _check_int("state count", n)
    if n < 2:
        raise UsageError(f"need at least 2 states, got {n}")
    s1 = tuple(0 if i == n - 1 else i for i in range(n))
    s2 = tuple((i + 1) % n for i in range(n))
    return Dfa(n, ("s1", "s2"), (s1, s2))


def gen_ladder(n: int) -> Dfa:
    """Two idempotent letters advancing states by parity; unique sink at the top.

    Letter ``a`` moves odd states one step up, letter ``b`` moves even
    states one step up, and both fix the last state, which is the unique
    sink.  The reset threshold is exactly ``n - 1``, which is as large
    as any synchronizing automaton with two idempotent letters can reach.
    """
    _check_count("state", n)
    a = tuple(i + 1 if i % 2 == 1 and i < n - 1 else i for i in range(n))
    b = tuple(i + 1 if i % 2 == 0 and i < n - 1 else i for i in range(n))
    return Dfa(n, ("a", "b"), (a, b))


def gen_gusev_like(n: int) -> Dfa:
    """Ladder with the sink's ``b``-transition redirected to state 0.

    Defined for odd ``n >= 3``.  At ``n = 7`` this is the known binary
    automaton with one idempotent letter, one near-idempotent letter and
    reset threshold ``(n**2 - 3*n + 4) / 2 = 16``.  For other odd sizes
    the construction is a hypothesis: the harness reports the measured
    threshold against that formula without asserting it.
    """
    _check_int("state count", n)
    if n < 3 or n % 2 == 0:
        raise UsageError(f"need an odd state count of at least 3, got {n}")
    ladder = gen_ladder(n)
    b = list(ladder.delta[1])
    b[n - 1] = 0
    return Dfa(n, ladder.letters, (ladder.delta[0], tuple(b)))


def gen_flipflop() -> Dfa:
    """The two-state automaton whose letters are the two constant maps.

    Every word of length 1 is a reset word; this is the only strongly
    connected synchronizing automaton with two idempotent letters.
    """
    return Dfa(2, ("a", "b"), ((0, 0), (1, 1)))


# the digits of a binary numeral as the byte values 0 and 1, for compress
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def gen_random_idempotent(n: int, k: int, seed: int) -> Dfa:
    """Seeded random automaton whose ``k`` letters are all idempotent.

    Each letter is sampled by drawing a nonempty image set uniformly
    among subsets, fixing it pointwise, and sending every other state to
    a uniform member of the image.  Identical arguments always produce
    the identical automaton.
    """

    def draw_row(rng: random.Random) -> tuple[int, ...]:
        # flags[q] is "1" when bit q of the image set is set; reading
        # all n bits at once keeps the letter linear in n
        flags = format(rng.randrange(1, 1 << n), f"0{n}b")[::-1]
        image = list(compress(range(n), flags.encode().translate(_BIT_VALUES)))
        # state q takes the next fixed point, which is q itself, or the next
        # draw of a member, which is what rng.choice(image) would return
        picks = map(image.__getitem__, _draws(rng, len(image)))
        sources = {"1": iter(image), "0": picks}
        return tuple(map(next, map(sources.__getitem__, flags)))

    return _seeded(n, k, seed, draw_row)


def gen_random_dfa(n: int, k: int, seed: int) -> Dfa:
    """Seeded uniform random automaton; used for sampling-based checks."""
    return _seeded(n, k, seed, lambda rng: tuple(islice(_draws(rng, n), n)))


def _draws(rng: random.Random, m: int) -> Iterator[int]:
    """Endless uniform draws from ``range(m)``, ``m >= 1``, made in C.

    Each draw makes exactly the ``getrandbits`` calls that
    ``rng.randrange(m)`` and ``rng.choice`` of an ``m``-item sequence make
    on CPython (``Random._randbelow_with_getrandbits``): ``m.bit_length()``
    bits at a time, until a value below ``m`` comes up.
    """
    return filter(m.__gt__, map(rng.getrandbits, repeat(m.bit_length())))


def _check_count(unit: str, n: int) -> None:
    _check_int(f"{unit} count", n)
    if n < 1:
        raise UsageError(f"need at least 1 {unit}, got {n}")


def _seeded(n: int, k: int, seed: int, draw_row: Callable[[random.Random], tuple]) -> Dfa:
    """Letters ``x1 .. xk`` on ``n`` states, one row each from ``Random(seed)``."""
    _check_count("state", n)
    _check_count("letter", k)
    _check_int("seed", seed)
    if seed < 0:  # Random seeds from abs(seed), so -5 would repeat 5
        raise UsageError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(seed)
    rows = tuple(draw_row(rng) for _ in range(k))
    # every row is drawn in range: n exact ints below n
    return Dfa._from_checked(n, tuple(f"x{j + 1}" for j in range(k)), rows)
