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
from typing import Callable, Sequence

from .core import Dfa, UsageError, Word, _check_letters


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
    n = dfa.n
    identity = tuple(range(n))
    primed = tuple(range(n, 2 * n))
    rows = [identity + row for row in dfa.delta]
    rows.append(primed + primed)
    letters = tuple(f"a{j + 1}" for j in range(dfa.k)) + ("b",)
    result = Dfa(2 * n, letters, tuple(rows))
    return HigginsImage(result, n, tuple(range(dfa.k)), dfa.k)


def chi_encode(image: HigginsImage, word: Sequence[int]) -> Word:
    """Encode a base word as a word of the doubled automaton.

    Each base letter ``j`` maps to the two-letter block ``b a_j``, so
    the encoded word is exactly twice as long.  The encoded word acts on
    the doubled automaton the way the original acts on the base: the
    image of the full doubled state set equals the image of the full
    base state set whenever the word is nonempty.
    """
    _check_letters(len(image.a_index), word)
    out = []
    for j in word:
        out.append(image.b_index)
        out.append(image.a_index[j])
    return tuple(out)


def chi_decode(image: HigginsImage, word: Sequence[int]) -> Word | NotInImage:
    """Invert :func:`chi_encode` when possible.

    Returns the unique base word whose encoding is ``word``, or a
    :class:`NotInImage` carrying the position of the first symbol that
    breaks the ``b a_j`` block structure.  A failed decode is a normal
    return, not an error.
    """
    _check_letters(image.result.k, word)
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
    _check_states(n)
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


def gen_random_idempotent(n: int, k: int, seed: int) -> Dfa:
    """Seeded random automaton whose ``k`` letters are all idempotent.

    Each letter is sampled by drawing a nonempty image set uniformly
    among subsets, fixing it pointwise, and sending every other state to
    a uniform member of the image.  Identical arguments always produce
    the identical automaton.
    """

    def draw_row(rng: random.Random) -> tuple[int, ...]:
        choice = rng.choice
        # flags[q] is "1" when bit q of the image set is set; reading
        # all n bits at once keeps the letter linear in n
        flags = format(rng.randrange(1, 1 << n), f"0{n}b")[::-1]
        image = [q for q, flag in enumerate(flags) if flag == "1"]
        return tuple(q if flag == "1" else choice(image) for q, flag in enumerate(flags))

    return _seeded(n, k, seed, draw_row)


def gen_random_dfa(n: int, k: int, seed: int) -> Dfa:
    """Seeded uniform random automaton; used for sampling-based checks."""
    return _seeded(n, k, seed, lambda rng: tuple(rng.randrange(n) for _ in range(n)))


def _check_states(n: int) -> None:
    if n < 1:
        raise UsageError(f"need at least 1 state, got {n}")


def _seeded(n: int, k: int, seed: int, draw_row: Callable[[random.Random], tuple]) -> Dfa:
    """Letters ``x1 .. xk`` on ``n`` states, one row each from ``Random(seed)``."""
    _check_states(n)
    if k < 1:
        raise UsageError(f"need at least 1 letter, got {k}")
    rng = random.Random(seed)
    rows = tuple(draw_row(rng) for _ in range(k))
    return Dfa(n, tuple(f"x{j + 1}" for j in range(k)), rows)
