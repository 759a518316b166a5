"""The linear text layers against their earlier implementations.

``gen_random_idempotent``, ``gen_random_dfa``, ``export_dot`` and
``render_automaton`` must give byte for byte what the implementations
they replaced give, kept in ``oracles.py``, and the text that
``transform higgins`` writes from the base rows must be the rendering of
``higgins_transform``; each text layer must hold at most two copies of
its output; ``StateSet`` must agree with a plain ``set`` on membership,
order and errors.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    Dfa,
    StateSet,
    UsageError,
    export_dot,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
    render_automaton,
)
from idemsync.generators import _doubled_letters
from idemsync.saf import _saf_text
from oracles import (
    reference_export_dot,
    reference_gen_random_dfa,
    reference_gen_random_idempotent,
    reference_render_automaton,
)
from strategies import dfas


def _higgins_text(dfa: Dfa) -> str:
    """What ``transform higgins`` writes: the shared SAF writer on the
    description of the doubled letters, with no doubled table."""
    return _saf_text(_doubled_letters(dfa))


def _rechecked(dfa: Dfa) -> Dfa:
    """``dfa`` rebuilt through every check of ``Dfa(...)``, which refuses
    an entry of another type or out of range, a name or a row count."""
    return Dfa(dfa.n, dfa.letters, dfa.delta)


def _assert_generated(gen, reference, n, k, seed):
    """``gen`` matches ``reference``, and its automaton and the doubling of
    it, both built with no entry scan, pass the full one."""
    dfa = gen(n, k, seed)
    assert dfa == reference(n, k, seed) == _rechecked(dfa)
    doubled = higgins_transform(dfa).result
    assert doubled == _rechecked(doubled)


GENERATORS = [
    pytest.param(gen_random_idempotent, reference_gen_random_idempotent, id="idempotent"),
    pytest.param(gen_random_dfa, reference_gen_random_dfa, id="dfa"),
]


@pytest.mark.parametrize("gen, reference", GENERATORS)
class TestSeededGenerators:
    """The C-level draws against the ``randrange`` and ``choice`` calls
    they replaced."""

    # n up to 300 crosses many byte boundaries of the image set
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), k=st.integers(1, 3), seed=st.integers())
    def test_matches_the_reference(self, gen, reference, n, k, seed):
        if seed < 0:  # Random(-s) would repeat Random(s)
            with pytest.raises(UsageError) as info:
                gen(n, k, seed)
            assert str(info.value) == f"seed must be nonnegative, got {seed}"
            return
        _assert_generated(gen, reference, n, k, seed)

    @pytest.mark.parametrize(
        "n, k, seed",
        [(1, k, seed) for k in (1, 2, 3) for seed in (0, 9, 2**31 + 7)]
        + [(2, 2, 2**31), (37, 3, 2**31 + 1), (129, 2, 2**64 + 3)],
    )
    def test_edge_sizes_and_seeds_past_two_to_the_31(self, gen, reference, n, k, seed):
        _assert_generated(gen, reference, n, k, seed)

    def test_matches_the_reference_at_20000_states(self, gen, reference):
        _assert_generated(gen, reference, 20000, 2, 11)


@st.composite
def escaped_letter_dfas(draw, alphabet: str = '"\\a,{}0') -> Dfa:
    """Small automata whose letter names are drawn from ``alphabet``: by
    default quotes, backslashes and the braces of ``str.format`` fields."""
    letters = draw(
        st.lists(
            st.text(alphabet=alphabet, min_size=1, max_size=4),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    n = draw(st.integers(1, 5))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in letters
    )
    return Dfa(n, tuple(letters), delta)


class TestTextRendering:
    # edge templates are cached per shape, so both repeated and unique
    # shapes, and ties among up to eight letters, are drawn
    @settings(max_examples=150, deadline=None)
    @given(dfas(max_n=12, max_k=8))
    def test_dot_matches_the_reference(self, dfa):
        assert export_dot(dfa) == reference_export_dot(dfa)

    @settings(max_examples=50, deadline=None)
    @given(escaped_letter_dfas())
    def test_dot_escaping_matches_the_reference(self, dfa):
        assert export_dot(dfa) == reference_export_dot(dfa)

    @settings(max_examples=100, deadline=None)
    @given(dfas(max_n=12, max_k=4))
    def test_saf_matches_the_reference(self, dfa):
        assert render_automaton(dfa) == reference_render_automaton(dfa)

    # the node lines and the SAF rows are ``%`` formats, which must never
    # reach label text
    @settings(max_examples=50, deadline=None)
    @given(escaped_letter_dfas('"\\a,{}0%'))
    def test_percent_signs_in_names_are_never_formatted(self, dfa):
        assert export_dot(dfa) == reference_export_dot(dfa)
        assert render_automaton(dfa) == reference_render_automaton(dfa)

    # the DOT lines are joined in blocks of 4,096 states
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
    def test_block_boundaries(self, n, k):
        dfa = gen_random_dfa(n, k, n + k)
        assert export_dot(dfa) == reference_export_dot(dfa)
        assert render_automaton(dfa) == reference_render_automaton(dfa)

    def test_doubled_random_idempotent(self):
        base = gen_random_idempotent(20000, 2, 3)
        dfa = higgins_transform(base).result
        assert export_dot(dfa) == reference_export_dot(dfa)
        assert render_automaton(dfa) == reference_render_automaton(dfa)
        assert _higgins_text(base) == render_automaton(dfa)

    @settings(max_examples=100, deadline=None)
    @given(dfas(max_n=12, max_k=4))
    def test_doubled_text_is_written_from_the_base_rows(self, dfa):
        assert _higgins_text(dfa) == render_automaton(higgins_transform(dfa).result)

    def test_large_random_automaton(self):
        # past about seven letters nearly every state has a shape of its own
        for n, k in ((3000, 3), (3000, 5), (3000, 7), (300, 25), (40, 60)):
            dfa = gen_random_dfa(n, k, 4)
            assert export_dot(dfa) == reference_export_dot(dfa)
            assert render_automaton(dfa) == reference_render_automaton(dfa)


class TestTextMemory:
    """Each text layer holds at most two copies of its output: the pieces
    and their join, with no string per state or line beside them."""

    def test_saf_of_the_doubled_automaton(self, peak_bytes):
        # the benchmark's transform output: 200,000 states, three letters
        dfa = higgins_transform(gen_random_idempotent(100000, 2, 7)).result
        text = render_automaton(dfa)
        assert peak_bytes(lambda: render_automaton(dfa)) <= 2 * len(text) + (1 << 20)

    def test_doubled_saf_from_the_base_rows(self, peak_bytes):
        # what the benchmark's transform writes, with no doubled table
        dfa = gen_random_idempotent(100000, 2, 7)
        text = _higgins_text(dfa)
        assert peak_bytes(lambda: _higgins_text(dfa)) <= 2 * len(text) + (1 << 20)

    def test_dot_of_the_random_idempotent_input(self, peak_bytes):
        dfa = gen_random_idempotent(100000, 2, 7)
        text = export_dot(dfa)
        assert peak_bytes(lambda: export_dot(dfa)) <= 2 * len(text) + (1 << 20)


def _plain_bits(states) -> int:
    return sum(1 << q for q in set(states))


class TestStateSet:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, max(n - 1, 0))))
    ))
    def test_small_sets_match_a_plain_set(self, case):
        n, states = case
        states = [q for q in states if q < n]
        s = StateSet.of(states, n)
        assert s.bits == _plain_bits(states)
        assert s.members() == tuple(sorted(set(states)))
        assert len(s) == len(set(states))

    def test_random_subsets_up_to_5000_states(self):
        rng = random.Random(5)
        for n in (1, 7, 8, 9, 63, 64, 65, 1000, 4999, 5000):
            for density in (0.0, 0.01, 0.5, 1.0):
                states = [q for q in range(n) if rng.random() < density]
                rng.shuffle(states)
                states += states[: len(states) // 3]
                s = StateSet.of(states, n)
                assert s.bits == _plain_bits(states)
                assert s.members() == tuple(sorted(set(states)))
                assert list(s) == sorted(set(states))
                assert all(q in s for q in states)

    @pytest.mark.parametrize(
        "states, n, message",
        [
            ([0, 5, 2], 5, "state 5 leaves [0, 5)"),
            ([1, -1, 9], 5, "state -1 leaves [0, 5)"),
            ([4999, 5000], 5000, "state 5000 leaves [0, 5000)"),
            ([0], 0, "state 0 leaves [0, 0)"),
            ([0], -9, "state 0 leaves [0, -9)"),
            ([], -9, "capacity must be nonnegative, got -9"),
            ([2**70, 5, "x"], 2**36, f"state {2**70} leaves [0, {2**36})"),
        ],
    )
    def test_errors_match_the_plain_check(self, states, n, message):
        with pytest.raises(UsageError) as info:
            StateSet.of(states, n)
        assert str(info.value) == message
