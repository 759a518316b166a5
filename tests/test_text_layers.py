"""The linear text layers against their earlier implementations.

``gen_random_idempotent``, ``gen_random_dfa``, ``export_dot`` and
``render_automaton`` must give byte for byte what the implementations
they replaced give, kept in ``oracles.py``; ``StateSet`` must agree with
a plain ``set`` on membership, order and errors.
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
    render_automaton,
)
from oracles import (
    reference_export_dot,
    reference_gen_random_dfa,
    reference_gen_random_idempotent,
    reference_render_automaton,
)
from strategies import dfas


class TestRandomIdempotent:
    # n up to 300 crosses many byte boundaries of the image set
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 3), st.integers())
    def test_matches_the_reference(self, n, k, seed):
        assert gen_random_idempotent(n, k, seed) == reference_gen_random_idempotent(
            n, k, seed
        )

    def test_matches_the_reference_at_20000_states(self):
        assert gen_random_idempotent(20000, 2, 11) == reference_gen_random_idempotent(
            20000, 2, 11
        )


class TestRandomDfa:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 3), st.integers())
    def test_matches_the_reference(self, n, k, seed):
        assert gen_random_dfa(n, k, seed) == reference_gen_random_dfa(n, k, seed)


@st.composite
def escaped_letter_dfas(draw) -> Dfa:
    """Small automata whose letter names contain quotes and backslashes."""
    letters = draw(
        st.lists(
            st.text(alphabet='"\\a,', min_size=1, max_size=4),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    n = draw(st.integers(1, 5))
    delta = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in letters
    )
    return Dfa(n, tuple(letters), delta)


class TestTextRendering:
    @settings(max_examples=100, deadline=None)
    @given(dfas(max_n=12, max_k=4))
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

    def test_large_random_automaton(self):
        dfa = gen_random_dfa(3000, 3, 4)
        assert export_dot(dfa) == reference_export_dot(dfa)
        assert render_automaton(dfa) == reference_render_automaton(dfa)


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
        ],
    )
    def test_errors_match_the_plain_check(self, states, n, message):
        with pytest.raises(UsageError) as info:
            StateSet.of(states, n)
        assert str(info.value) == message
