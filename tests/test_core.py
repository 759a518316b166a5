import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    ClosureViolation,
    Congruence,
    CongruenceViolation,
    Dfa,
    StateSet,
    UsageError,
    apply_letter,
    apply_word,
    chi_decode,
    chi_encode,
    find_sinks,
    gen_cerny,
    gen_flipflop,
    gen_ladder,
    gen_random_dfa,
    higgins_transform,
    image_of_set,
    is_idempotent_letter,
    is_idempotent_word,
    is_strongly_connected,
    is_synchronizing,
    letter_rank,
    make_congruence,
    quotient,
    subautomaton,
    verify_reset_word,
    word_from_names,
    word_to_names,
)
from idemsync.core import _terminal_component
from oracles import (
    closure,
    inflate,
    naive_strongly_connected,
    reference_image_of_set,
    reference_is_idempotent_word,
    reference_transition_error,
)
from strategies import dfas, dfas_with_words, unconnected_sink_free_dfas

IDENTITY3 = Dfa(3, ("i",), ((0, 1, 2),))


class _Index(int):
    """An ``int`` subclass, which a transition table refuses like ``bool``."""


class TestDfaValidation:
    def test_normalizes_sequences_to_tuples(self):
        dfa = Dfa(2, ["a"], [[0, 1]])
        assert dfa.letters == ("a",)
        assert dfa.delta == ((0, 1),)

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(UsageError, match="leaves"):
            Dfa(2, ("a",), ((0, 2),))
        with pytest.raises(UsageError):
            Dfa(2, ("a",), ((0, -1),))

    @pytest.mark.parametrize(
        "entry, kind",
        [(1.5, "float"), (1.0, "float"), (True, "bool"), (False, "bool"),
         ("1", "str"), (None, "NoneType"), (_Index(1), "_Index")],
    )
    def test_rejects_entries_that_are_not_ints(self, entry, kind):
        with pytest.raises(UsageError) as info:
            Dfa(2, ("a",), ((0, entry),))
        assert str(info.value) == (
            f"transition 'a': 1 -> {entry!r} has type {kind}, expected int"
        )

    def test_first_bad_entry_is_named_across_kinds(self):
        with pytest.raises(UsageError) as info:
            Dfa(3, ("a", "b"), ((0, 1, 2), (0, 7, True)))
        assert str(info.value) == "transition 'b': 1 -> 7 leaves [0, 3)"
        with pytest.raises(UsageError) as info:
            Dfa(3, ("a", "b"), ((0, 1, 2), (0, 0.5, -1)))
        assert str(info.value).startswith("transition 'b': 1 -> 0.5 has type float")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_message_matches_the_ordered_scan(self, data):
        # two rows, each with two bad entries of any kind, in a valid table
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(2, 4))
        valid = st.integers(0, n - 1)
        bad = (
            st.integers(n, n + 3) | st.integers(-3, -1) | st.floats(0, n - 1)
            | st.booleans() | st.sampled_from(["0", None, _Index(0)])
        )
        delta = [data.draw(st.lists(valid, min_size=n, max_size=n)) for _ in range(k)]
        for j in data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)):
            for q in data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)):
                delta[j][q] = data.draw(bad)
        letters = tuple(f"x{j + 1}" for j in range(k))
        expected = reference_transition_error(n, letters, delta)
        assert expected is not None
        with pytest.raises(UsageError) as info:
            Dfa(n, letters, delta)
        assert str(info.value) == expected

    @settings(max_examples=100, deadline=None)
    @given(dfas(max_n=10, max_k=4))
    def test_valid_tables_pass_the_ordered_scan(self, dfa):
        assert reference_transition_error(dfa.n, dfa.letters, dfa.delta) is None
        assert Dfa(dfa.n, list(dfa.letters), [list(row) for row in dfa.delta]) == dfa

    def test_rejects_duplicate_letters(self):
        with pytest.raises(UsageError, match="duplicate"):
            Dfa(1, ("a", "a"), ((0,), (0,)))

    def test_rejects_bad_letter_names(self):
        with pytest.raises(UsageError):
            Dfa(1, ("",), ((0,),))
        with pytest.raises(UsageError):
            Dfa(1, ("a b",), ((0,),))

    def test_rejects_a_hash_in_a_letter_name(self):
        # SAF reads a '#' as the start of a comment, so no row carries it
        with pytest.raises(UsageError) as err:
            Dfa(2, ("a#", "b"), ((0, 0), (1, 1)))
        assert str(err.value) == "bad letter name 'a#'"

    def test_rejects_empty_alphabet(self):
        with pytest.raises(UsageError):
            Dfa(1, (), ())

    def test_rejects_wrong_row_length(self):
        with pytest.raises(UsageError, match="entries"):
            Dfa(3, ("a",), ((0, 1),))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(UsageError, match="rows"):
            Dfa(2, ("a", "b"), ((0, 1),))

    def test_rejects_nonpositive_state_count(self):
        with pytest.raises(UsageError):
            Dfa(0, ("a",), ())

    def test_letter_index(self):
        dfa = gen_cerny(3)
        assert dfa.letter_index("s2") == 1
        with pytest.raises(UsageError):
            dfa.letter_index("zz")


class TestStateSet:
    def test_constructors_and_queries(self):
        s = StateSet.of([0, 3], 5)
        assert len(s) == 2
        assert 3 in s and 1 not in s and 7 not in s
        assert s.members() == (0, 3)
        assert list(s) == [0, 3]
        assert StateSet.full(3).members() == (0, 1, 2)
        assert len(StateSet.empty(4)) == 0

    def test_rejects_overflow_and_bad_members(self):
        with pytest.raises(UsageError):
            StateSet(1 << 3, 3)
        with pytest.raises(UsageError):
            StateSet(-1, 3)
        with pytest.raises(UsageError):
            StateSet.of([5], 3)

    def test_equality_is_structural(self):
        assert StateSet.of([1, 2], 4) == StateSet(0b110, 4)
        assert StateSet.of([1], 4) != StateSet.of([1], 5)


class TestApply:
    def test_letters_on_cerny(self):
        c4 = gen_cerny(4)
        assert apply_letter(c4, 3, 1) == 0
        assert apply_letter(c4, 1, 0) == 1

    def test_identity_letter_fixes_everything(self):
        for q in range(3):
            assert apply_letter(IDENTITY3, q, 0) == q

    def test_rejects_out_of_range(self):
        c4 = gen_cerny(4)
        with pytest.raises(UsageError):
            apply_letter(c4, 4, 0)
        with pytest.raises(UsageError):
            apply_letter(c4, 0, 2)

    def test_empty_word_fixes_state(self):
        assert apply_word(gen_cerny(4), 2, ()) == 2

    def test_word_on_ladder(self):
        word = word_from_names(gen_ladder(5), ["b", "a", "b", "a"])
        assert apply_word(gen_ladder(5), 0, word) == 4

    def test_word_cycles_on_cerny(self):
        assert apply_word(gen_cerny(3), 0, (1, 1, 1)) == 0

    def test_rejects_bad_letter_in_word(self):
        with pytest.raises(UsageError):
            apply_word(gen_cerny(3), 0, (0, 5))


class TestImageOfSet:
    def test_reset_word_shrinks_cerny3_to_zero(self):
        c3 = gen_cerny(3)
        image = image_of_set(c3, StateSet.full(3), (0, 1, 1, 0))
        assert image == StateSet.of([0], 3)

    def test_empty_set_stays_empty(self):
        assert len(image_of_set(gen_cerny(4), StateSet.empty(4), (0, 1))) == 0

    def test_collapsing_letter_hits_primed_half(self):
        doubled = higgins_transform(gen_cerny(4)).result
        image = image_of_set(doubled, StateSet.full(8), (2,))
        assert image.members() == (4, 5, 6, 7)

    def test_rejects_capacity_mismatch(self):
        with pytest.raises(UsageError, match="capacity"):
            image_of_set(gen_cerny(4), StateSet.full(5), ())

    def test_rejects_bad_letter_on_the_empty_set(self):
        with pytest.raises(UsageError, match="letter index 2"):
            image_of_set(gen_cerny(4), StateSet.empty(4), (0, 2))

    @settings(max_examples=200)
    @given(dfas_with_words(max_n=12, max_k=4), st.data())
    def test_matches_the_bit_walk_reference(self, case, data):
        dfa, word = case
        bits = data.draw(st.integers(0, (1 << dfa.n) - 1))
        s = StateSet(bits, dfa.n)
        assert image_of_set(dfa, s, word) == reference_image_of_set(dfa, s, word)

    @settings(max_examples=60)
    @given(dfas_with_words())
    def test_cardinality_never_increases(self, case):
        dfa, word = case
        sizes = []
        for cut in range(len(word) + 1):
            sizes.append(len(image_of_set(dfa, StateSet.full(dfa.n), word[:cut])))
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestLetterFacts:
    def test_rank_counts_image(self):
        assert letter_rank(gen_cerny(4), 0) == 3
        assert letter_rank(IDENTITY3, 0) == 3

    def test_doubled_letters_have_half_rank(self):
        doubled = higgins_transform(gen_cerny(4)).result
        assert [letter_rank(doubled, j) for j in range(3)] == [4, 4, 4]

    @settings(max_examples=60)
    @given(dfas())
    def test_rank_equals_full_image_size(self, dfa):
        for j in range(dfa.k):
            image = image_of_set(dfa, StateSet.full(dfa.n), (j,))
            assert letter_rank(dfa, j) == len(image)

    def test_idempotent_letters(self):
        doubled = higgins_transform(gen_cerny(3)).result
        assert is_idempotent_letter(doubled, 2)
        assert not is_idempotent_letter(gen_cerny(3), 1)
        assert is_idempotent_letter(IDENTITY3, 0)

    @settings(max_examples=60)
    @given(dfas())
    def test_idempotent_iff_image_pointwise_fixed(self, dfa):
        for j in range(dfa.k):
            row = dfa.delta[j]
            fixed = all(row[t] == t for t in set(row))
            assert is_idempotent_letter(dfa, j) == fixed

    def test_idempotent_words(self):
        assert is_idempotent_word(gen_cerny(3), ())
        assert not is_idempotent_word(gen_cerny(3), (1,))
        # a reset word whose target it fixes is idempotent
        assert is_idempotent_word(gen_flipflop(), (0,))

    @settings(max_examples=200, deadline=None)
    @given(dfas_with_words(max_n=8))
    def test_idempotent_word_matches_reference(self, case):
        dfa, word = case
        assert is_idempotent_word(dfa, word) == reference_is_idempotent_word(dfa, word)


class TestSinksAndConnectivity:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_ladder_has_unique_top_sink(self, n):
        assert find_sinks(gen_ladder(n)).members() == (n - 1,)

    def test_cerny_has_no_sink(self):
        assert len(find_sinks(gen_cerny(4))) == 0

    def test_single_state_is_a_sink(self):
        assert find_sinks(Dfa(1, ("u",), ((0,),))).members() == (0,)

    def test_strong_connectivity_basics(self):
        assert is_strongly_connected(gen_cerny(4))
        assert is_strongly_connected(gen_flipflop())
        assert is_strongly_connected(Dfa(1, ("u",), ((0,),)))
        assert not is_strongly_connected(gen_ladder(5))

    @settings(max_examples=80)
    @given(dfas())
    def test_matches_naive_reachability(self, dfa):
        assert is_strongly_connected(dfa) == naive_strongly_connected(dfa)

    @settings(max_examples=60)
    @given(dfas(min_n=2))
    def test_a_sink_blocks_strong_connectivity(self, dfa):
        if len(find_sinks(dfa)) > 0:
            assert not is_strongly_connected(dfa)


class TestTerminalComponent:
    @staticmethod
    def check_terminal(dfa):
        """The component is a set of distinct states that no letter
        leaves and that is strongly connected; returns its size."""
        component = _terminal_component(dfa.delta)
        assert len(set(component)) == len(component)
        sub = subautomaton(dfa, StateSet.of(component, dfa.n))
        assert is_strongly_connected(sub)
        return len(component)

    @settings(max_examples=200, deadline=None)
    @given(dfas(max_n=24, max_k=4))
    def test_every_state_exactly_when_strongly_connected(self, dfa):
        assert (self.check_terminal(dfa) == dfa.n) == is_strongly_connected(dfa)

    @settings(max_examples=100, deadline=None)
    @given(unconnected_sink_free_dfas())
    def test_leaves_out_a_tail_or_a_second_component(self, dfa):
        assert self.check_terminal(dfa) < dfa.n

    def test_known_components(self):
        assert _terminal_component(gen_ladder(5).delta) == [4]
        assert sorted(_terminal_component(gen_cerny(6).delta)) == list(range(6))
        # state 0 reaches both cycles; the search enters {1, 2} first
        dfa = Dfa(5, ("a", "b"), ((1, 2, 1, 4, 3), (3, 1, 2, 4, 3)))
        assert sorted(_terminal_component(dfa.delta)) == [1, 2]


class TestSubautomaton:
    def test_drop_predecessor_free_state(self):
        sub = subautomaton(gen_ladder(5), StateSet.of([1, 2, 3, 4], 5))
        assert sub == Dfa(4, ("a", "b"), ((1, 1, 3, 3), (0, 2, 2, 3)))

    def test_full_set_is_identity(self):
        c4 = gen_cerny(4)
        assert subautomaton(c4, StateSet.full(4)) == c4

    def test_closure_violation_names_witness(self):
        with pytest.raises(ClosureViolation) as err:
            subautomaton(gen_cerny(3), StateSet.of([0, 1], 3))
        assert err.value.state == 1
        assert err.value.letter_name == "s2"
        assert err.value.target == 2

    def test_rejects_empty_set(self):
        with pytest.raises(UsageError, match="empty"):
            subautomaton(gen_cerny(3), StateSet.empty(3))

    @settings(max_examples=200)
    @given(dfas(max_n=10, max_k=3), st.data())
    def test_first_escape_is_the_witness(self, dfa, data):
        s = StateSet(data.draw(st.integers(1, (1 << dfa.n) - 1)), dfa.n)
        members = s.members()
        escapes = [
            (q, j, row[q])
            for q in members
            for j, row in enumerate(dfa.delta)
            if row[q] not in members
        ]
        if not escapes:
            assert subautomaton(dfa, s).n == len(members)
            return
        with pytest.raises(ClosureViolation) as err:
            subautomaton(dfa, s)
        found = err.value
        assert (found.state, found.letter, found.target) == escapes[0]

    def test_rejects_capacity_mismatch(self):
        with pytest.raises(UsageError, match="capacity"):
            subautomaton(gen_cerny(3), StateSet.full(4))

    def test_restriction_commutes_with_word_application(self):
        for seed in range(25):
            rng = random.Random(seed)
            dfa = gen_random_dfa(7, 2, seed)
            members = sorted(closure(dfa, {rng.randrange(7)}))
            sub = subautomaton(dfa, StateSet.of(members, 7))
            to_sub = {q: i for i, q in enumerate(members)}
            word = tuple(rng.randrange(dfa.k) for _ in range(6))
            for q in members:
                assert apply_word(sub, to_sub[q], word) == to_sub[apply_word(dfa, q, word)]


class TestCongruence:
    def test_identity_partition_quotient_is_same_automaton(self):
        c4 = gen_cerny(4)
        pi = make_congruence(c4, range(4))
        assert quotient(c4, pi) == c4

    def test_quotient_rejects_a_congruence_of_another_automaton(self):
        pi = make_congruence(gen_cerny(3), range(3))
        with pytest.raises(UsageError) as err:
            quotient(gen_cerny(4), pi)
        assert str(err.value) == "congruence covers 3 states, expected 4"

    def test_quotient_rejects_a_congruence_that_does_not_fit(self):
        # the same size, but the classes {0, 1} and {2, 3} are not
        # compatible with the second automaton's letter
        pi = make_congruence(Dfa(4, ("x",), ((1, 0, 3, 2),)), (0, 0, 1, 1))
        with pytest.raises(CongruenceViolation) as err:
            quotient(Dfa(4, ("x",), ((2, 0, 3, 1),)), pi)
        assert (err.value.p, err.value.q, err.value.letter_name) == (0, 1, "x")

    def test_total_partition_quotient_is_one_state(self):
        c4 = gen_cerny(4)
        q = quotient(c4, make_congruence(c4, [0, 0, 0, 0]))
        assert q == Dfa(1, ("s1", "s2"), ((0,), (0,)))

    def test_pairing_on_doubled_cerny_is_rejected(self):
        # pairing a state with its primed copy breaks compatibility as
        # soon as some base letter moves a state
        doubled = higgins_transform(gen_cerny(2)).result
        with pytest.raises(CongruenceViolation) as err:
            make_congruence(doubled, [0, 1, 0, 1])
        assert (err.value.p, err.value.q) == (1, 3)
        assert err.value.letter_name == "a1"

    def test_pairing_accepted_when_base_letters_are_identities(self):
        base = Dfa(2, ("i", "j"), ((0, 1), (0, 1)))
        doubled = higgins_transform(base).result
        pi = make_congruence(doubled, [0, 1, 0, 1])
        assert pi == Congruence((0, 1, 0, 1), 2)
        assert quotient(doubled, pi) == Dfa(
            2, ("a1", "a2", "b"), ((0, 1), (0, 1), (0, 1))
        )

    def test_rejects_noncontiguous_classes(self):
        with pytest.raises(UsageError, match="contiguous"):
            make_congruence(gen_cerny(3), [0, 2, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(UsageError):
            make_congruence(gen_cerny(3), [0, 0])

    def test_block_map_of_inflation_is_a_congruence(self):
        for seed in range(20):
            base = gen_random_dfa(3 + seed % 3, 2, seed)
            inflated, block_of = inflate(base, [1 + (seed + i) % 3 for i in range(base.n)], seed)
            pi = make_congruence(inflated, block_of)
            assert quotient(inflated, pi) == base
            for j in range(inflated.k):
                for q in range(inflated.n):
                    assert (
                        pi.class_of[apply_letter(inflated, q, j)]
                        == apply_letter(base, pi.class_of[q], j)
                    )

    def test_quotient_of_synchronizing_automaton_synchronizes(self):
        kept = 0
        for seed in range(40):
            base = gen_random_dfa(4, 2, seed)
            inflated, block_of = inflate(base, [2, 1, 3, 2], seed)
            if not is_synchronizing(inflated):
                continue
            kept += 1
            assert is_synchronizing(quotient(inflated, make_congruence(inflated, block_of)))
        assert kept > 0


class TestWordNames:
    def test_roundtrip(self):
        c3 = gen_cerny(3)
        assert word_from_names(c3, ["s1", "s2"]) == (0, 1)
        assert word_to_names(c3, (0, 1)) == ("s1", "s2")

    def test_unknown_name_and_index(self):
        with pytest.raises(UsageError):
            word_from_names(gen_cerny(3), ["nope"])
        with pytest.raises(UsageError):
            word_to_names(gen_cerny(3), (4,))

    def test_many_letters_are_looked_up_in_linear_time(self):
        k = 40_000
        dfa = Dfa(1, tuple(f"x{j}" for j in range(k)), ((0,),) * k)
        names = [f"x{j}" for j in reversed(range(k))]
        start = time.perf_counter()
        word = word_from_names(dfa, names)
        assert time.perf_counter() - start < 1
        assert word == tuple(reversed(range(k)))
        # the first unknown name is the one reported, as by letter_index
        with pytest.raises(UsageError) as info:
            word_from_names(dfa, names[:5] + ["nope", "zz"] + names[5:])
        assert type(info.value) is UsageError
        assert str(info.value) == "no letter named 'nope'"


CERNY3 = gen_cerny(3)
CERNY3_IMAGE = higgins_transform(CERNY3)

# (entry point, alphabet size, call with one letter index)
LETTER_TAKERS = [
    ("apply_letter", 2, lambda j: apply_letter(CERNY3, 0, j)),
    ("apply_word", 2, lambda j: apply_word(CERNY3, 0, (0, j))),
    ("image_of_set", 2, lambda j: image_of_set(CERNY3, StateSet.full(3), (0, j))),
    ("letter_rank", 2, lambda j: letter_rank(CERNY3, j)),
    ("is_idempotent_letter", 2, lambda j: is_idempotent_letter(CERNY3, j)),
    ("is_idempotent_word", 2, lambda j: is_idempotent_word(CERNY3, (0, j))),
    ("word_to_names", 2, lambda j: word_to_names(CERNY3, (0, j))),
    ("verify_reset_word", 2, lambda j: verify_reset_word(CERNY3, (0, 1, 1, 0, j))),
    ("chi_encode", 2, lambda j: chi_encode(CERNY3_IMAGE, (0, j))),
    ("chi_decode", 3, lambda j: chi_decode(CERNY3_IMAGE, (2, 0, j))),
]


@pytest.mark.parametrize("bad", ["below", "above"])
@pytest.mark.parametrize(
    "name, k, call", LETTER_TAKERS, ids=[name for name, _, _ in LETTER_TAKERS]
)
def test_out_of_range_letter_message(name, k, call, bad):
    j = -1 if bad == "below" else k
    with pytest.raises(UsageError) as info:
        call(j)
    assert type(info.value) is UsageError
    assert str(info.value) == f"letter index {j} leaves [0, {k})"
