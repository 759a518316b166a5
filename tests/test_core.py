import inspect
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idemsync
from idemsync import (
    ClosureViolation,
    Congruence,
    CongruenceViolation,
    Dfa,
    SearchBudget,
    StateSet,
    UsageError,
    analyze_automaton,
    apply_letter,
    apply_word,
    check_corollary3,
    chi_decode,
    chi_encode,
    find_sinks,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
    image_of_set,
    is_idempotent_letter,
    is_idempotent_word,
    is_strongly_connected,
    is_synchronizing,
    letter_rank,
    make_congruence,
    quotient,
    reset_threshold,
    subautomaton,
    verify_reset_word,
    word_from_names,
    word_to_names,
)
from idemsync.core import _predecessors, _terminal_component
from oracles import (
    closure,
    inflate,
    naive_strongly_connected,
    reference_image_of_set,
    reference_is_idempotent_word,
    reference_transition_error,
)
from strategies import dfas, dfas_with_words, relabelled, unconnected_sink_free_dfas

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

    @pytest.mark.parametrize(
        "n, kind", [(True, "bool"), (2.0, "float"), (_Index(2), "_Index")]
    )
    def test_rejects_a_state_count_that_is_not_an_int(self, n, kind):
        # SAF could not read back a 'True' header, and a float count
        # broke render_automaton with a TypeError
        with pytest.raises(UsageError) as info:
            Dfa(n, ("a",), ((0, 0),))
        assert str(info.value) == f"state count {n!r} has type {kind}, expected int"

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
        component = _terminal_component(dfa.delta, _predecessors(dfa.delta))
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

    @settings(max_examples=200, deadline=None)
    @given(dfas(max_n=12, max_k=3) | unconnected_sink_free_dfas(), st.data())
    def test_any_numbering_of_the_states_gives_one(self, dfa, data):
        # the forest takes its roots in index order, so renaming the
        # states changes which terminal component it returns
        renamed = relabelled(dfa, data.draw(st.permutations(range(dfa.n))))
        self.check_terminal(renamed)
        assert is_synchronizing(renamed) == is_synchronizing(dfa)

    def test_known_components(self):
        assert _terminal_component(
            gen_ladder(5).delta, _predecessors(gen_ladder(5).delta)
        ) == [4]
        assert sorted(
            _terminal_component(gen_cerny(6).delta, _predecessors(gen_cerny(6).delta))
        ) == list(range(6))
        # state 0 reaches both cycles; the last search root is state 2
        dfa = Dfa(5, ("a", "b"), ((1, 2, 1, 4, 3), (3, 1, 2, 4, 3)))
        assert sorted(_terminal_component(dfa.delta, _predecessors(dfa.delta))) == [1, 2]


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

    @pytest.mark.parametrize(
        "class_of, kind",
        [((0.0, 1.0), "float"), (("a", "b"), "str"), ((True, False), "bool")],
    )
    def test_rejects_class_indices_that_are_not_ints(self, class_of, kind):
        with pytest.raises(UsageError) as info:
            make_congruence(Dfa(2, ("a",), ((0, 1),)), class_of)
        assert str(info.value) == (
            f"class index {class_of[0]!r} has type {kind}, expected int"
        )

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

    def test_a_name_that_is_not_a_string_is_refused_with_its_type(self):
        # an unhashable name used to raise a bare TypeError from the lookup
        with pytest.raises(UsageError) as info:
            word_from_names(gen_cerny(3), [["s1"]])
        assert type(info.value) is UsageError
        assert str(info.value) == "letter name ['s1'] has type list, expected str"
        # the first bad item is the one reported, whatever its kind
        with pytest.raises(UsageError) as info:
            word_from_names(gen_cerny(3), ["s1", 2, "nope", ["s1"]])
        assert str(info.value) == "letter name 2 has type int, expected str"


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


@pytest.mark.parametrize("bad", ["below", "above", "huge"])
@pytest.mark.parametrize(
    "name, k, call", LETTER_TAKERS, ids=[name for name, _, _ in LETTER_TAKERS]
)
def test_out_of_range_letter_message(name, k, call, bad):
    j = {"below": -1, "above": k, "huge": 2**70}[bad]
    with pytest.raises(UsageError) as info:
        call(j)
    assert type(info.value) is UsageError
    assert str(info.value) == f"letter index {j} leaves [0, {k})"


@pytest.mark.parametrize(
    "j", [True, 1.0, "1", None, _Index(1)], ids=["bool", "float", "str", "none", "subclass"]
)
@pytest.mark.parametrize(
    "name, k, call", LETTER_TAKERS, ids=[name for name, _, _ in LETTER_TAKERS]
)
def test_letter_index_that_is_not_an_int_is_refused(name, k, call, j):
    with pytest.raises(UsageError) as info:
        call(j)
    assert type(info.value) is UsageError
    assert str(info.value) == f"letter index {j!r} has type {type(j).__name__}, expected int"


def test_letter_checks_report_the_first_bad_entry():
    with pytest.raises(UsageError) as info:
        verify_reset_word(CERNY3, (True, False, True))
    assert str(info.value) == "letter index True has type bool, expected int"
    with pytest.raises(UsageError) as info:
        word_to_names(CERNY3, (0, 5, 1.0))
    assert str(info.value) == "letter index 5 leaves [0, 2)"
    with pytest.raises(UsageError) as info:
        apply_word(CERNY3, 0, (0, 1.0, 5))
    assert str(info.value) == "letter index 1.0 has type float, expected int"


CERNY4 = gen_cerny(4)
CERNY4_IMAGE = higgins_transform(CERNY4)

# (entry point, call with one word, a word it answers for)
WORD_TAKERS = [
    ("apply_word", lambda w: apply_word(CERNY4, 3, w), (0, 1)),
    ("verify_reset_word", lambda w: verify_reset_word(CERNY4, w), reset_threshold(CERNY4).witness),
    ("image_of_set", lambda w: image_of_set(CERNY4, StateSet.full(4), w), (0,)),
    ("is_idempotent_word", lambda w: is_idempotent_word(CERNY4, w), (1,)),
    ("word_to_names", lambda w: word_to_names(CERNY4, w), (0, 1)),
    ("word_from_names", lambda w: word_from_names(CERNY4, w), ("s1", "s2")),
    ("chi_encode", lambda w: chi_encode(CERNY4_IMAGE, w), (0, 1)),
    ("chi_decode", lambda w: chi_decode(CERNY4_IMAGE, w), (2, 0, 2, 1)),
]
WORD_FORMS = [list, tuple, iter, lambda w: (j for j in w)]


@pytest.mark.parametrize("form", WORD_FORMS, ids=["list", "tuple", "iter", "generator"])
@pytest.mark.parametrize("name, call, word", WORD_TAKERS, ids=[name for name, _, _ in WORD_TAKERS])
def test_a_word_in_any_iterable_form_is_read_once(name, call, word, form):
    # a one-shot iterator used to be emptied by the letter check
    assert call(form(word)) == call(tuple(word))


@pytest.mark.parametrize("word", [5, None, 1.5], ids=["int", "none", "float"])
@pytest.mark.parametrize("name, call, _", WORD_TAKERS, ids=[name for name, _, _ in WORD_TAKERS])
def test_a_word_that_is_not_iterable_is_refused(name, call, _, word):
    kind = "letter names" if name == "word_from_names" else "letter indices"
    with pytest.raises(UsageError) as info:
        call(word)
    assert type(info.value) is UsageError
    assert str(info.value) == (
        f"word {word!r} has type {type(word).__name__}, expected an iterable of {kind}"
    )


# (callable.parameter, the start of its type message, call with one value,
# whether its cost is flat in the value and so it also takes 2**70)
INT_TAKERS = [
    ("Dfa.n", "state count", lambda v: Dfa(v, ("a",), ((0, 0),)), False),
    ("Dfa.delta", "transition 'a': 1 ->", lambda v: Dfa(2, ("a",), ((0, v),)), True),
    ("StateSet.bits", "bits", lambda v: StateSet(v, 4), True),
    ("StateSet.n", "capacity", lambda v: StateSet(0, v), True),
    ("StateSet.empty.n", "capacity", StateSet.empty, True),
    ("StateSet.full.n", "capacity", StateSet.full, False),
    ("StateSet.of.n", "capacity", lambda v: StateSet.of([], v), False),
    ("StateSet.of.states", "state", lambda v: StateSet.of([v], 4), True),
    ("SearchBudget.max_subsets", "max_subsets", lambda v: SearchBudget(max_subsets=v), True),
    ("SearchBudget.max_depth", "max_depth", lambda v: SearchBudget(max_depth=v), True),
    ("apply_letter.q", "state", lambda v: apply_letter(CERNY3, v, 0), True),
    ("apply_letter.j", "letter index", lambda v: apply_letter(CERNY3, 0, v), True),
    ("apply_word.q", "state", lambda v: apply_word(CERNY3, v, (0,)), True),
    ("letter_rank.j", "letter index", lambda v: letter_rank(CERNY3, v), True),
    ("is_idempotent_letter.j", "letter index", lambda v: is_idempotent_letter(CERNY3, v), True),
    ("make_congruence.class_of", "class index", lambda v: make_congruence(CERNY3, (v,) * 3), True),
    ("reset_threshold.capacity", "capacity", lambda v: reset_threshold(CERNY3, capacity=v), True),
    ("analyze_automaton.capacity", "capacity", lambda v: analyze_automaton(CERNY3, capacity=v), True),
    ("check_corollary3.n", "state count", check_corollary3, False),
    ("gen_cerny.n", "state count", gen_cerny, False),
    ("gen_ladder.n", "state count", gen_ladder, False),
    ("gen_gusev_like.n", "state count", gen_gusev_like, False),
    ("gen_random_dfa.n", "state count", lambda v: gen_random_dfa(v, 2, 1), False),
    ("gen_random_dfa.k", "letter count", lambda v: gen_random_dfa(3, v, 1), False),
    ("gen_random_dfa.seed", "seed", lambda v: gen_random_dfa(3, 2, v), True),
    ("gen_random_idempotent.n", "state count", lambda v: gen_random_idempotent(v, 2, 1), False),
    ("gen_random_idempotent.k", "letter count", lambda v: gen_random_idempotent(3, v, 1), False),
    ("gen_random_idempotent.seed", "seed", lambda v: gen_random_idempotent(3, 2, v), True),
]
INT_TAKER_IDS = [entry for entry, _, _, _ in INT_TAKERS]
OPTIONAL_INTS = {"SearchBudget.max_subsets", "SearchBudget.max_depth"}

# records and exceptions the library builds, whose integer fields are
# answers rather than arguments; quotient re-derives a Congruence
RESULT_TYPES = {
    "AnalysisReport", "ClosureViolation", "Congruence", "CongruenceViolation",
    "Corollary3Report", "HigginsImage", "Lemma1Report", "NotInImage",
    "ParseError", "SyncResult", "TwoIdemClassification",
}


def _integer_parameters():
    """``callable.parameter`` for each parameter annotated ``int`` or
    ``int | None`` of the public callables and their public methods."""
    for name in idemsync.__all__:
        obj = getattr(idemsync, name)
        callables = [(name, obj)]
        if isinstance(obj, type):
            callables += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in vars(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
        for qualified, target in callables:
            try:
                parameters = inspect.signature(target).parameters.values()
            except (TypeError, ValueError):  # builtin exceptions, type aliases
                continue
            for p in parameters:
                if p.annotation in ("int", "int | None"):
                    yield qualified, f"{qualified}.{p.name}"


def test_every_integer_parameter_is_in_the_hostile_table():
    missing = [
        entry
        for qualified, entry in _integer_parameters()
        if entry not in INT_TAKER_IDS and qualified not in RESULT_TYPES
    ]
    assert missing == []


@pytest.mark.parametrize(
    "value", [True, 2.0, "2", _Index(2), None], ids=["bool", "float", "str", "subclass", "none"]
)
@pytest.mark.parametrize("entry, what, call, flat", INT_TAKERS, ids=INT_TAKER_IDS)
def test_integer_parameter_refuses_a_value_that_is_not_an_int(entry, what, call, flat, value):
    optional = entry in OPTIONAL_INTS
    if value is None and optional:
        call(value)  # None is the documented "unlimited"
        return
    with pytest.raises(UsageError) as info:
        call(value)
    assert type(info.value) is UsageError
    suffix = " or None" if optional else ""
    assert str(info.value) == f"{what} {value!r} has type {type(value).__name__}, expected int{suffix}"


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{entry}-{label}")
        for entry, _, call, flat in INT_TAKERS
        for label, value in [("negative", -1)] + [("huge", 2**70)] * flat
    ],
)
def test_integer_parameter_out_of_range_answers_or_refuses(call, value):
    # the documented answer, or UsageError; never a bare TypeError,
    # AttributeError or IndexError
    try:
        call(value)
    except UsageError:
        pass
