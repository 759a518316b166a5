import itertools

import pytest
from hypothesis import given, settings

from idemsync import (
    Dfa,
    NotInImage,
    StateSet,
    UsageError,
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
    is_strongly_connected,
    letter_rank,
)
from strategies import dfas, dfas_with_words


class TestCerny:
    def test_rows_for_four_states(self):
        assert gen_cerny(4) == Dfa(4, ("s1", "s2"), ((0, 1, 2, 0), (1, 2, 3, 0)))

    def test_smallest_case(self):
        assert gen_cerny(2).delta == ((0, 0), (1, 0))

    def test_rejects_small_n(self):
        with pytest.raises(UsageError):
            gen_cerny(1)


class TestLadder:
    def test_rows_for_five_states(self):
        assert gen_ladder(5) == Dfa(
            5, ("a", "b"), ((0, 2, 2, 4, 4), (1, 1, 3, 3, 4))
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_both_letters_idempotent_with_unique_sink(self, n):
        ladder = gen_ladder(n)
        assert is_idempotent_letter(ladder, 0)
        assert is_idempotent_letter(ladder, 1)
        assert find_sinks(ladder).members() == (n - 1,)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(UsageError):
            gen_ladder(0)


class TestGusevLike:
    def test_frozen_seven_state_table(self):
        assert gen_gusev_like(7).delta == (
            (0, 2, 2, 4, 4, 6, 6),
            (1, 1, 3, 3, 5, 5, 0),
        )

    def test_smallest_case(self):
        assert gen_gusev_like(3).delta == ((0, 2, 2), (1, 1, 0))

    def test_differs_from_ladder_by_one_transition(self):
        gusev = gen_gusev_like(9)
        ladder = gen_ladder(9)
        diffs = [
            (j, q)
            for j in range(2)
            for q in range(9)
            if gusev.delta[j][q] != ladder.delta[j][q]
        ]
        assert diffs == [(1, 8)]

    def test_one_letter_idempotent_one_nearly(self):
        gusev = gen_gusev_like(7)
        assert is_idempotent_letter(gusev, 0)
        assert not is_idempotent_letter(gusev, 1)
        row = gusev.delta[1]
        not_fixed = [t for t in set(row) if row[t] != t]
        assert len(not_fixed) == 1

    def test_rejects_even_or_tiny_n(self):
        with pytest.raises(UsageError):
            gen_gusev_like(4)
        with pytest.raises(UsageError):
            gen_gusev_like(1)


class TestFlipflop:
    def test_table(self):
        assert gen_flipflop() == Dfa(2, ("a", "b"), ((0, 0), (1, 1)))

    def test_constant_idempotent_letters(self):
        flipflop = gen_flipflop()
        for j in range(2):
            assert letter_rank(flipflop, j) == 1
            assert is_idempotent_letter(flipflop, j)
        assert is_strongly_connected(flipflop)


class TestHigginsTransform:
    def test_doubles_states_and_adds_collapsing_letter(self):
        image = higgins_transform(gen_cerny(4))
        assert image.result.n == 8
        assert image.result.letters == ("a1", "a2", "b")
        assert image.base_n == 4
        assert image.a_index == (0, 1)
        assert image.b_index == 2

    def test_primed_state_follows_base_action(self):
        doubled = higgins_transform(gen_cerny(4)).result
        assert doubled.delta[1][7] == 0

    def test_collapsing_letter_lands_in_primed_half_idempotently(self):
        doubled = higgins_transform(gen_cerny(4)).result
        for state in range(8):
            target = doubled.delta[2][state]
            assert target >= 4
            assert doubled.delta[2][target] == target

    def test_original_states_are_fixed_by_simulating_letters(self):
        base = gen_cerny(5)
        doubled = higgins_transform(base).result
        for j in range(base.k):
            for state in range(base.n):
                assert doubled.delta[j][state] == state

    @settings(max_examples=60)
    @given(dfas())
    def test_every_letter_idempotent_of_half_rank(self, dfa):
        doubled = higgins_transform(dfa).result
        assert doubled.n == 2 * dfa.n
        for j in range(doubled.k):
            assert is_idempotent_letter(doubled, j)
            assert letter_rank(doubled, j) == dfa.n

    @settings(max_examples=100)
    @given(dfas())
    def test_whole_table(self, dfa):
        n, k = dfa.n, dfa.k
        doubled = higgins_transform(dfa).result
        assert doubled.letters == tuple(f"a{j + 1}" for j in range(k)) + ("b",)
        for j in range(k):
            for i in range(n):
                assert doubled.delta[j][i] == i
                assert doubled.delta[j][n + i] == dfa.delta[j][i]
        for i in range(n):
            assert doubled.delta[k][i] == doubled.delta[k][n + i] == n + i

    @settings(max_examples=40)
    @given(dfas(max_n=5))
    def test_preserves_strong_connectivity(self, dfa):
        doubled = higgins_transform(dfa).result
        assert is_strongly_connected(doubled) == is_strongly_connected(dfa)


class TestChi:
    def test_encode_blocks(self):
        image = higgins_transform(gen_cerny(3))
        assert chi_encode(image, ()) == ()
        assert chi_encode(image, (0, 1)) == (2, 0, 2, 1)
        assert len(chi_encode(image, (1, 1, 0))) == 6

    def test_encode_rejects_bad_letter(self):
        image = higgins_transform(gen_cerny(3))
        with pytest.raises(UsageError):
            chi_encode(image, (2,))

    def test_decode_inverts_encode(self):
        image = higgins_transform(gen_cerny(3))
        assert chi_decode(image, (2, 0, 2, 1)) == (0, 1)
        assert chi_decode(image, ()) == ()

    @pytest.mark.parametrize(
        "word,position",
        [
            ((0, 2), 0),
            ((2,), 1),
            ((2, 2), 1),
            ((2, 0, 2), 3),
            ((2, 0, 0, 1), 2),
        ],
    )
    def test_decode_reports_first_violation(self, word, position):
        image = higgins_transform(gen_cerny(3))
        result = chi_decode(image, word)
        assert result == NotInImage(position)

    def test_decode_rejects_unknown_letter_index(self):
        image = higgins_transform(gen_cerny(3))
        with pytest.raises(UsageError):
            chi_decode(image, (3,))

    @settings(max_examples=60)
    @given(dfas_with_words(max_len=6))
    def test_roundtrip(self, case):
        dfa, word = case
        image = higgins_transform(dfa)
        assert chi_decode(image, chi_encode(image, word)) == word

    @settings(max_examples=60)
    @given(dfas_with_words(min_len=1, max_len=6))
    def test_encoded_word_acts_like_the_original(self, case):
        dfa, word = case
        image = higgins_transform(dfa)
        base_image = image_of_set(dfa, StateSet.full(dfa.n), word)
        lifted = image_of_set(
            image.result, StateSet.full(image.result.n), chi_encode(image, word)
        )
        assert lifted.bits == base_image.bits


def _idempotent_selfmaps(n):
    return {
        row
        for row in itertools.product(range(n), repeat=n)
        if all(row[row[q]] == row[q] for q in range(n))
    }


class TestRandomGenerators:
    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent_letters_by_construction(self, seed):
        dfa = gen_random_idempotent(1 + seed % 9, 1 + seed % 3, seed)
        for j in range(dfa.k):
            assert is_idempotent_letter(dfa, j)

    def test_seed_determinism(self):
        assert gen_random_idempotent(7, 2, 42) == gen_random_idempotent(7, 2, 42)
        assert gen_random_dfa(7, 2, 42) == gen_random_dfa(7, 2, 42)
        assert gen_random_idempotent(7, 2, 42) != gen_random_idempotent(7, 2, 43)

    def test_all_ten_idempotent_selfmaps_of_three_states_appear(self):
        wanted = _idempotent_selfmaps(3)
        assert len(wanted) == 10
        seen = set()
        for seed in range(400):
            seen.add(gen_random_idempotent(3, 1, seed).delta[0])
            if seen == wanted:
                break
        assert seen == wanted

    @pytest.mark.parametrize(
        "generate, args, message",
        [
            (gen_ladder, (0,), "need at least 1 state, got 0"),
            (gen_random_idempotent, (0, 2, 1), "need at least 1 state, got 0"),
            (gen_random_idempotent, (3, 0, 1), "need at least 1 letter, got 0"),
            (gen_random_dfa, (0, 2, 1), "need at least 1 state, got 0"),
            (gen_random_dfa, (3, 0, 1), "need at least 1 letter, got 0"),
            # Random(-5) seeds from abs(-5), so these would repeat seed 5
            (gen_random_idempotent, (3, 2, -5), "seed must be nonnegative, got -5"),
            (gen_random_dfa, (3, 2, -1), "seed must be nonnegative, got -1"),
        ],
    )
    def test_size_rules(self, generate, args, message):
        with pytest.raises(UsageError) as err:
            generate(*args)
        assert str(err.value) == message

    def test_random_dfa_shape_and_validation(self):
        dfa = gen_random_dfa(5, 3, 7)
        assert dfa.n == 5 and dfa.k == 3
        with pytest.raises(UsageError):
            gen_random_dfa(0, 1, 1)
        with pytest.raises(UsageError):
            gen_random_idempotent(3, 0, 1)
