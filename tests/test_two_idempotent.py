import itertools
import random
import time

import pytest

from idemsync import (
    ContradictionError,
    Dfa,
    TwoIdemKind,
    UsageError,
    classify_strongly_connected_2idem,
    find_sinks,
    gen_cerny,
    gen_flipflop,
    gen_ladder,
    gen_random_idempotent,
    is_idempotent_letter,
    is_strongly_connected,
    is_synchronizing,
    predecessor_free_states,
    reset_threshold,
    synchronize_sink_2idem,
    verify_reset_word,
)


def alternating_cycle(k: int) -> Dfa:
    """Strongly connected two-idempotent automaton built around an
    alternating cycle of length ``k``; not synchronizing for k >= 2."""
    n = 2 * k
    a = []
    b = []
    for i in range(k):
        a.extend([2 * i + 1, 2 * i + 1])
        b.extend([2 * i, 2 * ((i + 1) % k)])
    return Dfa(n, ("a", "b"), (tuple(a), tuple(b)))


EQ5_WITH_SINK = Dfa(5, ("a", "b"), ((1, 1, 3, 3, 4), (0, 2, 2, 0, 4)))


class TestPredecessorFreeStates:
    def test_ladder_has_only_the_bottom(self):
        assert predecessor_free_states(gen_ladder(5)).members() == (0,)

    def test_flipflop_has_none(self):
        assert len(predecessor_free_states(gen_flipflop())) == 0

    def test_single_state(self):
        assert predecessor_free_states(Dfa(1, ("u",), ((0,),))).members() == (0,)

    def test_cycle_has_none(self):
        assert len(predecessor_free_states(alternating_cycle(2))) == 0


class TestClassification:
    def test_flipflop(self):
        verdict = classify_strongly_connected_2idem(gen_flipflop())
        assert verdict.kind is TwoIdemKind.FLIP_FLOP
        assert verdict.cycle_length is None

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_alternating_cycle_blocks_synchronization(self, k):
        dfa = alternating_cycle(k)
        assert is_strongly_connected(dfa)
        verdict = classify_strongly_connected_2idem(dfa)
        assert verdict.kind is TwoIdemKind.NOT_SYNCHRONIZING
        assert verdict.cycle_length == k
        assert not is_synchronizing(dfa)

    def test_cycle_witness_satisfies_the_alternating_relations(self):
        dfa = alternating_cycle(3)
        verdict = classify_strongly_connected_2idem(dfa)
        mover = verdict.moving_letter
        passive = 1 - mover
        k = verdict.cycle_length
        for i in range(k):
            q, p = verdict.cycle_q[i], verdict.cycle_p[i]
            assert dfa.delta[mover][q] == p
            assert dfa.delta[passive][q] == q
            assert dfa.delta[mover][p] == p
            assert dfa.delta[passive][p] == verdict.cycle_q[(i + 1) % k]

    def test_four_state_cycle_golden(self):
        verdict = classify_strongly_connected_2idem(alternating_cycle(2))
        assert verdict.cycle_q == (0, 2)
        assert verdict.cycle_p == (1, 3)

    def test_not_applicable_reasons(self):
        ladder = classify_strongly_connected_2idem(gen_ladder(5))
        assert ladder.kind is TwoIdemKind.NOT_APPLICABLE
        assert "connected" in ladder.reason

        cerny = classify_strongly_connected_2idem(gen_cerny(3))
        assert cerny.kind is TwoIdemKind.NOT_APPLICABLE
        assert "idempotent" in cerny.reason

        three_letters = Dfa(2, ("a", "b", "c"), ((0, 1),) * 3)
        assert (
            classify_strongly_connected_2idem(three_letters).kind
            is TwoIdemKind.NOT_APPLICABLE
        )

        tiny = Dfa(1, ("a", "b"), ((0,), (0,)))
        assert (
            classify_strongly_connected_2idem(tiny).kind
            is TwoIdemKind.NOT_APPLICABLE
        )

    def test_flipflop_is_the_only_two_state_survivor(self):
        # enumerate every two-state automaton over two idempotent
        # letters; the strongly connected synchronizing ones are exactly
        # the flip-flop up to swapping the letters
        idempotent_rows = [
            row
            for row in itertools.product(range(2), repeat=2)
            if all(row[row[q]] == row[q] for q in range(2))
        ]
        survivors = []
        for rows in itertools.product(idempotent_rows, repeat=2):
            dfa = Dfa(2, ("a", "b"), rows)
            if is_strongly_connected(dfa) and is_synchronizing(dfa):
                survivors.append(rows)
                verdict = classify_strongly_connected_2idem(dfa)
                assert verdict.kind is TwoIdemKind.FLIP_FLOP
        assert sorted(survivors) == [((0, 0), (1, 1)), ((1, 1), (0, 0))]


class TestSynchronizeSink:
    def test_ladder_five_golden_word(self):
        ladder = gen_ladder(5)
        word = synchronize_sink_2idem(ladder)
        assert word == (1, 0, 1, 0)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_ladder_words_verify_at_length_bound(self, n):
        ladder = gen_ladder(n)
        word = synchronize_sink_2idem(ladder)
        assert len(word) <= n - 1
        assert verify_reset_word(ladder, word)

    def test_long_ladder_is_linear(self):
        # the word is checked against the peel order, not walked
        start = time.perf_counter()
        word = synchronize_sink_2idem(gen_ladder(20_000))
        assert len(word) == 19_999
        assert time.perf_counter() - start < 2

    def test_wrong_peel_order_fails_verification(self, monkeypatch):
        import idemsync.two_idempotent as two_idempotent

        # with every state taken as predecessor-free, the relabelled
        # ladder is peeled against its transitions
        ladder = gen_ladder(12)
        rows = tuple(tuple(11 - row[11 - q] for q in range(12)) for row in ladder.delta)
        monkeypatch.setattr(two_idempotent, "_in_degrees", lambda dfa: [0] * dfa.n)
        with pytest.raises(RuntimeError, match="failed verification"):
            synchronize_sink_2idem(Dfa(12, ladder.letters, rows))

    def test_one_state_needs_the_empty_word(self):
        dfa = Dfa(1, ("a", "b"), ((0,), (0,)))
        assert synchronize_sink_2idem(dfa) == ()

    def test_random_unique_sink_instances(self):
        rng = random.Random(7)
        accepted = 0
        attempts = 0
        while accepted < 60 and attempts < 5000:
            attempts += 1
            n = rng.randint(2, 10)
            dfa = gen_random_idempotent(n, 2, rng.randrange(2**32))
            if len(find_sinks(dfa)) != 1 or not is_synchronizing(dfa):
                continue
            accepted += 1
            word = synchronize_sink_2idem(dfa)
            assert len(word) <= n - 1
            assert verify_reset_word(dfa, word)
            assert reset_threshold(dfa).threshold <= n - 1
        assert accepted == 60

    def test_rejects_wrong_letter_count(self):
        with pytest.raises(UsageError, match="2 letters"):
            synchronize_sink_2idem(Dfa(2, ("a",), ((0, 0),)))

    def test_rejects_non_idempotent_letters(self):
        with pytest.raises(UsageError, match="idempotent"):
            synchronize_sink_2idem(gen_cerny(3))

    def test_rejects_missing_or_multiple_sinks(self):
        with pytest.raises(UsageError, match="sink"):
            synchronize_sink_2idem(gen_flipflop())
        two_sinks = Dfa(2, ("a", "b"), ((0, 1), (0, 1)))
        with pytest.raises(UsageError, match="sink"):
            synchronize_sink_2idem(two_sinks)

    def test_contradiction_on_non_synchronizing_input(self):
        assert find_sinks(EQ5_WITH_SINK).members() == (4,)
        assert all(is_idempotent_letter(EQ5_WITH_SINK, j) for j in range(2))
        assert not is_synchronizing(EQ5_WITH_SINK)
        with pytest.raises(ContradictionError):
            synchronize_sink_2idem(EQ5_WITH_SINK)


@pytest.mark.parametrize(
    "dfa, reason",
    [
        (Dfa(2, ("a",), ((0, 0),)), "expected exactly 2 letters, got 1"),
        (Dfa(2, ("a", "b", "c"), ((0, 1),) * 3), "expected exactly 2 letters, got 3"),
        (gen_cerny(3), "letter 's2' is not idempotent"),
    ],
)
def test_classifier_and_synchronizer_name_one_precondition_fault(dfa, reason):
    assert classify_strongly_connected_2idem(dfa).reason == reason
    with pytest.raises(UsageError) as info:
        synchronize_sink_2idem(dfa)
    assert str(info.value) == reason
