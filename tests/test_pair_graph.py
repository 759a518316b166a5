"""The pair-graph routines against their earlier implementations.

``is_synchronizing``, ``synchronize_sink_2idem`` and
``verify_reset_word`` must give exactly the answers of the engines they
replaced, kept in ``oracles.py``: the same decision, the same
lowest-free-index word, the same errors.  The pair closure's pull rounds
are checked against the closure that only pushes.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    ContradictionError,
    Dfa,
    StateSet,
    UsageError,
    analyze_automaton,
    gen_cerny,
    gen_flipflop,
    gen_ladder,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
    image_of_set,
    is_proper,
    is_synchronizing,
    synchronize_sink_2idem,
    verify_reset_word,
)
from idemsync import analysis
from oracles import (
    cerny_with_tail,
    reference_image_of_set,
    reference_is_proper,
    reference_is_synchronizing,
    reference_pair_test,
    reference_synchronize_sink_2idem,
)
from strategies import (
    dfas,
    dfas_with_words,
    idempotent_sink_dfas,
    unconnected_sink_free_dfas,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def peel_outcome(synchronize, dfa):
    """The word, or the type of the error raised."""
    try:
        return synchronize(dfa)
    except (ContradictionError, UsageError) as exc:
        return type(exc)


def relabel(dfa: Dfa, seed: int) -> Dfa:
    perm = list(range(dfa.n))
    random.Random(seed).shuffle(perm)
    rows = []
    for row in dfa.delta:
        new = [0] * dfa.n
        for q, t in enumerate(row):
            new[perm[q]] = perm[t]
        rows.append(tuple(new))
    return Dfa(dfa.n, dfa.letters, tuple(rows))


def sweep_case(index: int) -> Dfa:
    """One of 50 seeded automata on 100..300 states: uniform random,
    random idempotent or a relabelled ladder, by ``index`` mod 3."""
    rng = random.Random(f"pair-graph-sweep:{index}")
    n = rng.randrange(100, 301)
    seed = rng.randrange(1 << 32)
    if index % 3 == 0:
        return gen_random_dfa(n, rng.randrange(1, 4), seed)
    if index % 3 == 1:
        return gen_random_idempotent(n, rng.randrange(2, 4), seed)
    return relabel(gen_ladder(n), seed)


class TestPairTest:
    @settings(max_examples=200, deadline=None)
    @given(dfas(max_n=24, max_k=4))
    def test_matches_reference(self, dfa):
        assert is_synchronizing(dfa) == reference_is_synchronizing(dfa)

    @settings(max_examples=200, deadline=None)
    @given(idempotent_sink_dfas())
    def test_one_sink_matches_reference(self, dfa):
        # every input has exactly one sink, so reachability decides
        assert is_synchronizing(dfa) == reference_is_synchronizing(dfa)

    @settings(max_examples=200, deadline=None)
    @given(unconnected_sink_free_dfas())
    def test_unconnected_sink_free_matches_reference(self, dfa):
        # a transient tail, or a second terminal component
        assert is_synchronizing(dfa) == reference_is_synchronizing(dfa)

    def test_strategy_yields_both_answers(self):
        answers = set()

        @settings(max_examples=100, deadline=None, database=None)
        @given(unconnected_sink_free_dfas())
        def collect(dfa):
            answers.add(is_synchronizing(dfa))

        collect()
        assert answers == {True, False}

    def test_tail_past_the_cap_is_answered(self):
        # 20,050 states would need a 402,002,500-byte table; the terminal
        # component, the 50 Černý states, needs 2,500 bytes
        start = time.perf_counter()
        assert is_synchronizing(cerny_with_tail(50, 20_000))
        assert time.perf_counter() - start < 2
        # two disjoint copies of Černý 10,000 are two terminal components,
        # which reachability tells apart before any table is built
        cerny = gen_cerny(10_000)
        rows = tuple(row + tuple(t + 10_000 for t in row) for row in cerny.delta)
        assert not is_synchronizing(Dfa(20_000, cerny.letters, rows))

    def test_table_past_the_cap_is_refused(self):
        # 16,385 sink-free states need 16,385**2 > 2**28 bytes; the
        # boundary n = 16,384 is left out, as its closure takes minutes
        message = (
            "16385 states without a sink need a 268468225-byte pair table, "
            "over the cap of 268435456 bytes"
        )
        with pytest.raises(UsageError) as info:
            is_synchronizing(gen_cerny(16_385))
        assert str(info.value) == message
        with pytest.raises(UsageError, match="over the cap of 268435456 bytes"):
            analyze_automaton(gen_cerny(16_385))
        # three letters, so properness reaches the pair test
        with pytest.raises(UsageError, match="16386 states without a sink"):
            is_proper(higgins_transform(gen_cerny(8_193)).result)

    def test_memory_stays_within_three_and_a_half_tables(self):
        # a constant letter and a cyclic shift: merging the diagonal pair
        # of the constant's image finds every other pair at once, which a
        # closure that only pushes holds as about n**2 / 2 worklist indices
        # beside the n**2-byte table
        n = 3_000
        synchronizing, growth = closure_growth(
            f"Dfa({n}, ('c', 's'), ((0,) * {n}, tuple(range(1, {n})) + (0,)))"
        )
        assert synchronizing
        assert growth <= 3.5 * n * n

    def test_pull_rounds_stay_within_two_and_a_half_tables(self):
        # a rank-2 letter q % 2 and a cyclic shift never synchronize: the
        # odd pairs overflow the worklist at once, and pull rounds follow
        # in the table's copy, the worklist freed
        n = 3_000
        synchronizing, growth = closure_growth(
            f"Dfa({n}, ('a', 's'), "
            f"(tuple(q % 2 for q in range({n})), tuple(range(1, {n})) + (0,)))"
        )
        assert not synchronizing
        assert growth <= 2.5 * n * n

    def test_random_closure_stays_within_two_and_a_half_tables(self):
        # the terminal component has 3,172 of the 4,000 states
        m = 3_172
        synchronizing, growth = closure_growth("gen_random_dfa(4000, 2, 1)")
        assert synchronizing
        assert growth <= 2.5 * m * m


def closure_growth(build: str) -> tuple[bool, int]:
    """The pair test's verdict on the automaton the expression ``build``
    makes, and the growth in bytes of peak RSS over the call, measured in
    a child forked from a fresh interpreter."""
    pytest.importorskip("resource")
    # exec carries the test runner's peak RSS into ru_maxrss; a
    # forked child starts from the fresh interpreter's own peak
    script = (
        "import os, resource\n"
        "from idemsync import Dfa, gen_random_dfa, is_synchronizing\n"
        f"dfa = {build}\n"
        "if os.fork() == 0:\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    synchronizing = is_synchronizing(dfa)\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(synchronizing, after - before, flush=True)\n"
        "    os._exit(0)\n"
        "os.wait()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    synchronizing, growth = proc.stdout.split()
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss in bytes or KiB
    return synchronizing == "True", int(growth) * unit


def rank_two_shift(n: int) -> Dfa:
    """A rank-2 letter ``q % 2`` and a cyclic shift: the pairs of equal
    parity merge and no others, so it never synchronizes."""
    return Dfa(n, ("a", "s"), (tuple(q % 2 for q in range(n)), tuple(range(1, n)) + (0,)))


def pull_cases() -> list[tuple[str, tuple]]:
    """Transition rows above the pull floor: random automata on 150 to
    1,000 states with one to three letters, the benchmark's doubled random
    300 and its one-letter reducts, Černý 200 with a 50-state tail, a thin
    doubled Černý 200 and a rank-2 automaton that never synchronizes."""
    sizes = [(150, 1), (150, 2), (150, 3), (300, 2), (300, 3), (600, 3), (1000, 1), (1000, 2)]
    cases = [(f"random-{n}-k{k}", gen_random_dfa(n, k, 1000 * n + k).delta) for n, k in sizes]
    # the benchmark's pair-graph workload draws this base at seed 1
    doubled = higgins_transform(gen_random_dfa(150, 2, 1089476529)).result.delta
    cases.append(("doubled-random-300", doubled))
    cases += [
        (f"doubled-random-300-without-{j}", doubled[:j] + doubled[j + 1 :]) for j in range(3)
    ]
    cases.append(("cerny-200-tail-50", cerny_with_tail(200, 50).delta))
    cases.append(("doubled-cerny-200", higgins_transform(gen_cerny(100)).result.delta))
    cases.append(("rank-two-shift-300", rank_two_shift(300).delta))
    return cases


PULL_CASES = pull_cases()


class TestPullRounds:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(dfas(max_n=12, max_k=4), unconnected_sink_free_dfas()),
        st.sampled_from([2, 4, 8, 16, 64]),
        st.sampled_from([1, 16, 4096]),
    )
    def test_tiny_automata_pulling_match_the_references(self, dfa, share, block):
        # a floor of 2 and a small share send tiny components through pull
        # rounds, and back to push steps; blocks of one or two rows, and
        # a ragged last block, are exercised
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_PULL_FLOOR", 2)
            patch.setattr(analysis, "_PULL_SHARE", share)
            patch.setattr(analysis, "_PULL_BLOCK", block)
            synchronizing, proper = is_synchronizing(dfa), is_proper(dfa)
        assert synchronizing == reference_is_synchronizing(dfa)
        assert proper == reference_is_proper(dfa)

    @pytest.mark.parametrize(
        "rows", [rows for _, rows in PULL_CASES], ids=[name for name, _ in PULL_CASES]
    )
    def test_matches_the_closure_that_only_pushes(self, rows):
        assert analysis._pair_test(rows) == reference_pair_test(rows)

    def test_wide_closures_take_pull_rounds(self, monkeypatch):
        rounds = []
        pull_round = analysis._pull_round

        def counting(*args):
            found, listed = pull_round(*args)
            rounds.append(found)
            return found, listed

        monkeypatch.setattr(analysis, "_pull_round", counting)
        assert is_synchronizing(gen_random_dfa(600, 2, 1))
        assert rounds
        rounds.clear()
        assert is_synchronizing(higgins_transform(gen_cerny(17)).result)
        assert not rounds  # 34 states are under the floor


class TestNoCopies:
    def test_pair_test_and_properness_build_no_automaton(self, built_sizes):
        # Černý 5 with a 4-state tail and a third letter that moves only
        # the tail; its doubling has a transient tail of 8 states
        tailed = cerny_with_tail(5, 4)
        tail_only = tuple(range(5)) + (6, 7, 8, 0)
        base = Dfa(9, tailed.letters + ("t",), tailed.delta + (tail_only,))
        doubled = higgins_transform(base).result
        built_sizes.clear()
        synchronizing, proper = is_synchronizing(doubled), is_proper(doubled)
        assert built_sizes == []
        assert synchronizing == reference_is_synchronizing(doubled)
        assert proper == reference_is_proper(doubled)


class TestPeeling:
    @settings(max_examples=200, deadline=None)
    @given(idempotent_sink_dfas())
    def test_matches_reference(self, dfa):
        assert peel_outcome(synchronize_sink_2idem, dfa) == peel_outcome(
            reference_synchronize_sink_2idem, dfa
        )

    def test_strategy_yields_both_outcomes(self):
        outcomes = set()

        @settings(max_examples=100, deadline=None, database=None)
        @given(idempotent_sink_dfas())
        def collect(dfa):
            outcomes.add(isinstance(peel_outcome(synchronize_sink_2idem, dfa), tuple))

        collect()
        assert outcomes == {True, False}


@pytest.mark.parametrize("index", range(50))
def test_seeded_sweep_matches_reference(index):
    dfa = sweep_case(index)
    assert is_synchronizing(dfa) == reference_is_synchronizing(dfa)
    assert peel_outcome(synchronize_sink_2idem, dfa) == peel_outcome(
        reference_synchronize_sink_2idem, dfa
    )


class TestVerifyResetWord:
    @settings(max_examples=100, deadline=None)
    @given(dfas_with_words(max_n=8, max_k=3, max_len=12))
    def test_matches_set_image(self, case):
        dfa, word = case
        expected = len(image_of_set(dfa, StateSet.full(dfa.n), word)) == 1
        assert verify_reset_word(dfa, word) == expected

    @settings(max_examples=100, deadline=None)
    @given(dfas_with_words(max_n=8, max_k=3, max_len=12))
    def test_matches_the_bit_walk_reference(self, case):
        dfa, word = case
        expected = len(reference_image_of_set(dfa, StateSet.full(dfa.n), word)) == 1
        assert verify_reset_word(dfa, word) == expected

    @settings(max_examples=100, deadline=None)
    @given(dfas_with_words(max_n=8, max_k=3, max_len=12), st.data())
    def test_out_of_range_letter_raises(self, case, data):
        dfa, word = case
        bad = data.draw(st.sampled_from((-1, dfa.k)))
        at = data.draw(st.integers(0, len(word)))
        with pytest.raises(UsageError):
            verify_reset_word(dfa, word[:at] + (bad,) + word[at:])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_letter_raises_after_a_singleton(self, bad):
        dfa = gen_flipflop()
        assert verify_reset_word(dfa, (0, 1))
        with pytest.raises(UsageError):
            verify_reset_word(dfa, (0, 1, bad))
