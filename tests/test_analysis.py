import ast
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemsync import (
    DEFAULT_BUDGET,
    Dfa,
    SearchBudget,
    StateSet,
    SyncResult,
    UsageError,
    analyze_automaton,
    chi_encode,
    check_corollary3,
    check_lemma1,
    check_theorem2,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    gen_random_dfa,
    higgins_transform,
    is_proper,
    is_synchronizing,
    make_congruence,
    quotient,
    reset_threshold,
    subautomaton,
    verify_reset_word,
)
from idemsync import analysis
from oracles import (
    brute_shortest_reset,
    closure,
    inflate,
    reference_is_proper,
    reference_reset_threshold,
)
from strategies import dfas, dfas_with_budgets, unconnected_sink_free_dfas

UNARY_CYCLE4 = Dfa(4, ("r",), ((1, 2, 3, 0),))
ONE_STATE = Dfa(1, ("u",), ((0,),))


class TestIsSynchronizing:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_cerny_family(self, n):
        assert is_synchronizing(gen_cerny(n))

    @pytest.mark.parametrize("n", range(1, 12))
    def test_ladder_family(self, n):
        assert is_synchronizing(gen_ladder(n))

    def test_permutations_never_synchronize(self):
        assert not is_synchronizing(UNARY_CYCLE4)

    def test_trivial_cases(self):
        assert is_synchronizing(ONE_STATE)
        assert is_synchronizing(gen_flipflop())

    def test_agrees_with_word_enumeration(self):
        for seed in range(80):
            dfa = gen_random_dfa(2 + seed % 5, 2, seed)
            assert is_synchronizing(dfa) == (brute_shortest_reset(dfa) is not None)


class TestResetThreshold:
    def test_cerny_goldens(self):
        assert reset_threshold(gen_cerny(2)).threshold == 1
        assert reset_threshold(gen_cerny(4)).threshold == 9

    def test_doubled_cerny4(self):
        doubled = higgins_transform(gen_cerny(4)).result
        assert reset_threshold(doubled).threshold == 18

    def test_gusev_seven(self):
        assert reset_threshold(gen_gusev_like(7)).threshold == 16

    def test_ladder_five(self):
        assert reset_threshold(gen_ladder(5)).threshold == 4

    def test_flipflop_resets_in_one_letter(self):
        result = reset_threshold(gen_flipflop())
        assert (result.threshold, result.witness) == (1, (0,))

    def test_one_state_resets_with_empty_word(self):
        result = reset_threshold(ONE_STATE)
        assert (result.synchronizing, result.threshold, result.witness) == (True, 0, ())

    def test_witness_is_lexicographically_least(self):
        result = reset_threshold(gen_cerny(3))
        assert result.witness == (0, 1, 1, 0)

    def test_witness_contract(self):
        for make, n in [(gen_cerny, 5), (gen_ladder, 8), (gen_gusev_like, 5)]:
            dfa = make(n)
            result = reset_threshold(dfa)
            assert result.synchronizing
            assert len(result.witness) == result.threshold
            assert verify_reset_word(dfa, result.witness)
            assert not result.truncated

    def test_non_synchronizing_reports_without_search(self):
        result = reset_threshold(UNARY_CYCLE4)
        assert result == SyncResult(False, None, None, 0, False)

    def test_subset_budget_truncates(self):
        result = reset_threshold(gen_cerny(4), SearchBudget(max_subsets=2))
        assert result.truncated
        assert not result.synchronizing
        assert result.threshold is None and result.witness is None
        assert result.states_explored == 2

    def test_depth_budget_bounds_word_length(self):
        assert reset_threshold(gen_cerny(4), SearchBudget(max_depth=8)).truncated
        exact = reset_threshold(gen_cerny(4), SearchBudget(max_depth=9))
        assert exact.threshold == 9

    def test_budget_defaults_to_the_subset_cap(self):
        assert SearchBudget() == DEFAULT_BUDGET
        assert SearchBudget(max_depth=9).max_subsets == 1 << 24
        assert SearchBudget(max_subsets=None).max_subsets is None

    def test_budget_validation(self):
        with pytest.raises(UsageError):
            SearchBudget(max_subsets=0)
        with pytest.raises(UsageError):
            SearchBudget(max_depth=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_subsets", True, "max_subsets True has type bool, expected int or None"),
            ("max_subsets", 2.5, "max_subsets 2.5 has type float, expected int or None"),
            ("max_depth", "3", "max_depth '3' has type str, expected int or None"),
            ("max_depth", 4.0, "max_depth 4.0 has type float, expected int or None"),
            ("max_subsets", 0, "max_subsets must be positive, got 0"),
            ("max_depth", -1, "max_depth must be positive, got -1"),
        ],
    )
    def test_budget_field_messages(self, field, value, message):
        with pytest.raises(UsageError) as info:
            SearchBudget(**{field: value})
        assert type(info.value) is UsageError
        assert str(info.value) == message

    def test_capacity_guard(self):
        big = Dfa(64, ("i",), (tuple(range(64)),))
        with pytest.raises(UsageError, match="capacity"):
            reset_threshold(big)
        result = reset_threshold(big, capacity=64)
        assert not result.synchronizing and not result.truncated
        with pytest.raises(UsageError, match="capacity"):
            reset_threshold(gen_cerny(12), capacity=10)

    def test_deterministic_across_calls(self):
        first = reset_threshold(gen_cerny(6))
        second = reset_threshold(gen_cerny(6))
        assert first == second


class TestSearchEngine:
    """The subset search against the earlier engine, field for field."""

    @settings(max_examples=150, deadline=None)
    @given(dfas_with_budgets())
    def test_matches_reference_engine(self, case):
        dfa, budget = case
        assert reset_threshold(dfa, budget) == reference_reset_threshold(dfa, budget)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_cerny_and_doubled(self, n):
        for dfa in (gen_cerny(n), higgins_transform(gen_cerny(max(2, n // 2))).result):
            assert reset_threshold(dfa) == reference_reset_threshold(dfa)

    def test_matches_reference_on_wide_random_sets(self):
        for seed in range(6):
            dfa = gen_random_dfa(60 + seed % 4, 2, seed)
            budget = SearchBudget(max_subsets=2000)
            assert reset_threshold(dfa, budget) == reference_reset_threshold(dfa, budget)

    def test_many_letters(self):
        # letter 0 swaps states 0 and 2, letter 299 merges 0 into 1,
        # and the 298 letters between them are identities
        rows = ((2, 1, 0),) + ((0, 1, 2),) * 298 + ((1, 1, 2),)
        dfa = Dfa(3, tuple(f"l{j}" for j in range(300)), rows)
        result = reset_threshold(dfa)
        assert (result.threshold, result.witness) == (3, (299, 0, 299))
        assert result == reference_reset_threshold(dfa)

    def test_sixty_four_states_at_capacity(self):
        dfa = gen_ladder(64)
        result = reset_threshold(dfa, capacity=64)
        assert result.threshold == 63
        assert result == reference_reset_threshold(dfa, capacity=64)

    def test_state_set_wider_than_eight_bytes(self):
        n = 70
        rotate = tuple((q + 1) % n for q in range(n))
        fold = tuple(min(q, n - 1 - q) for q in range(n))
        dfa = Dfa(n, ("r", "f"), (rotate, fold))
        result = reset_threshold(dfa, capacity=n)
        assert result.threshold == 41
        assert verify_reset_word(dfa, result.witness)
        assert result == reference_reset_threshold(dfa, capacity=n)
        budget = SearchBudget(max_subsets=300)
        assert reset_threshold(dfa, budget, n) == reference_reset_threshold(
            dfa, budget, n
        )

    @settings(max_examples=40, deadline=None)
    @given(dfas_with_budgets(max_n=140, max_k=5, max_subsets=2000))
    def test_matches_reference_across_byte_and_word_boundaries(self, case):
        dfa, budget = case
        result = reset_threshold(dfa, budget, capacity=dfa.n)
        assert result == reference_reset_threshold(dfa, budget, capacity=dfa.n)

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 65, 128, 129])
    def test_scattering_and_gathering_letters(self, n):
        # "reverse" sends a byte's states to one or two bytes on the far
        # side, so an image byte can have two source bytes; "gather" sends
        # every state into byte 0, whose image has every byte as a source;
        # "shift" merges 0 and 1 and moves every other state down by one
        reverse = tuple(n - 1 - q for q in range(n))
        gather = tuple(q % 8 for q in range(n))
        shift = tuple(max(q - 1, 0) for q in range(n))
        dfa = Dfa(n, ("reverse", "gather", "shift"), (reverse, gather, shift))
        budget = SearchBudget(max_subsets=2000)
        result = reset_threshold(dfa, budget, capacity=n)
        assert result == reference_reset_threshold(dfa, budget, capacity=n)
        assert result.synchronizing
        assert verify_reset_word(dfa, result.witness)

    @pytest.mark.parametrize(
        "dfa",
        [gen_cerny(10), higgins_transform(gen_cerny(6)).result],
        ids=["cerny-10", "doubled-cerny-12"],
    )
    def test_budget_edges_match_reference(self, dfa):
        full = reset_threshold(dfa)
        assert full == reference_reset_threshold(dfa)
        explored, threshold = full.states_explored, full.threshold
        for budget in (
            SearchBudget(max_subsets=explored),
            SearchBudget(max_depth=threshold),
        ):
            assert reset_threshold(dfa, budget) == full
            assert reference_reset_threshold(dfa, budget) == full
        short = SearchBudget(max_subsets=explored - 1)
        result = reset_threshold(dfa, short)
        assert result == reference_reset_threshold(dfa, short)
        assert result.truncated and result.states_explored == explored - 1
        shallow = SearchBudget(max_depth=threshold - 1)
        result = reset_threshold(dfa, shallow)
        assert result == reference_reset_threshold(dfa, shallow)
        assert result.truncated and result.threshold is None

    @pytest.mark.parametrize("m", [15, 16])
    def test_doubled_cerny_at_scale(self, m):
        # the threshold is Corollary 3's n**2 / 2 - 2n + 2 at n = 2m; that
        # the doubled witness is chi_encode of the base witness is only an
        # observation (it fails for a one-state base), not a theorem
        n = 2 * m
        image = higgins_transform(gen_cerny(m))
        doubled = reset_threshold(image.result)
        assert doubled.threshold == n * n // 2 - 2 * n + 2 == (392, 450)[m - 15]
        base = reset_threshold(gen_cerny(m))
        assert doubled.witness == chi_encode(image, base.witness)

    def test_budget_runs_out_inside_a_thin_level(self):
        # Černý 10's first five levels discover 1, 1, 1, 2 and 3 subsets,
        # so the budget runs out inside the fifth, built from two subsets
        dfa = gen_cerny(10)
        budget = SearchBudget(max_subsets=7)
        result = reset_threshold(dfa, budget)
        assert result == reference_reset_threshold(dfa, budget)
        assert result.truncated and result.states_explored == 7

    def test_depth_cut_on_thin_levels(self):
        # the ladder's first level holds two subsets and each later level
        # one, so five levels discover six besides the full set
        dfa = gen_ladder(30)
        budget = SearchBudget(max_depth=5)
        result = reset_threshold(dfa, budget)
        assert result == reference_reset_threshold(dfa, budget)
        assert result.truncated and result.states_explored == 7

    def test_ladder_of_three_words(self):
        n = 130
        result = reset_threshold(gen_ladder(n), capacity=n)
        assert (result.threshold, result.states_explored) == (n - 1, n + 1)
        assert result == reference_reset_threshold(gen_ladder(n), capacity=n)


class TestKernelsAlone(TestSearchEngine):
    """The search engine tests with one kernel on every level: the column
    kernel with the width bound at 0, the one-set kernel with it above
    every frontier."""

    @pytest.fixture(autouse=True, params=[0, sys.maxsize], ids=["column", "one-set"])
    def _thin(self, request, monkeypatch):
        monkeypatch.setattr(analysis, "_THIN", request.param)

    # hypothesis runs a test function on instances of one class only, so
    # the two property tests are written again here rather than inherited
    @settings(max_examples=150, deadline=None)
    @given(dfas_with_budgets())
    def test_matches_reference_engine(self, case):
        dfa, budget = case
        assert reset_threshold(dfa, budget) == reference_reset_threshold(dfa, budget)

    @settings(max_examples=40, deadline=None)
    @given(dfas_with_budgets(max_n=140, max_k=5, max_subsets=2000))
    def test_matches_reference_across_byte_and_word_boundaries(self, case):
        dfa, budget = case
        result = reset_threshold(dfa, budget, capacity=dfa.n)
        assert result == reference_reset_threshold(dfa, budget, capacity=dfa.n)


class TestVerifyResetWord:
    def test_known_words(self):
        assert verify_reset_word(gen_cerny(3), (0, 1, 1, 0))
        assert verify_reset_word(gen_flipflop(), (0,))
        assert verify_reset_word(gen_flipflop(), (1,))
        assert not verify_reset_word(gen_cerny(3), (0, 1))

    def test_empty_word(self):
        assert not verify_reset_word(gen_cerny(3), ())
        assert verify_reset_word(ONE_STATE, ())


class TestIsProper:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_doubled_cerny_needs_every_letter(self, n):
        assert is_proper(higgins_transform(gen_cerny(n)).result)

    def test_binary_automata_are_never_proper(self):
        assert not is_proper(gen_cerny(4))

    def test_smallest_doubled_instance_is_not_proper(self):
        # dropping a1 leaves the reduct synchronizing via "b a1"-style
        # words, because the 2-state base resets with s1 alone
        assert not is_proper(higgins_transform(gen_cerny(2)).result)

    def test_redundant_letter_breaks_properness(self):
        base = gen_cerny(3)
        padded = Dfa(3, ("s1", "s2", "id"), base.delta + ((0, 1, 2),))
        assert not is_proper(higgins_transform(padded).result)

    def test_non_synchronizing_is_not_proper(self):
        identities = Dfa(2, ("x", "y", "z"), ((0, 1),) * 3)
        assert not is_proper(identities)

    def test_properness_transfers_through_doubling(self):
        for n in (3, 4):
            base = higgins_transform(gen_cerny(n)).result
            assert is_proper(base)
            assert is_proper(higgins_transform(base).result)
        rng = random.Random(1)
        for _ in range(100):
            dfa = gen_random_dfa(rng.randint(2, 6), 3, rng.randrange(2**32))
            assert is_proper(dfa) == is_proper(higgins_transform(dfa).result)

    @settings(max_examples=200, deadline=None)
    @given(dfas(max_n=8, max_k=4).filter(lambda dfa: dfa.k >= 3))
    def test_matches_reference(self, dfa):
        assert is_proper(dfa) == reference_is_proper(dfa)

    @settings(max_examples=150, deadline=None)
    @given(unconnected_sink_free_dfas(max_k=4).filter(lambda dfa: dfa.k >= 3))
    def test_matches_reference_with_tails_and_two_components(self, dfa):
        assert is_proper(dfa) == reference_is_proper(dfa)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(dfas(max_n=5), unconnected_sink_free_dfas(max_core=4, max_tail=3))
        .filter(lambda dfa: dfa.k >= 2)
    )
    def test_matches_reference_on_doublings(self, dfa):
        # random draws are almost never proper; about one doubling in
        # eight is, and the doublings of tailed bases keep their tails
        doubled = higgins_transform(dfa).result
        assert is_proper(doubled) == reference_is_proper(doubled)


class TestChecks:
    def test_lemma1_report(self):
        report = check_lemma1(gen_cerny(5))
        assert report.ok
        assert report.letter_ranks == (5, 5, 5)
        assert report.letter_idempotent == (True, True, True)

    def test_theorem2_on_cerny5(self):
        report = check_theorem2(gen_cerny(5))
        assert report.base.threshold == 16
        assert report.transformed.threshold == 32
        assert report.sync_agrees and report.threshold_doubled
        assert report.encoded_witness_resets and report.ok

    def test_theorem2_on_non_synchronizing_base(self):
        report = check_theorem2(UNARY_CYCLE4)
        assert not report.base.synchronizing
        assert not report.transformed.synchronizing
        assert report.sync_agrees and report.ok
        assert report.threshold_doubled is None
        assert report.encoded_witness_resets is None

    def test_theorem2_degenerate_one_state_base(self):
        # the doubled automaton has two states, so its threshold is 1,
        # not 0: the doubling law needs a base with at least two states
        report = check_theorem2(ONE_STATE)
        assert report.sync_agrees
        assert report.transformed.threshold == 1
        assert report.threshold_doubled is False
        assert not report.ok

    def test_theorem2_holds_on_random_bases(self):
        for seed in range(60):
            dfa = gen_random_dfa(2 + seed % 7, 1 + seed % 3, seed)
            assert check_theorem2(dfa).ok

    def test_theorem2_makes_no_claim_when_truncated(self):
        report = check_theorem2(gen_cerny(6), SearchBudget(max_subsets=3))
        assert report.base.truncated
        assert not report.ok

    def test_corollary3_at_eight(self):
        report = check_corollary3(8)
        assert report.ok
        assert report.sync.threshold == 18 == report.expected_threshold
        assert report.letter_ranks == (4, 4, 4)
        assert all(report.letter_idempotent)
        assert report.proper

    def test_corollary3_smallest_instance_fails_properness_only(self):
        report = check_corollary3(4)
        assert report.sync.threshold == 2 == report.expected_threshold
        assert report.letter_ranks == (2, 2, 2)
        assert all(report.letter_idempotent)
        assert not report.proper
        assert not report.ok

    def test_corollary3_rejects_bad_sizes(self):
        with pytest.raises(UsageError):
            check_corollary3(7)
        with pytest.raises(UsageError):
            check_corollary3(2)


class TestPreservation:
    def test_quotients_and_subautomata_stay_synchronizing(self):
        kept = 0
        for seed in range(60):
            rng = random.Random(seed)
            base = gen_random_dfa(rng.randint(2, 4), 2, seed)
            sizes = [rng.randint(1, 3) for _ in range(base.n)]
            inflated, block_of = inflate(base, sizes, seed)
            if not is_synchronizing(inflated):
                continue
            kept += 1
            pi = make_congruence(inflated, block_of)
            assert is_synchronizing(quotient(inflated, pi))
            members = sorted(closure(inflated, {rng.randrange(inflated.n)}))
            sub = subautomaton(inflated, StateSet.of(members, inflated.n))
            assert is_synchronizing(sub)
        assert kept > 10

    def test_pair_test_agrees_with_subset_search(self):
        for seed in range(60):
            dfa = gen_random_dfa(2 + seed % 7, 1 + seed % 3, seed)
            assert reset_threshold(dfa).synchronizing == is_synchronizing(dfa)


class TestAnalyzeAutomaton:
    def test_ladder_report(self):
        report = analyze_automaton(gen_ladder(5))
        assert report.n == 5
        assert report.letters == ("a", "b")
        assert report.letter_ranks == (3, 3)
        assert report.letter_idempotent == (True, True)
        assert report.sinks == (4,)
        assert not report.strongly_connected
        assert report.sync.threshold == 4
        assert report.sync.witness == (1, 0, 1, 0)
        assert report.synchronizing

    def test_past_capacity_the_search_is_skipped(self):
        report = analyze_automaton(gen_ladder(100))
        assert report.sync is None
        assert report.synchronizing is True
        assert report.sinks == (99,)
        assert report.letter_ranks == (51, 50)

    def test_past_capacity_the_pair_test_decides(self):
        cycle = Dfa(100, ("r",), (tuple((q + 1) % 100 for q in range(100)),))
        report = analyze_automaton(cycle)
        assert report.sync is None
        assert report.synchronizing is False
        assert report.strongly_connected

    def test_capacity_is_per_call(self):
        report = analyze_automaton(gen_ladder(8), capacity=7)
        assert report.sync is None and report.synchronizing
        assert analyze_automaton(gen_ladder(8), capacity=8).sync.threshold == 7

    def test_truncated_search_still_synchronizes(self):
        # the search ran only after the pair test passed
        report = analyze_automaton(gen_cerny(4), SearchBudget(max_subsets=2))
        assert report.sync.truncated
        assert report.sync.synchronizing is False
        assert report.sync.synchronizes is True
        assert report.synchronizing is True

    def test_one_pair_test_within_capacity(self, monkeypatch):
        import idemsync.analysis as analysis

        calls = []
        pair_test = analysis.is_synchronizing

        def counted(dfa):
            calls.append(dfa)
            return pair_test(dfa)

        monkeypatch.setattr(analysis, "is_synchronizing", counted)
        analyze_automaton(gen_cerny(5))
        assert len(calls) == 1


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "idemsync"
# The relative imports of each lower layer, exactly: core -> analysis ->
# generators / two_idempotent -> harness -> cli.
LOWER_LAYERS = {
    "core": set(),
    "analysis": {"core"},
    "generators": {"core"},
    "saf": {"core"},
    "dot": {"core"},
    "two_idempotent": {"core"},
}


def _relative_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }


class TestLayers:
    @pytest.mark.parametrize("module", sorted(LOWER_LAYERS))
    def test_lower_layers_import_only_below(self, module):
        assert _relative_imports(module) == LOWER_LAYERS[module]

    def test_harness_imports_no_front_end(self):
        front_ends = {"cli", "saf", "dot", "two_idempotent"}
        assert not _relative_imports("harness") & front_ends

    def test_every_module_is_covered(self):
        modules = {path.stem for path in PACKAGE.glob("*.py")}
        assert modules == set(LOWER_LAYERS) | {"harness", "cli", "__init__"}


def _reads_environment(node: ast.AST) -> bool:
    names = {"environ", "getenv"}
    if isinstance(node, ast.Attribute):
        return node.attr in names
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in names for alias in node.names)
    return False


def test_no_module_reads_the_environment():
    # every input, the search budget included, comes in through arguments
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_environment(node)
    ]
    assert reads == []


def _owner(tree: ast.Module, node: ast.AST) -> str:
    """The innermost function around ``node``, or ``<module>``."""
    owners = [
        f.name
        for f in ast.walk(tree)  # breadth first, so the innermost comes last
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and f.lineno <= node.lineno <= f.end_lineno
    ]
    return owners[-1] if owners else "<module>"


def test_only_three_checked_sites_skip_the_dfa_scan():
    # each builds rows that its own checks or construction cover
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += [
            f"{path.name}:{_owner(tree, node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_from_checked"
        ]
    assert sorted(callers) == [
        "generators.py:_seeded",
        "generators.py:higgins_transform",
        "saf.py:parse_automaton",
    ]


def _sites(matches) -> list[str]:
    """``module.py:function`` of every node of the package that ``matches``."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.name}:{_owner(tree, node)}" for node in ast.walk(tree) if matches(node)]
    return sorted(sites)


def test_one_saf_row_writer_and_one_description_of_the_doubling():
    # the SAF row format is built in the one writer, and the doubled
    # letters a1 .. ak and b are named where the doubling is described
    assert _sites(lambda node: isinstance(node, ast.Constant) and node.value == " %d") == [
        "saf.py:_saf_text"
    ]
    assert _sites(
        lambda node: isinstance(node, ast.JoinedStr)
        and isinstance(node.values[0], ast.Constant)
        and node.values[0].value == "a"
    ) == ["generators.py:_doubled_letters"]
    b_sites = _sites(lambda node: isinstance(node, ast.Constant) and node.value == "b")
    assert "generators.py:_doubled_letters" in b_sites
    assert all(site.startswith("generators.py:") for site in b_sites)


def test_the_integer_type_rule_is_written_once():
    # every integer parameter goes through core._check_int for its type rule
    writers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writers += [
            f"{path.name}:{_owner(tree, node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and re.search(r"expected int\b", node.value)
        ]
    assert writers == ["core.py:_check_int"]
