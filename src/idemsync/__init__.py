"""Synchronizing finite automata: construction, transformation, exact analysis.

The library models complete deterministic automata without initial or
accepting states and answers synchronization questions about them
exactly: whether a reset word exists, the minimum reset-word length, and
a canonical shortest witness.  It ships the state-doubling transform
that turns any automaton into one whose letters are all idempotent of
half rank (doubling the threshold on the nose), the classic slowly
synchronizing families, and a constructive linear-length synchronizer
for automata with two idempotent letters and a unique sink.
"""

from .analysis import (
    DEFAULT_BUDGET,
    DEFAULT_CAPACITY,
    AnalysisReport,
    SearchBudget,
    SyncResult,
    analyze_automaton,
    is_proper,
    is_synchronizing,
    reset_threshold,
    verify_reset_word,
)
from .core import (
    ClosureViolation,
    Congruence,
    CongruenceViolation,
    Dfa,
    StateSet,
    UsageError,
    Word,
    apply_letter,
    apply_word,
    find_sinks,
    image_of_set,
    is_idempotent_letter,
    is_idempotent_word,
    is_strongly_connected,
    letter_rank,
    make_congruence,
    quotient,
    subautomaton,
    word_from_names,
    word_to_names,
)
from .dot import export_dot
from .generators import (
    HigginsImage,
    NotInImage,
    chi_decode,
    chi_encode,
    gen_cerny,
    gen_flipflop,
    gen_gusev_like,
    gen_ladder,
    gen_random_dfa,
    gen_random_idempotent,
    higgins_transform,
)
from .harness import (
    ClaimRecord,
    Corollary3Report,
    HarnessReport,
    Lemma1Report,
    Theorem2Report,
    check_corollary3,
    check_lemma1,
    check_theorem2,
    run_harness,
)
from .saf import ParseError, parse_automaton, render_automaton
from .two_idempotent import (
    ContradictionError,
    TwoIdemClassification,
    TwoIdemKind,
    classify_strongly_connected_2idem,
    predecessor_free_states,
    synchronize_sink_2idem,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ClaimRecord",
    "ClosureViolation",
    "Congruence",
    "CongruenceViolation",
    "ContradictionError",
    "Corollary3Report",
    "DEFAULT_BUDGET",
    "DEFAULT_CAPACITY",
    "Dfa",
    "HarnessReport",
    "HigginsImage",
    "Lemma1Report",
    "NotInImage",
    "ParseError",
    "SearchBudget",
    "StateSet",
    "SyncResult",
    "Theorem2Report",
    "TwoIdemClassification",
    "TwoIdemKind",
    "UsageError",
    "Word",
    "analyze_automaton",
    "apply_letter",
    "apply_word",
    "check_corollary3",
    "check_lemma1",
    "check_theorem2",
    "chi_decode",
    "chi_encode",
    "classify_strongly_connected_2idem",
    "export_dot",
    "find_sinks",
    "gen_cerny",
    "gen_flipflop",
    "gen_gusev_like",
    "gen_ladder",
    "gen_random_dfa",
    "gen_random_idempotent",
    "higgins_transform",
    "image_of_set",
    "is_idempotent_letter",
    "is_idempotent_word",
    "is_proper",
    "is_strongly_connected",
    "is_synchronizing",
    "letter_rank",
    "make_congruence",
    "parse_automaton",
    "predecessor_free_states",
    "quotient",
    "render_automaton",
    "reset_threshold",
    "run_harness",
    "subautomaton",
    "synchronize_sink_2idem",
    "verify_reset_word",
    "word_from_names",
    "word_to_names",
]
